"""Candidate and voter generation: beam search, copy filtering, sampling.

Beam search keeps a finished pool separate from the live beam: hypotheses
that emit EOS stop consuming beam slots.  Reported log-probabilities are
always true model log-probabilities, whatever scoring mode or penalty was
used to rank the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .models import NEG_INF, SequenceModel
from .sequences import BOS_ID, EOS_ID, Sequence, ngram_set

SCORING_MODES = ("logprob", "length_normalized")
SAMPLING_STRATEGIES = ("ancestral", "top_k", "nucleus")


@dataclass(frozen=True)
class ScoredSequence:
    """A sequence together with its model log-probability."""

    tokens: Sequence
    logprob: float


@dataclass(frozen=True)
class CopyFilter:
    """Discard hypotheses reproducing at least ``threshold`` of the source's unigrams."""

    source: Sequence
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"copy-filter threshold must be in [0,1], got {self.threshold}")

    def discards(self, candidate: Sequence) -> bool:
        # A source with no unigrams cannot be copied: never filter.
        if not self.source:
            return False
        return copy_overlap_rate(candidate, self.source) >= self.threshold


@dataclass(frozen=True)
class BeamParams:
    beam_size: int = 1
    max_len: int = 50
    scoring: str = "logprob"
    diverse_gamma: float = 0.0
    copy_filter: CopyFilter | None = None

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if self.scoring not in SCORING_MODES:
            raise ValueError(f"scoring must be one of {SCORING_MODES}, got {self.scoring!r}")
        if self.diverse_gamma < 0:
            raise ValueError(f"diverse_gamma must be >= 0, got {self.diverse_gamma}")


@dataclass(frozen=True)
class CandidateSet:
    """Scored sequences sorted by descending search score.

    Search-generated sets contain no duplicate token lists; sampled sets may
    (samples are draws, not a set).
    """

    items: tuple[ScoredSequence, ...]
    provenance: str

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def copy_overlap_rate(candidate: Sequence, source: Sequence) -> float:
    """Fraction of the source's distinct unigrams present in the candidate.

    An empty source has no unigrams to copy; the rate is defined as 0.
    """
    source_set = ngram_set(source, 1)
    if not source_set:
        return 0.0
    return len(ngram_set(candidate, 1) & source_set) / len(source_set)


def _mode_score(logprob: float, length: int, scoring: str) -> float:
    if scoring == "logprob":
        return logprob
    # Length normalisation divides by current hypothesis length; the empty
    # hypothesis divides by 1 to stay scoreable.
    return logprob / max(length, 1)


@dataclass(frozen=True)
class _Hyp:
    tokens: Sequence
    logprob: float
    penalty: float

    def search_score(self, scoring: str) -> float:
        return _mode_score(self.logprob, len(self.tokens), scoring) - self.penalty


def _hyp_sort_key(hyp: _Hyp, scoring: str):
    # Tie-breaking everywhere: higher model logprob first, then
    # lexicographically smaller token-id list.
    return (-hyp.search_score(scoring), -hyp.logprob, hyp.tokens)


def beam_search(model: SequenceModel, context: Sequence | None, params: BeamParams) -> CandidateSet:
    """Return up to ``beam_size`` finished hypotheses.

    Hypotheses finish by emitting EOS or by force-termination at ``max_len``
    (which appends the EOS step's model log-probability, so the reported
    value is a true sequence probability).  Under logprob scoring the search
    stops early once the finished pool holds ``beam_size`` items and no live
    hypothesis can still beat the pool; per-step log-probabilities are <= 0
    so live scores only decrease.  Length-normalized scoring has no such
    bound and runs to ``max_len``.  The diverse-decoding penalty subtracts
    ``gamma * (sibling rank - 1)`` from each expansion before pruning, rank
    counted from 1 per parent; EOS finishes rather than expands and carries
    its parent's accumulated penalty.

    Only each parent's top-k children (by one stable argsort of its row:
    step log-probability descending, token id ascending) enter the global
    sort, which is exact.  Siblings differ only in their last token, and a
    better-ranked sibling never has a lower step log-probability or a higher
    penalty, so its (search score, log-probability) is never lower.  A child
    ranked below k therefore has k siblings ahead of it, unless rounding
    makes its (search score, log-probability) equal the k-th sibling's and
    the token-id tie-break decides; such children are kept too.
    """
    k = params.beam_size
    live: list[_Hyp] = [_Hyp(tokens=(), logprob=0.0, penalty=0.0)]
    finished: list[_Hyp] = []

    def finish(hyp: _Hyp, eos_logprob: float) -> None:
        total = hyp.logprob + eos_logprob
        if total == NEG_INF:
            return
        if params.copy_filter is not None and params.copy_filter.discards(hyp.tokens):
            return
        finished.append(_Hyp(tokens=hyp.tokens, logprob=total, penalty=hyp.penalty))

    early_stop = params.scoring == "logprob"
    depth = 0
    while live and depth < params.max_len:
        expansions: list[_Hyp] = []
        for hyp in live:
            logprobs = model.next_token_logprobs(hyp.tokens, context)
            finish(hyp, float(logprobs[EOS_ID]))
            # Sibling rank: step log-probability descending, token id ascending.
            neg = -logprobs
            neg[BOS_ID] = neg[EOS_ID] = math.inf
            cutoff = None
            for rank, token in enumerate(map(int, np.argsort(neg, kind="stable")), start=1):
                step_lp = float(logprobs[token])
                if step_lp == NEG_INF:
                    break
                child = _Hyp(
                    tokens=hyp.tokens + (token,),
                    logprob=hyp.logprob + step_lp,
                    penalty=hyp.penalty + params.diverse_gamma * (rank - 1),
                )
                tie = (child.search_score(params.scoring), child.logprob)
                if rank == k:
                    cutoff = tie
                elif rank > k and tie != cutoff:
                    break
                expansions.append(child)
        expansions.sort(key=lambda h: _hyp_sort_key(h, params.scoring))
        live = expansions[:k]
        depth += 1
        if early_stop and len(finished) >= k and live:
            bar = sorted(h.search_score(params.scoring) for h in finished)[-k]
            # Strict comparison: a live hypothesis tying the bar could still
            # win the slot on tie-break after finishing.
            if max(h.search_score(params.scoring) for h in live) < bar:
                live = []
                break

    for hyp in live:  # force-termination at max_len
        logprobs = model.next_token_logprobs(hyp.tokens, context)
        finish(hyp, float(logprobs[EOS_ID]))

    finished.sort(key=lambda h: _hyp_sort_key(h, params.scoring))
    items = tuple(ScoredSequence(tokens=h.tokens, logprob=h.logprob) for h in finished[:k])
    return CandidateSet(items=items, provenance=f"beam({params})")


def check_sampling(strategy: str, top_k: int | None, top_p: float | None) -> None:
    """Raise ValueError unless the sampling strategy and its truncation setting can run."""
    if strategy not in SAMPLING_STRATEGIES:
        raise ValueError(f"strategy must be one of {SAMPLING_STRATEGIES}, got {strategy!r}")
    if strategy == "top_k" and (top_k is None or top_k < 1):
        raise ValueError(f"top_k sampling needs top_k >= 1, got {top_k}")
    if strategy == "nucleus" and (top_p is None or not 0.0 < top_p <= 1.0):
        raise ValueError(f"nucleus sampling needs top_p in (0,1], got {top_p}")


def sample_sequences(
    model: SequenceModel,
    context: Sequence | None = None,
    *,
    count: int,
    strategy: str = "ancestral",
    top_k: int | None = None,
    top_p: float | None = None,
    seed: int,
    max_len: int = 50,
) -> CandidateSet:
    """Draw ``count`` independent sequences with per-step truncation.

    ``top_k`` renormalizes over the k highest-probability next tokens,
    ``nucleus`` over the smallest probability-sorted prefix with cumulative
    mass >= top_p.  Ancestral sampling is the untruncated special case; all
    three share one code path, so top_k covering the full support and
    nucleus with top_p = 1 draw identically to ancestral under the same
    seed.  Duplicates are retained and the logprob field stores the
    untruncated model log-probability (EOS step included; sequences cut at
    ``max_len`` take the EOS log-probability at that point).

    Each step sorts the support by a stable argsort of the descending
    probabilities (ties keep the smaller id first) and walks one
    ``np.cumsum`` of them, which adds left to right like a running sum.  The
    nucleus cut and the draw are searches on that array, the total and
    truncated masses are ``math.fsum`` (exactly rounded), and each step uses
    one ``rng.random()``: the draws are those of a running-sum walk over the
    sorted support.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    check_sampling(strategy, top_k, top_p)
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")

    rng = np.random.default_rng(seed)
    draws: list[ScoredSequence] = []
    for _ in range(count):
        tokens: Sequence = ()
        logprob = 0.0
        for _ in range(max_len):
            lps = model.next_token_logprobs(tokens, context)
            probs = np.exp(lps)
            probs[BOS_ID] = 0.0
            support = np.flatnonzero(probs > 0.0)
            # Stable sort of the ascending ids: ties keep the smaller id first.
            support = support[np.argsort(-probs[support], kind="stable")]
            sorted_probs = probs[support]
            if strategy == "top_k":
                sorted_probs = sorted_probs[:top_k]
            cum = np.cumsum(sorted_probs)
            if strategy == "nucleus":
                target = min(top_p, math.fsum(sorted_probs.tolist()))
                cut = min(int(np.searchsorted(cum, target - 1e-12, side="left")) + 1, len(cum))
                sorted_probs = sorted_probs[:cut]
                cum = cum[:cut]
            mass = math.fsum(sorted_probs.tolist())
            u = rng.random() * mass
            pick = min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
            chosen = int(support[pick])
            logprob += float(lps[chosen])
            if chosen == EOS_ID:
                break
            tokens = tokens + (chosen,)
        else:
            logprob += float(model.next_token_logprobs(tokens, context)[EOS_ID])
        draws.append(ScoredSequence(tokens=tokens, logprob=logprob))

    draws.sort(key=lambda s: (-s.logprob, s.tokens))
    label = {"ancestral": "ancestral", "top_k": f"top_k({top_k})", "nucleus": f"nucleus({top_p})"}[strategy]
    return CandidateSet(
        items=tuple(draws),
        provenance=f"sample({label}, count={count}, seed={seed}, max_len={max_len})",
    )


def candidate_mass(candidates: CandidateSet) -> float:
    """Total model probability of a candidate set (duplicates counted once each)."""
    return math.fsum(math.exp(c.logprob) for c in candidates.items)


def with_copy_filter(params: BeamParams, source: Sequence, threshold: float) -> BeamParams:
    """Per-input variant of ``params`` with the copy filter bound to ``source``."""
    return replace(params, copy_filter=CopyFilter(source=tuple(source), threshold=threshold))
