"""Candidate and voter generation: beam search, copy filtering, sampling.

Beam search keeps a finished pool separate from the live beam: hypotheses
that emit EOS stop consuming beam slots.  Reported log-probabilities are
always true model log-probabilities, whatever scoring mode or penalty was
used to rank the search.

Both searches read only the model's sparse rows (``next_token_row``): a
head of observed ids and one ``rest`` value that every other smoothed id
shares.  The model hands each row over presorted twice (see ``models``),
so neither search sorts: beam order is log-probability descending,
sampling order probability descending (two distinct log-probabilities can
round to one probability), both with ties by ascending id.  In either
order a row's support is the sorted head with the rest ids inserted as one
run of equal values, merged by id with the head values that tie with it.
One positional view, ``_Support``, reads both: position i is the i-th id
of the support, found inside the run by a search over the ids the run
skips, so a step costs O(head), not O(vocabulary).  A call keeps one view
per row; beam search walks positions 0, 1, ..., and sampling searches the
running sums for one.
Sampling draws the same numbers as a running sum over the whole sorted
support: the running sums of the head (added left to right, as
``np.cumsum`` does) continue into the run only when a draw or a nucleus
target passes them, seeded with the head's last partial sum.  The masses
are ``math.fsum`` of the head plus the run's value times its length,
written as an exact sum of power-of-two multiples (``r * m`` = the sum of
``ldexp(r, j)`` over the set bits j of m), so every total is exactly
rounded, as a sum over the whole support would be.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import NEG_INF, Row, SequenceModel
from .sequences import EOS_ID, NUM_RESERVED, UNK_ID, Sequence, ngram_set

SCORING_MODES = ("logprob", "length_normalized")
SAMPLING_STRATEGIES = ("ancestral", "top_k", "nucleus")


@dataclass(frozen=True)
class ScoredSequence:
    """A sequence together with its model log-probability."""

    tokens: Sequence
    logprob: float


@dataclass(frozen=True)
class DecodeSpec:
    """One search, beam or sampling: a decode entry of a run, or the search its voters run.

    Every field is checked at construction, so ``dataclasses.replace``
    re-checks a spec too.  A beam spec ignores the sampling fields and a
    sample spec the beam ones.  ``filter_copies`` discards hypotheses that
    reproduce at least that share of the source's distinct unigrams.
    """

    name: str = "decode"
    kind: str = "beam"  # beam | sample
    beam_size: int = 1
    max_len: int = 50
    scoring: str = "logprob"
    diverse_gamma: float = 0.0
    filter_copies: float | None = None
    count: int = 1
    strategy: str = "ancestral"
    top_k: int | None = None
    top_p: float | None = None

    def __post_init__(self):
        if self.kind not in ("beam", "sample"):
            raise ValueError(f"decode kind must be beam|sample, got {self.kind!r}")
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if self.scoring not in SCORING_MODES:
            raise ValueError(f"scoring must be one of {SCORING_MODES}, got {self.scoring!r}")
        if not 0 <= self.diverse_gamma < math.inf:  # inf * 0 would give the best sibling a NaN penalty
            raise ValueError(f"diverse_gamma must be finite and >= 0, got {self.diverse_gamma}")
        if self.filter_copies is not None and not 0.0 <= self.filter_copies <= 1.0:
            raise ValueError(f"filter_copies must be in [0,1], got {self.filter_copies}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.kind != "sample":
            return
        if self.strategy not in SAMPLING_STRATEGIES:
            raise ValueError(f"strategy must be one of {SAMPLING_STRATEGIES}, got {self.strategy!r}")
        if self.strategy == "top_k" and (self.top_k is None or self.top_k < 1):
            raise ValueError(f"top_k sampling needs top_k >= 1, got {self.top_k}")
        if self.strategy == "nucleus" and (self.top_p is None or not 0.0 < self.top_p <= 1.0):
            raise ValueError(f"nucleus sampling needs top_p in (0,1], got {self.top_p}")


@dataclass(frozen=True)
class CandidateSet:
    """Scored sequences sorted by descending search score.

    Search-generated sets contain no duplicate token lists; sampled sets may
    (samples are draws, not a set).
    """

    items: tuple[ScoredSequence, ...]

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


class _Hyp(NamedTuple):
    """A beam hypothesis ranked by its fields (see ``beam_search``); unique tokens keep ``penalty`` from deciding."""

    neg_score: float
    neg_logprob: float
    tokens: Sequence
    penalty: float

    @classmethod
    def of(cls, tokens: Sequence, logprob: float, penalty: float, scoring: str) -> _Hyp:
        # Length normalisation divides by the hypothesis length; the empty
        # hypothesis divides by 1 to stay scoreable.
        score = logprob if scoring == "logprob" else logprob / max(len(tokens), 1)
        return cls(-(score - penalty), -logprob, tokens, penalty)


def _logprob_of(row: Row, token: int) -> float:
    """The row's log-probability of an id it lists or of a smoothed id it leaves to ``rest``."""
    ids = row.ids
    i = int(np.searchsorted(ids, token))
    return float(row.logprobs[i]) if i < len(ids) and ids[i] == token else row.rest


class _Support:
    """One row's support in one order, addressed by position.

    ``order`` is (ids, logprobs, values, run value): the head sorted by
    value descending, ties by ascending id, and the value every rest id
    takes.  When ``has_rest``, the support is the head with a run of
    ``run_len`` copies of the run value at positions [lead, lead + run_len),
    holding, in id order, every rest id and the ``tied`` head ids whose value
    equals the run value; otherwise it is the head alone.  The head is kept
    as Python lists, whose ``accumulate`` and ``bisect`` add and search
    exactly as ``np.cumsum`` and ``np.searchsorted`` do.
    """

    def __init__(self, row: Row, order: tuple, has_rest: bool, num_ids: int):
        self.row = row
        ids, logprobs, values, self.value = order
        self.ids, self.logprobs, self.values = ids.tolist(), logprobs.tolist(), values.tolist()
        # Smoothed ids (EOS and the surface ids) the row leaves to ``rest``.
        listed = len(row.ids) - (UNK_ID in row.ids[:2].tolist())
        rest_count = num_ids - NUM_RESERVED + 1 - listed if has_rest else 0
        self.lead, self.tied = len(self.values), 0
        if rest_count:
            self.lead = bisect.bisect_left(self.values, -self.value, key=operator.neg)
            self.tied = bisect.bisect_right(self.values, -self.value, key=operator.neg) - self.lead
        self.run_len = self.tied + rest_count
        self.size = len(self.values) + rest_count
        self._gaps = None

    def token(self, pos: int) -> tuple[int, float]:
        """(id, log-probability) at a position of the support."""
        j = pos - self.lead
        if j < 0:
            return self.ids[pos], self.logprobs[pos]
        if j >= self.run_len:
            pos += self.tied - self.run_len
            return self.ids[pos], self.logprobs[pos]
        if self._gaps is None:
            # The run's ids are those of [EOS_ID, num_ids) outside ``excluded``.
            excluded = {UNK_ID, *self.row.ids.tolist()}.difference(self.ids[self.lead : self.lead + self.tied])
            self._gaps = [t - i - EOS_ID for i, t in enumerate(sorted(excluded))]
        token = EOS_ID + j + bisect.bisect_right(self._gaps, j)
        return token, _logprob_of(self.row, token)


def beam_search(model: SequenceModel, context: Sequence | None, spec: DecodeSpec) -> CandidateSet:
    """Return up to ``beam_size`` finished hypotheses.

    Hypotheses rank as ``_Hyp`` tuples, by field order: search score
    descending (penalty and length normalisation included), then
    log-probability descending, then token ids ascending.

    Hypotheses finish by emitting EOS or by force-termination at ``max_len``
    (which appends the EOS step's model log-probability, so the reported
    value is a true sequence probability).  Under logprob scoring the search
    stops early once the finished pool holds ``beam_size`` items and no live
    hypothesis can still beat the pool; per-step log-probabilities are <= 0
    so live scores only decrease.  Length-normalized scoring has no such
    bound and runs to ``max_len``.  The diverse-decoding penalty subtracts
    ``gamma * (sibling rank - 1)`` from each expansion before pruning, rank
    counted from 1 per parent; EOS finishes rather than expands and carries
    its parent's accumulated penalty.  ``filter_copies`` applies to a
    non-empty ``context`` only: an empty source has nothing to copy.

    Only each parent's top-k children (in sibling-rank order: the row's
    support walked by position in beam order, step log-probability
    descending, token id ascending, EOS skipped) enter the global sort,
    which is exact.  Siblings differ only in their last token, and a
    better-ranked sibling never has a lower step log-probability or a higher
    penalty, so its (search score, log-probability) is never lower.  A child
    ranked below k therefore has k siblings ahead of it, unless rounding
    makes its (search score, log-probability) equal the k-th sibling's and
    the token-id tie-break decides; such children are kept too.
    """
    k = spec.beam_size
    num_ids = model.vocab.num_ids
    views: dict[int, _Support] = {}  # by id(row); each view holds its row, so no id is reused
    live: list[_Hyp] = [_Hyp.of((), 0.0, 0.0, spec.scoring)]
    finished: list[_Hyp] = []  # in rank order

    def finish(hyp: _Hyp, eos_logprob: float) -> None:
        total = -hyp.neg_logprob + eos_logprob
        if total == NEG_INF:
            return
        if spec.filter_copies is not None and context and copy_overlap_rate(hyp.tokens, context) >= spec.filter_copies:
            return
        bisect.insort(finished, _Hyp.of(hyp.tokens, total, hyp.penalty, spec.scoring))

    early_stop = spec.scoring == "logprob"
    depth = 0
    while live and depth < spec.max_len:
        expansions: list[_Hyp] = []
        for hyp in live:
            row = model.next_token_row(hyp.tokens, context)
            finish(hyp, _logprob_of(row, EOS_ID))
            support = views.get(id(row))
            if support is None:
                beam_order = (*row.beam, row.beam[1], row.rest)
                support = views[id(row)] = _Support(row, beam_order, row.rest > NEG_INF, num_ids)
            cutoff = None
            rank = 0
            for pos in range(support.size):
                token, step_lp = support.token(pos)
                if token == EOS_ID:
                    continue
                if step_lp == NEG_INF:
                    break
                rank += 1
                penalty = hyp.penalty + spec.diverse_gamma * (rank - 1)
                child = _Hyp.of(hyp.tokens + (token,), -hyp.neg_logprob + step_lp, penalty, spec.scoring)
                if rank == k:
                    cutoff = child[:2]
                elif rank > k and child[:2] != cutoff:
                    break
                expansions.append(child)
        expansions.sort()
        live = expansions[:k]
        depth += 1
        # Strict comparison: a live hypothesis tying the k-th finished score
        # could still win the slot on tie-break after finishing.
        if early_stop and len(finished) >= k and live and live[0].neg_score > finished[k - 1].neg_score:
            live = []
            break

    for hyp in live:  # force-termination at max_len
        finish(hyp, _logprob_of(model.next_token_row(hyp.tokens, context), EOS_ID))

    items = tuple(ScoredSequence(tokens=h.tokens, logprob=-h.neg_logprob) for h in finished[:k])
    return CandidateSet(items=items)


class _SampleRow(_Support):
    """A row's support in sampling order (values are probabilities), with its truncation cut and truncated mass."""

    def __init__(self, row: Row, num_ids: int, spec: DecodeSpec):
        super().__init__(row, row.sample, row.sample[3] > 0.0, num_ids)
        self.cum = list(itertools.accumulate(self.values[: self.lead]))
        size = self.size
        if spec.strategy == "top_k":
            size = min(size, spec.top_k)
        self.cut = size
        if spec.strategy == "nucleus":
            target = min(spec.top_p, self.mass(size))
            self.cut = min(self.position(target - 1e-12, "left") + 1, size)
        self.total = self.mass(self.cut)

    def mass(self, size: int) -> float:
        """``math.fsum`` of the first ``size`` probabilities of the support."""
        lead, run_len = self.lead, self.run_len
        in_run = min(max(size - lead, 0), run_len)
        after = lead + self.tied
        parts = self.values[: min(size, lead)] + self.values[after : after + max(size - lead - run_len, 0)]
        # value * in_run exactly, as power-of-two multiples of value.
        parts += [math.ldexp(self.value, j) for j in range(in_run.bit_length()) if in_run >> j & 1]
        return math.fsum(parts)

    def position(self, x: float, side: str = "right") -> int:
        """``np.searchsorted(np.cumsum(support), x, side)``; the run is summed only when x passes the lead."""
        i = (bisect.bisect_right if side == "right" else bisect.bisect_left)(self.cum, x)
        if i < self.lead:
            return i
        tail = self.values[self.lead + self.tied :]
        sums = np.full(1 + self.run_len + len(tail), self.value)
        sums[0] = self.cum[-1] if self.lead else 0.0
        sums[1 + self.run_len :] = tail
        return self.lead + int(np.searchsorted(np.cumsum(sums, out=sums)[1:], x, side))

    def draw(self, u: float) -> tuple[int, float]:
        """The id a running-sum walk picks for a uniform draw ``u`` in [0, 1)."""
        return self.token(min(self.position(u * self.total), self.cut - 1))


def sample_sequences(model: SequenceModel, context: Sequence | None, spec: DecodeSpec, seed: int) -> CandidateSet:
    """Draw ``spec.count`` independent sequences with per-step truncation.

    ``top_k`` renormalizes over the k highest-probability next tokens,
    ``nucleus`` over the smallest probability-sorted prefix with cumulative
    mass >= top_p.  Ancestral sampling is the untruncated special case; all
    three share one code path, so top_k covering the full support and
    nucleus with top_p = 1 draw identically to ancestral under the same
    seed.  Duplicates are retained and the logprob field stores the
    untruncated model log-probability (EOS step included; sequences cut at
    ``max_len`` take the EOS log-probability at that point).

    Each step orders the support by probability descending, ties by
    ascending id, and walks a running sum of it (``np.cumsum``, which adds
    left to right).  The nucleus cut and the draw are searches on those
    sums, the total and truncated masses are ``math.fsum`` (exactly
    rounded), and each step uses one ``rng.random()``: the draws are those
    of a running-sum walk over the sorted support (see the module docstring).
    """
    rng = np.random.default_rng(seed)
    num_ids = model.vocab.num_ids
    views: dict[int, _SampleRow] = {}  # by id(row); each view holds its row, so no id is reused
    draws: list[ScoredSequence] = []
    for _ in range(spec.count):
        tokens: Sequence = ()
        logprob = 0.0
        for _ in range(spec.max_len):
            row = model.next_token_row(tokens, context)
            view = views.get(id(row))
            if view is None:
                view = views[id(row)] = _SampleRow(row, num_ids, spec)
            chosen, step_lp = view.draw(rng.random())
            logprob += step_lp
            if chosen == EOS_ID:
                break
            tokens = tokens + (chosen,)
        else:
            logprob += _logprob_of(model.next_token_row(tokens, context), EOS_ID)
        draws.append(ScoredSequence(tokens=tokens, logprob=logprob))

    draws.sort(key=lambda s: (-s.logprob, s.tokens))
    return CandidateSet(items=tuple(draws))
