"""Range-voting selection over candidate sets.

Every voter sequence scores every candidate in [0, 1] through a similarity
measure, weighted by the voter's model probability; the candidate with the
highest total wins.  Weights are exp-shifted by the maximum voter
log-probability so the ranking survives underflow (the winner is invariant
under positive scaling of all weights); reported scores are rescaled back
to raw probability units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .decode import BeamParams, CandidateSet, ScoredSequence, beam_search, check_sampling, sample_sequences
from .models import NEG_INF, SequenceModel
from .sequences import Sequence, ngram_bag, ngram_set

SIMILARITY_KINDS = ("prec", "overl", "bleu", "smoothed_bleu", "embed_cosine")


@dataclass(frozen=True)
class SimilaritySpec:
    """Closed description of a similarity measure (kind plus parameters).

    ``vectors`` maps token ids to real vectors and is only consulted by the
    embed_cosine kind; it is excluded from equality and serialization
    (``vector_path`` records where it came from).
    """

    kind: str
    n: int | None = None
    max_n: int | None = None
    vector_path: str | None = None
    vectors: Mapping[int, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in SIMILARITY_KINDS:
            raise ValueError(f"unknown similarity kind {self.kind!r}; expected one of {SIMILARITY_KINDS}")
        if self.kind in ("prec", "overl"):
            if self.n is None or self.n < 1:
                raise ValueError(f"{self.kind} similarity needs n >= 1, got {self.n}")
        if self.kind in ("bleu", "smoothed_bleu"):
            if self.max_n is None:
                object.__setattr__(self, "max_n", 4)
            elif self.max_n < 1:
                raise ValueError(f"{self.kind} similarity needs max_n >= 1, got {self.max_n}")

    @property
    def name(self) -> str:
        if self.kind in ("prec", "overl"):
            return f"{self.kind}_{self.n}"
        return self.kind

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind in ("prec", "overl"):
            out["n"] = self.n
        if self.kind in ("bleu", "smoothed_bleu"):
            out["max_n"] = self.max_n
        if self.kind == "embed_cosine" and self.vector_path is not None:
            out["vectors"] = self.vector_path
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimilaritySpec":
        return cls(
            kind=data.get("kind", ""),
            n=data.get("n"),
            max_n=data.get("max_n"),
            vector_path=data.get("vectors"),
        )


def prec_sim(v: Sequence, c: Sequence, n: int) -> float:
    """Multiset n-gram precision of the voter against the candidate.

    |bag_n(v) & bag_n(c)| / |bag_n(v)| with per-gram minimum counts; 0 when
    the voter has no n-grams.  Asymmetric: a candidate containing the voter
    plus more keeps the full score.
    """
    bag_v = ngram_bag(v, n)
    denom = sum(bag_v.values())
    if denom == 0:
        return 0.0
    bag_c = ngram_bag(c, n)
    matched = sum(min(count, bag_c[g]) for g, count in bag_v.items() if g in bag_c)
    return matched / denom


def overl_sim(v: Sequence, c: Sequence, n: int) -> float:
    """Set-based n-gram overlap: |set_n(v) & set_n(c)| / |set_n(v)|."""
    set_v = ngram_set(v, n)
    if not set_v:
        return 0.0
    return len(set_v & ngram_set(c, n)) / len(set_v)


def bleu_sim(v: Sequence, c: Sequence, max_n: int = 4, smoothed: bool = False) -> float:
    """Sentence BLEU of hypothesis ``c`` against single reference ``v``.

    Geometric mean of clipped n-gram precisions for n = 1..max_n times the
    brevity penalty exp(1 - |v|/|c|) when the hypothesis is shorter.  The
    smoothed variant adds 1 to matched and total counts for every n > 1;
    without smoothing any zero precision zeroes the whole score.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if len(c) == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        bag_c = ngram_bag(c, n)
        bag_v = ngram_bag(v, n)
        total = sum(bag_c.values())
        matched = sum(min(count, bag_v[g]) for g, count in bag_c.items() if g in bag_v)
        if smoothed and n > 1:
            matched += 1
            total += 1
        if matched == 0 or total == 0:
            return 0.0
        log_sum += math.log(matched / total)
    score = math.exp(log_sum / max_n)
    if len(c) < len(v):
        score *= math.exp(1.0 - len(v) / len(c))
    return score


def embed_cosine_sim(v: Sequence, c: Sequence, vectors: Mapping[int, np.ndarray]) -> float:
    """Cosine of mean token vectors, affinely rescaled from [-1,1] to [0,1].

    Tokens without a vector fall back to the zero vector; a zero-norm mean
    on either side gives similarity 0.
    """
    mean_v = _mean_vector(v, vectors)
    mean_c = _mean_vector(c, vectors)
    if mean_v is None or mean_c is None:
        return 0.0
    norm_v = float(np.linalg.norm(mean_v))
    norm_c = float(np.linalg.norm(mean_c))
    if norm_v == 0.0 or norm_c == 0.0:
        return 0.0
    cosine = float(np.dot(mean_v, mean_c)) / (norm_v * norm_c)
    # Rounding can push the ratio a hair outside [-1, 1]; keep votes in range.
    cosine = min(1.0, max(-1.0, cosine))
    return (cosine + 1.0) / 2.0


def _mean_vector(seq: Sequence, vectors: Mapping[int, np.ndarray]) -> np.ndarray | None:
    if len(seq) == 0 or not vectors:
        return None
    dim = len(next(iter(vectors.values())))
    acc = np.zeros(dim)
    for token in seq:
        vec = vectors.get(token)
        if vec is not None:
            acc += np.asarray(vec, dtype=float)
    return acc / len(seq)


def make_similarity(spec: SimilaritySpec) -> Callable[[Sequence, Sequence], float]:
    """Resolve a spec to a callable, memoizing per-sequence n-gram structures."""
    if spec.kind == "prec":
        n = spec.n
        bags: dict[Sequence, dict] = {}

        def fn(v: Sequence, c: Sequence) -> float:
            bag_v = bags.get(v)
            if bag_v is None:
                bag_v = bags[v] = ngram_bag(v, n)
            bag_c = bags.get(c)
            if bag_c is None:
                bag_c = bags[c] = ngram_bag(c, n)
            denom = sum(bag_v.values())
            if denom == 0:
                return 0.0
            matched = sum(min(count, bag_c[g]) for g, count in bag_v.items() if g in bag_c)
            return matched / denom

        return fn
    if spec.kind == "overl":
        n = spec.n
        sets: dict[Sequence, frozenset] = {}

        def fn(v: Sequence, c: Sequence) -> float:
            set_v = sets.get(v)
            if set_v is None:
                set_v = sets[v] = ngram_set(v, n)
            set_c = sets.get(c)
            if set_c is None:
                set_c = sets[c] = ngram_set(c, n)
            if not set_v:
                return 0.0
            return len(set_v & set_c) / len(set_v)

        return fn
    if spec.kind in ("bleu", "smoothed_bleu"):
        max_n = spec.max_n
        smoothed = spec.kind == "smoothed_bleu"
        return lambda v, c: bleu_sim(v, c, max_n=max_n, smoothed=smoothed)
    if spec.vectors is None:
        raise ValueError("embed_cosine similarity needs a token vector table")
    vectors = spec.vectors
    return lambda v, c: embed_cosine_sim(v, c, vectors)


@dataclass(frozen=True)
class VoteResult:
    """Candidates ranked by total range-voting score.

    ``scores`` aligns with ``ranking`` and is in raw probability units
    (sum over voters of P(v) * sim(v, c)).  ``contributions``, when
    requested, holds one row per voter (in voter order) of that voter's
    raw contribution to each ranked candidate.
    """

    ranking: tuple[ScoredSequence, ...]
    scores: tuple[float, ...]
    contributions: tuple[tuple[float, ...], ...] | None = None

    @property
    def winner(self) -> ScoredSequence:
        return self.ranking[0]

    @property
    def winner_score(self) -> float:
        return self.scores[0]


def range_vote(
    candidates: CandidateSet,
    voters: CandidateSet,
    sim: SimilaritySpec,
    *,
    with_contributions: bool = False,
) -> VoteResult:
    """Rank candidates by total probability-weighted similarity to the voters.

    A sequence appearing in both sets votes for itself.  Accumulation runs
    in fixed voter order (with exact fsum rounding) for reproducibility.
    """
    if not candidates.items:
        raise ValueError("candidate set is empty")
    if not voters.items:
        raise ValueError("voter set is empty")
    fn = make_similarity(sim)
    max_lp = max(v.logprob for v in voters.items)
    if max_lp == NEG_INF:
        weights = [0.0] * len(voters.items)
        scale = 0.0
    else:
        weights = [math.exp(v.logprob - max_lp) for v in voters.items]
        scale = math.exp(max_lp)

    sims: list[list[float]] | None = [] if with_contributions else None
    shifted: list[float] = []
    for cand in candidates.items:
        per_voter = [w * fn(v.tokens, cand.tokens) for w, v in zip(weights, voters.items)]
        shifted.append(math.fsum(per_voter))
        if sims is not None:
            sims.append([scale * x for x in per_voter])

    # Rank on the shifted sums: they stay meaningful even when the raw
    # voter probabilities (and hence the reported scores) underflow to 0.
    order = sorted(
        range(len(candidates.items)),
        key=lambda i: (-shifted[i], -candidates.items[i].logprob, candidates.items[i].tokens),
    )
    ranking = tuple(candidates.items[i] for i in order)
    scores = tuple(scale * shifted[i] for i in order)
    contributions = None
    if sims is not None:
        contributions = tuple(tuple(sims[i][v] for i in order) for v in range(len(voters.items)))
    return VoteResult(ranking=ranking, scores=scores, contributions=contributions)


@dataclass(frozen=True)
class VoterSpec:
    """How to obtain the voter set: reuse the candidates, a wider beam, or samples."""

    kind: str = "same"
    beam_size: int | None = None
    count: int | None = None
    strategy: str = "ancestral"
    top_k: int | None = None
    top_p: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("same", "beam", "sample"):
            raise ValueError(f"voter kind must be same|beam|sample, got {self.kind!r}")
        if self.kind == "beam" and (self.beam_size is None or self.beam_size < 1):
            raise ValueError(f"beam voters need beam_size >= 1, got {self.beam_size}")
        if self.kind == "sample":
            if self.count is None or self.count < 1:
                raise ValueError(f"sampled voters need count >= 1, got {self.count}")
            if self.seed is None:
                raise ValueError("sampled voters need a seed")
            check_sampling(self.strategy, self.top_k, self.top_p)


def generate_voters(
    model: SequenceModel,
    context: Sequence | None,
    decode_params: BeamParams,
    voter_params: VoterSpec,
    candidates: CandidateSet,
) -> CandidateSet:
    """Materialize the voter set for ``voter_params``.

    Beam voters inherit the candidate decode settings (including any copy
    filter) with the beam size overridden; sampled voters inherit max_len.
    """
    if voter_params.kind == "same":
        return candidates
    if voter_params.kind == "beam":
        return beam_search(model, context, replace(decode_params, beam_size=voter_params.beam_size))
    return sample_sequences(
        model,
        context,
        count=voter_params.count,
        strategy=voter_params.strategy,
        top_k=voter_params.top_k,
        top_p=voter_params.top_p,
        seed=voter_params.seed,
        max_len=decode_params.max_len,
    )


def select_representative(
    model: SequenceModel,
    context: Sequence | None,
    decode_params: BeamParams,
    voter_params: VoterSpec,
    sim: SimilaritySpec,
    *,
    with_contributions: bool = False,
) -> tuple[ScoredSequence, VoteResult]:
    """Decode candidates, gather voters, and return the election winner with audit data."""
    candidates = beam_search(model, context, decode_params)
    if not candidates.items:
        raise ValueError("no candidates to vote on (empty beam after filtering)")
    voters = generate_voters(model, context, decode_params, voter_params, candidates)
    result = range_vote(candidates, voters, sim, with_contributions=with_contributions)
    return result.winner, result
