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
from .metrics import bleu_from_stats, bleu_stats
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
    return bleu_from_stats(bleu_stats(c, (v,), max_n), smoothed=smoothed)


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
    """Resolve a spec to its scalar pairwise similarity function."""
    if spec.kind == "prec":
        return lambda v, c: prec_sim(v, c, spec.n)
    if spec.kind == "overl":
        return lambda v, c: overl_sim(v, c, spec.n)
    if spec.kind in ("bleu", "smoothed_bleu"):
        smoothed = spec.kind == "smoothed_bleu"
        return lambda v, c: bleu_sim(v, c, max_n=spec.max_n, smoothed=smoothed)
    if spec.vectors is None:
        raise ValueError("embed_cosine similarity needs a token vector table")
    vectors = spec.vectors
    return lambda v, c: embed_cosine_sim(v, c, vectors)


# Gram columns per dense block of the clipped-count kernel: a 0/1 block
# holds at most |voters| x _GRAM_BLOCK float32s, however many grams there are.
_GRAM_BLOCK = 256


def _clipped_counts(voters: list[Sequence], cands: list[Sequence], n: int, binary: bool) -> tuple[np.ndarray, np.ndarray]:
    """Exact integer n-gram matches of every voter against every candidate.

    Returns ``(M, sizes)``: M[v, c] = sum over n-grams g of
    min(count_v(g), count_c(g)) and sizes[v] = sum over g of count_v(g),
    where ``binary`` turns every count into 1 (the set form).  Only grams of
    some candidate get a column.  Since min(a, b) = sum_{k>=1} [a>=k][b>=k],
    M is the sum over count levels k of (V>=k)(C>=k)^T, taken over dense
    0/1 blocks of at most _GRAM_BLOCK gram columns.  Each block product is
    a sum of at most _GRAM_BLOCK ones, exact in float32.
    """
    index: dict = {}
    c_row, c_col, c_count = [], [], []
    for row, seq in enumerate(cands):
        bag = ngram_bag(seq, n)
        c_row += [row] * len(bag)
        c_col += [index.setdefault(gram, len(index)) for gram in bag]
        c_count += [1] * len(bag) if binary else bag.values()
    v_row, v_col, v_count, sizes = [], [], [], []
    for row, seq in enumerate(voters):
        bag = ngram_bag(seq, n)
        v_row += [row] * len(bag)
        v_col += [index.get(gram, -1) for gram in bag]  # -1: no candidate has it
        v_count += [1] * len(bag) if binary else bag.values()
        sizes.append(len(bag) if binary else sum(bag.values()))
    c_row, c_col, c_count = (np.array(x, dtype=np.int64) for x in (c_row, c_col, c_count))
    v_row, v_col, v_count = (np.array(x, dtype=np.int64) for x in (v_row, v_col, v_count))
    matched = np.zeros((len(voters), len(cands)), dtype=np.int64)
    for start in range(0, len(index), _GRAM_BLOCK):
        width = min(_GRAM_BLOCK, len(index) - start)
        c_in = (c_col >= start) & (c_col < start + width)
        v_in = (v_col >= start) & (v_col < start + width)
        for k in range(1, int(c_count[c_in].max()) + 1):
            c_level = _level_block(c_row, c_col - start, c_in & (c_count >= k), (len(cands), width))
            v_level = _level_block(v_row, v_col - start, v_in & (v_count >= k), (len(voters), width))
            matched += (v_level @ c_level.T).astype(np.int64)
    return matched, np.array(sizes, dtype=np.int64)


def _level_block(rows: np.ndarray, cols: np.ndarray, keep: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    block = np.zeros(shape, dtype=np.float32)
    block[rows[keep], cols[keep]] = 1.0
    return block


def _bleu_matrix(voters: list[Sequence], cands: list[Sequence], max_n: int, smoothed: bool) -> np.ndarray:
    """bleu_sim(v, c) for every pair, one epilogue per distinct statistics key."""
    # Lengths and match counts fit int32; the narrower keys keep the sort's copies small.
    keys = np.empty((len(voters), len(cands), 2 + max_n), dtype=np.int32)
    keys[:, :, 0] = [len(c) for c in cands]
    keys[:, :, 1] = np.array([len(v) for v in voters])[:, None]
    for n in range(1, max_n + 1):
        keys[:, :, 1 + n] = _clipped_counts(voters, cands, n, binary=False)[0]
    keys = keys.reshape(-1, 2 + max_n)
    # Group equal key rows: a lexsort is much cheaper than np.unique(axis=0),
    # which sorts the rows as opaque byte strings.
    order = np.lexsort(keys.T)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    values = []
    for hyp_len, ref_len, *matched in keys[first].tolist():
        totals = [max(hyp_len - n + 1, 0) for n in range(1, max_n + 1)]
        values.append(bleu_from_stats((hyp_len, ref_len, *matched, *totals), smoothed=smoothed))
    out = np.empty(len(keys))
    out[order] = np.array(values)[np.cumsum(first) - 1]
    return out.reshape(len(voters), len(cands))


def _similarity_matrix(voters: list[Sequence], cands: list[Sequence], spec: SimilaritySpec) -> np.ndarray:
    """sim[v, c] for every voter and candidate, equal bit for bit to ``make_similarity(spec)(v, c)``."""
    if spec.kind in ("prec", "overl"):
        matched, sizes = _clipped_counts(voters, cands, spec.n, binary=spec.kind == "overl")
        # A voter without n-grams matches nothing: its row is 0 / 1 = 0.
        return matched / np.maximum(sizes, 1)[:, None]
    if spec.kind in ("bleu", "smoothed_bleu"):
        return _bleu_matrix(voters, cands, spec.max_n, smoothed=spec.kind == "smoothed_bleu")
    fn = make_similarity(spec)
    return np.array([[fn(v, c) for c in cands] for v in voters], dtype=np.float64)


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

    The n-gram kinds share one exact integer kernel: every sequence's
    n-grams are counted once per election, and the clipped matches
    M[v, c] = sum over grams g of min(count_v(g), count_c(g)) of all pairs
    come from products of 0/1 count-level matrices.  ``prec`` and ``overl``
    divide M by the voter's n-gram count; the BLEU kinds run the scalar
    BLEU epilogue once per distinct (|c|, |v|, M_1..M_max_n).  Every score
    is bit-identical to summing ``w_v * sim(v, c)`` pair by pair: the counts
    are exact integers, an int/int quotient is correctly rounded in numpy
    as in Python, the epilogue makes the same ``math.log``/``math.exp``
    calls, and the products and fsums are unchanged.  ``embed_cosine``
    calls its scalar similarity pair by pair.
    """
    if not candidates.items:
        raise ValueError("candidate set is empty")
    if not voters.items:
        raise ValueError("voter set is empty")
    sims = _similarity_matrix([v.tokens for v in voters.items], [c.tokens for c in candidates.items], sim)
    max_lp = max(v.logprob for v in voters.items)
    if max_lp == NEG_INF:
        weights = [0.0] * len(voters.items)
        scale = 0.0
    else:
        weights = [math.exp(v.logprob - max_lp) for v in voters.items]
        scale = math.exp(max_lp)
    per_voter = np.array(weights)[:, None] * sims
    shifted = [math.fsum(column) for column in per_voter.T.tolist()]

    # Rank on the shifted sums: they stay meaningful even when the raw
    # voter probabilities (and hence the reported scores) underflow to 0.
    order = sorted(
        range(len(candidates.items)),
        key=lambda i: (-shifted[i], -candidates.items[i].logprob, candidates.items[i].tokens),
    )
    ranking = tuple(candidates.items[i] for i in order)
    scores = tuple(scale * shifted[i] for i in order)
    contributions = None
    if with_contributions:
        contributions = tuple(map(tuple, (scale * per_voter[:, order]).tolist()))
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

