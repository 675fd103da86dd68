"""Range-voting selection over candidate sets.

Every voter sequence scores every candidate in [0, 1] through a similarity
measure, weighted by the voter's model probability; the candidate with the
highest total wins.  Weights are exp-shifted by the maximum voter
log-probability so the ranking survives underflow (the winner is invariant
under positive scaling of all weights); reported scores are rescaled back
to raw probability units.

The n-gram elections are exact, not approximate: voters and candidates are
coded together as integer n-grams (``sequences.gram_codes``), their
clipped matches are integer counts, and every float step after the counts
is the IEEE +, /, * and libm ``math.log``/``math.exp`` call the scalar
similarity makes for that pair (the BLEU epilogue makes each call once per
distinct argument), so every score equals the pairwise route bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .decode import CandidateSet, ScoredSequence, beam_search, sample_sequences
from .metrics import bleu_from_stats, bleu_from_stats_array, bleu_stats
from .models import NEG_INF
from .sequences import Sequence, gram_codes, ngram_bag, ngram_set

# bench/tracing.py patches beam_search and sample_sequences by their names in
# this module, so both stay bound here although voters are searched by the harness.

SIMILARITY_KINDS = ("prec", "overl", "bleu", "smoothed_bleu", "embed_cosine")


@dataclass(frozen=True)
class SimilaritySpec:
    """Closed description of a similarity measure (kind plus parameters).

    ``vectors`` maps token ids to real vectors and is only consulted by the
    embed_cosine kind; it is excluded from equality (``vector_path``
    records where it came from).
    """

    kind: str
    n: int | None = None
    max_n: int | None = None
    vector_path: str | None = None
    vectors: Mapping[int, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in SIMILARITY_KINDS:
            raise ValueError(f"unknown similarity kind {self.kind!r}; expected one of {SIMILARITY_KINDS}")
        if self.vector_path is not None and not isinstance(self.vector_path, str):
            raise ValueError(f"vectors must be a file path, got {self.vector_path!r}")
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
# holds at most (|voters| + |candidates|) x _GRAM_BLOCK float32s, however many grams there are.
_GRAM_BLOCK = 256


def _clipped_counts(
    rows: np.ndarray, codes: np.ndarray, num_voters: int, num_cands: int, binary: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Exact integer n-gram matches of every voter against every candidate.

    ``rows``/``codes`` are one order of :func:`gram_codes` over the voters,
    then the candidates (row num_voters + j is candidate j).  Returns ``(M,
    sizes)``: M[v, c] = sum over grams g of min(count_v(g), count_c(g)) and
    sizes[v] = sum over g of count_v(g); ``binary`` turns every count into 1
    (the set form).  Only grams of some candidate get a column.  Since
    min(a, b) = sum_{k>=1} [a>=k][b>=k], M sums (V>=k)(C>=k)^T over count
    levels k and dense 0/1 blocks of at most _GRAM_BLOCK columns, each
    product a sum of at most _GRAM_BLOCK ones, exact in float32.
    """
    width = int(codes.max(initial=0)) + 1
    # Counts from the inverse, not return_counts, which would page in a second numpy sort kernel.
    keys, inverse = np.unique(rows * width + codes, return_inverse=True)
    counts = np.bincount(inverse)
    key_rows, key_codes = np.divmod(keys, width)
    is_voter = key_rows < num_voters
    sizes = np.bincount(key_rows[is_voter] if binary else rows[rows < num_voters], minlength=num_voters)
    if binary:
        counts[:] = 1
    # Candidate grams get columns in code order; voter grams no candidate has get none.  A flag
    # array, not np.unique: without return_inverse, numpy 2 imports numpy.ma on its first call.
    has_column = np.zeros(width, dtype=bool)
    has_column[key_codes[~is_voter]] = True
    keep = has_column[key_codes]
    key_rows, counts = key_rows[keep], counts[keep]
    cols = (np.cumsum(has_column) - 1)[key_codes[keep]]
    num_columns = int(np.count_nonzero(has_column))
    matched = np.zeros((num_voters, num_cands), dtype=np.int64)
    for start in range(0, num_columns, _GRAM_BLOCK):
        span = min(_GRAM_BLOCK, num_columns - start)
        in_block = (cols >= start) & (cols < start + span)
        for k in range(1, int(counts[in_block & (key_rows >= num_voters)].max()) + 1):
            level = in_block & (counts >= k)
            block = np.zeros((num_voters + num_cands, span), dtype=np.float32)
            block[key_rows[level], cols[level] - start] = 1.0
            matched += (block[:num_voters] @ block[num_voters:].T).astype(np.int64)
    return matched, sizes


def _bleu_matrix(voters: list[Sequence], cands: list[Sequence], max_n: int, smoothed: bool) -> np.ndarray:
    """bleu_sim(v, c) for every pair: all orders coded in one pass, then the table-driven epilogue."""
    hyp_len = np.array([len(c) for c in cands], dtype=np.int64)
    ref_len = np.array([len(v) for v in voters], dtype=np.int64)[:, None]
    matched = [
        _clipped_counts(rows, codes, len(voters), len(cands), binary=False)[0]
        for rows, codes in gram_codes([*voters, *cands], max_n)  # freed before the epilogue
    ]
    totals = [np.maximum(hyp_len - n + 1, 0) for n in range(1, max_n + 1)]
    return bleu_from_stats_array([hyp_len, ref_len, *matched, *totals], smoothed=smoothed)


def _similarity_matrix(voters: list[Sequence], cands: list[Sequence], spec: SimilaritySpec) -> np.ndarray:
    """sim[v, c] for every voter and candidate, equal bit for bit to ``make_similarity(spec)(v, c)``."""
    if spec.kind in ("prec", "overl"):
        rows, codes = gram_codes([*voters, *cands], spec.n)[-1]
        matched, sizes = _clipped_counts(rows, codes, len(voters), len(cands), binary=spec.kind == "overl")
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

    The n-gram kinds code voters and candidates once per election and take
    every pair's clipped matches M_n[v, c] from integer count-level block
    products.  ``prec``/``overl`` divide M by the voter's gram count; the
    BLEU kinds run a table epilogue over the integer (|c|, |v|, M_n, total_n)
    statistics.  Every score is bit-identical to ``w_v * sim(v, c)`` pair by
    pair: the counts are exact integers, an int/int quotient is correctly
    rounded in numpy as in Python, the epilogue calls libm ``math.log`` and
    ``math.exp`` on the very arguments the scalar loop does, adding its logs
    in the same order, and the products and fsums are unchanged.
    ``embed_cosine`` calls its scalar similarity pair by pair.
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
