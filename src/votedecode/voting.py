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
is the IEEE +, /, * and libm ``math.log``/``math.exp`` call a pairwise
computation of :class:`SimilaritySpec`'s definition makes for that pair (the
BLEU epilogue makes each call once per distinct argument, for the pairs with
no zero precision), so every score is equal bit for bit to the pairwise
reference in ``tests/conftest.py``.  A candidate's total is the ``math.fsum``
of its non-zero votes only: weights and similarities are finite and >= 0, so
every zero vote is +0.0, and an exactly rounded sum is the same with exact
zeros left out (``fsum([]) == 0.0``).

Only the live sequences are coded: a voter or candidate shorter than the
order its kind needs (``n`` for ``prec``/``overl``, ``max_n`` for ``bleu``, 1
for ``smoothed_bleu``) scores +0.0 against everyone by
:class:`SimilaritySpec`'s definitions.  Such a voter has no n-grams, and such
a candidate matches none, so ``prec``/``overl`` read 0 / size, and BLEU has a
zero precision at that order.  Every other pair's integer counts are its own,
whatever else is coded with it, so dropping the dead sequences changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .decode import CandidateSet, ScoredSequence, beam_search, sample_sequences
from .metrics import bleu_from_stats_array
from .models import NEG_INF
from .sequences import Sequence, gram_codes

# bench/tracing.py patches beam_search and sample_sequences by their names in
# this module, so both stay bound here although voters are searched by the harness.

SIMILARITY_KINDS = ("prec", "overl", "bleu", "smoothed_bleu", "embed_cosine")


@dataclass(frozen=True)
class SimilaritySpec:
    """Closed description of a similarity sim(v, c) in [0, 1] of voter v and candidate c.

    - ``prec`` (order ``n``): multiset precision of the voter's n-grams,
      the sum over grams g of min(count_v(g), count_c(g)) over the sum of
      count_v(g); 0 for a voter without n-grams.  Asymmetric: a candidate
      holding the voter and more keeps the full score.
    - ``overl`` (order ``n``): the same over n-gram sets,
      |set_n(v) & set_n(c)| / |set_n(v)|; 0 for a voter without n-grams.
    - ``bleu`` and ``smoothed_bleu`` (orders 1..``max_n``, default 4):
      sentence BLEU of hypothesis c against the single reference v, the
      geometric mean of the clipped n-gram precisions times the brevity
      penalty exp(1 - |v|/|c|) when c is shorter.  Any zero precision
      (an empty c included) gives 0; the smoothed kind first adds 1 to the
      matched and total counts of every n > 1.
    - ``embed_cosine``: the cosine of the two mean token vectors, rescaled
      from [-1, 1] to [0, 1].  A token without a vector counts as the zero
      vector, and an empty sequence or a zero-norm mean scores 0.

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


def _embedding(seq: Sequence, vectors: Mapping[int, np.ndarray]) -> tuple[np.ndarray, float] | None:
    """A sequence's mean token vector and its norm; None when the sequence is empty or the mean is zero."""
    if len(seq) == 0 or not vectors:
        return None
    dim = len(next(iter(vectors.values())))
    acc = np.zeros(dim)
    for token in seq:
        vec = vectors.get(token)
        if vec is not None:
            acc += np.asarray(vec, dtype=float)
    mean = acc / len(seq)
    norm = float(np.linalg.norm(mean))
    return None if norm == 0.0 else (mean, norm)


def _rescaled_cosine(a: tuple[np.ndarray, float] | None, b: tuple[np.ndarray, float] | None) -> float:
    if a is None or b is None:
        return 0.0
    cosine = float(np.dot(a[0], b[0])) / (a[1] * b[1])
    # Rounding can push the ratio a hair outside [-1, 1]; keep votes in range.
    cosine = min(1.0, max(-1.0, cosine))
    return (cosine + 1.0) / 2.0


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
    """BLEU of every candidate against every voter: all orders coded in one pass, then the table-driven epilogue."""
    hyp_len = np.array([len(c) for c in cands], dtype=np.int64)
    ref_len = np.array([len(v) for v in voters], dtype=np.int64)[:, None]
    matched = [
        _clipped_counts(rows, codes, len(voters), len(cands), binary=False)[0]
        for rows, codes in gram_codes([*voters, *cands], max_n)  # freed before the epilogue
    ]
    totals = [np.maximum(hyp_len - n + 1, 0) for n in range(1, max_n + 1)]
    return bleu_from_stats_array([hyp_len, ref_len, *matched, *totals], smoothed=smoothed)


def _similarity_matrix(voters: list[Sequence], cands: list[Sequence], spec: SimilaritySpec) -> np.ndarray:
    """sim[v, c] for every voter and candidate, equal bit for bit to the pairwise reference in ``tests/conftest.py``."""
    if spec.kind == "embed_cosine":
        if spec.vectors is None:
            raise ValueError("embed_cosine similarity needs a token vector table")
        # Each sequence's mean vector and norm once, then per pair one dot, division and clamp.
        voter_embeddings = [_embedding(v, spec.vectors) for v in voters]
        cand_embeddings = [_embedding(c, spec.vectors) for c in cands]
        return np.array([[_rescaled_cosine(a, b) for b in cand_embeddings] for a in voter_embeddings], dtype=np.float64)
    # A sequence shorter than the order its kind needs scores +0.0 with everyone: only the live sub-election is coded.
    need = {"prec": spec.n, "overl": spec.n, "bleu": spec.max_n}.get(spec.kind, 1)
    live_voters = [i for i, v in enumerate(voters) if len(v) >= need]
    live_cands = [j for j, c in enumerate(cands) if len(c) >= need]
    if len(live_voters) < len(voters) or len(live_cands) < len(cands):
        sims = np.zeros((len(voters), len(cands)))
        if live_voters and live_cands:
            live = _similarity_matrix([voters[i] for i in live_voters], [cands[j] for j in live_cands], spec)
            sims[np.ix_(live_voters, live_cands)] = live
        return sims
    if spec.kind in ("prec", "overl"):
        rows, codes = gram_codes([*voters, *cands], spec.n)[-1]
        matched, sizes = _clipped_counts(rows, codes, len(voters), len(cands), binary=spec.kind == "overl")
        # A voter without n-grams matches nothing: its row is 0 / 1 = 0.
        return matched / np.maximum(sizes, 1)[:, None]
    return _bleu_matrix(voters, cands, spec.max_n, smoothed=spec.kind == "smoothed_bleu")


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
    ``math.exp`` on the very arguments a per-pair loop does, adding its logs
    in the same order, and the products are unchanged.  Each candidate's
    fsum takes only its non-zero votes, in voter order: every zero vote is
    +0.0 (finite weights and similarities, all >= 0), and leaving exact
    zeros out of an exactly rounded sum does not change it.  Voters and
    candidates shorter than the order their n-gram kind needs (``n``,
    ``max_n`` for ``bleu``, 1 for ``smoothed_bleu``) score exactly +0.0
    against everyone, so they are left out of the kernel and their
    row or column stays +0.0; an election of such sequences alone runs no
    kernel at all.
    ``embed_cosine`` takes each sequence's mean vector and norm once and
    runs a per-pair dot, division and clamp.
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
    # Each candidate's non-zero votes in voter order, candidate after candidate; the zeros are +0.0.
    landed = per_voter.T != 0.0
    votes = per_voter.T[landed].tolist()
    ends = np.cumsum(np.count_nonzero(landed, axis=1)).tolist()
    shifted = [math.fsum(votes[start:end]) for start, end in zip([0, *ends], ends)]

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
