"""Corpus metrics and statistical tests for comparing decoding systems."""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Callable, NamedTuple, Sequence as TySequence

import numpy as np

from .decode import copy_overlap_rate
from .sequences import Sequence


def bleu_stats(hyp: Sequence, refs: TySequence[Sequence], max_n: int = 4) -> tuple[int, ...]:
    """Integer sufficient statistics of one BLEU segment.

    ``(hyp_len, ref_len, matched_1..matched_max_n, total_1..total_max_n)``:
    ``ref_len`` is the closest reference length, ties broken toward the
    shorter reference; ``matched_n`` clips each hypothesis n-gram count at
    its maximum count in any one reference; ``total_n`` counts the
    hypothesis n-grams.  Statistics of several segments add up: corpus BLEU
    (Papineni et al. 2002) is :func:`bleu_from_stats` of their sum, clipped
    matches pooled over segments, each segment's ``ref_len`` its own
    closest length, and 0 for any zero pooled precision.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if not refs:
        raise ValueError("every segment needs at least one reference")
    ref_len = min((len(r) for r in refs), key=lambda L: (abs(L - len(hyp)), L))
    matched = []
    for n in range(1, max_n + 1):
        bag, *ref_bags = (Counter(zip(*(seq[i:] for i in range(n)))) for seq in (hyp, *refs))
        matched.append(sum(min(count, max(ref_bag[g] for ref_bag in ref_bags)) for g, count in bag.items()))
    return (len(hyp), ref_len, *matched, *(max(len(hyp) - n + 1, 0) for n in range(1, max_n + 1)))


def bleu_from_stats(stats: TySequence[int], smoothed: bool = False) -> float:
    """BLEU in [0, 1] from (summed) :func:`bleu_stats`.

    Geometric mean of the n-gram precisions times the brevity penalty
    exp(1 - ref_len/hyp_len) when the hypothesis is shorter.  Any zero
    precision gives 0; ``smoothed`` first adds 1 to matched and total
    counts for every n > 1.
    """
    max_n = (len(stats) - 2) // 2
    hyp_len, ref_len = stats[0], stats[1]
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matched = stats[1 + n]
        total = stats[1 + max_n + n]
        if smoothed and n > 1:
            matched += 1
            total += 1
        if matched == 0 or total == 0:
            return 0.0
        log_sum += math.log(matched / total)
    score = math.exp(log_sum / max_n)
    if hyp_len < ref_len:
        score *= math.exp(1.0 - ref_len / hyp_len)
    return score


def bleu_from_stats_array(stats: TySequence[np.ndarray], smoothed: bool = False) -> np.ndarray:
    """:func:`bleu_from_stats` of many segments at once, equal bit for bit.

    ``stats`` holds the 2 + 2 * max_n statistics in :func:`bleu_stats`
    order, as integer arrays that broadcast together.  The live segments,
    those with no zero precision at any order, are found from the integer
    counts first; every libm lookup runs over them alone, and every other
    segment scores 0.0, as the scalar loop returns.  Each libm call of the
    loop runs once per distinct argument: log(m/t) per distinct (matched,
    total) of an order, exp per distinct log_sum / max_n, the brevity
    penalty per distinct (ref_len, hyp_len).  A live segment was live at
    every order, so its logs add in order n = 1..max_n from 0.0 with the
    loop's IEEE +, /, *.
    """
    shape = np.broadcast_shapes(*map(np.shape, stats))
    # 0-d statistics run as one segment: numpy refuses nonzero() on a 0-d array.
    hyp_len, ref_len, *counts = (np.broadcast_to(np.asarray(s, dtype=np.int64), shape or (1,)) for s in stats)
    max_n = len(counts) // 2
    bumps = [int(smoothed and n > 1) for n in range(1, max_n + 1)]
    live = np.ones(hyp_len.shape, dtype=bool)  # no zero precision at any order
    for bump, matched, total in zip(bumps, counts, counts[max_n:]):
        live &= (matched != -bump) & (total != -bump)
    at = live.nonzero()
    log_sum = np.zeros(len(at[0]))
    for bump, matched, total in zip(bumps, counts, counts[max_n:]):
        log_sum += _per_distinct(lambda m, t: math.log((m + bump) / (t + bump)), matched[at], total[at])
    live_score = _per_distinct(lambda s: math.exp(s / max_n), log_sum)
    hyp, ref = hyp_len[at], ref_len[at]
    short = hyp < ref
    live_score[short] *= _per_distinct(lambda r, h: math.exp(1.0 - r / h), ref[short], hyp[short])
    score = np.zeros(hyp_len.shape)
    score[at] = live_score
    return score.reshape(shape)


def _per_distinct(fn: Callable[..., float], first: np.ndarray, second: np.ndarray | None = None) -> np.ndarray:
    """``fn(x)`` of every float, or ``fn(x, y)`` of every pair of non-negative ints, once per distinct argument.

    Pairs pack into the key ``x * width + y``.  When the key range is at most
    the number of pairs, a presence table over the range flags the distinct
    keys, ``fn`` runs once per flagged key, and one gather ``table[key]``
    spreads the results, with no sort; the tables then take no more memory
    than the pairs.  Wider keys, and floats (ranked by their bits so that
    the integer sort kernel serves every table), go through ``np.unique``.
    """
    if second is None:
        keys, inverse = np.unique(first.view(np.int64), return_inverse=True)
        return np.array([fn(x) for x in keys.view(np.float64).tolist()], dtype=np.float64)[inverse]
    width = int(second.max(initial=0)) + 1
    packed = first * width + second
    span = int(packed.max(initial=-1)) + 1

    def values(keys: np.ndarray) -> np.ndarray:
        return np.array([fn(*arg) for arg in zip(*(part.tolist() for part in np.divmod(keys, width)))], dtype=np.float64)

    if span > packed.size:  # wide keys: a table would outgrow the pairs
        keys, inverse = np.unique(packed, return_inverse=True)
        return values(keys)[inverse]
    present = np.zeros(span, dtype=bool)
    present[packed] = True
    keys = np.flatnonzero(present)
    table = np.zeros(span)
    table[keys] = values(keys)
    return table[packed]


def _segment_stats(hyps: TySequence[Sequence], refs: TySequence[TySequence[Sequence]], max_n: int) -> list[tuple[int, ...]]:
    """One :func:`bleu_stats` row per segment."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if len(hyps) != len(refs):
        raise ValueError(f"got {len(hyps)} hypotheses but {len(refs)} reference lists")
    if not hyps:
        raise ValueError("empty corpus")
    return [bleu_stats(hyp, ref_list, max_n) for hyp, ref_list in zip(hyps, refs)]


class DistinctStats(NamedTuple):
    """Diversity counts of a system's outputs and their mean token length.

    A NamedTuple: it equals the plain tuple of its fields, it unpacks, and ``_replace`` derives a copy.
    """

    distinct_sequences: int
    distinct_unigrams: int
    distinct_bigrams: int
    avg_length: float


def distinct_stats(outputs: TySequence[Sequence]) -> DistinctStats:
    """Diversity counts pooled over a system's outputs, plus mean token length."""
    if not outputs:
        raise ValueError("need at least one output")
    return DistinctStats(
        distinct_sequences=len({tuple(s) for s in outputs}),
        distinct_unigrams=len(set(chain.from_iterable(outputs))),
        distinct_bigrams=len(set(chain.from_iterable(zip(s, s[1:]) for s in outputs))),
        avg_length=sum(len(s) for s in outputs) / len(outputs),
    )


def copy_rates(outputs: TySequence[Sequence], sources: TySequence[Sequence], threshold: float = 0.5) -> tuple[float, float]:
    """Fractions of outputs that are exact and partial copies of their sources.

    A partial copy reproduces at least ``threshold`` of the source's
    distinct unigrams; exact copies always count as partial.
    """
    if len(outputs) != len(sources):
        raise ValueError(f"got {len(outputs)} outputs but {len(sources)} sources")
    if not outputs:
        raise ValueError("need at least one output")
    exact = [tuple(out) == tuple(src) for out, src in zip(outputs, sources)]
    partial = sum(is_exact or copy_overlap_rate(o, s) >= threshold for is_exact, o, s in zip(exact, outputs, sources))
    return sum(exact) / len(outputs), partial / len(outputs)


def sign_test(wins_a: int, wins_b: int) -> float:
    """Two-tailed exact sign test p-value, ties discarded by the caller.

    p = 2 * P(X <= min(wins_a, wins_b)) for X ~ Binomial(n, 1/2) over
    n = wins_a + wins_b trials, clamped to 1.
    """
    if wins_a < 0 or wins_b < 0:
        raise ValueError("win counts must be non-negative")
    n = wins_a + wins_b
    if n == 0:
        raise ValueError("need at least one non-tied comparison")
    m = min(wins_a, wins_b)
    tail = sum(math.comb(n, i) for i in range(m + 1))
    return min(1.0, 2 * tail / 2**n)


# Segment indices drawn per stacked block of bootstrap resamples (about 8 MB of int64).
_BOOTSTRAP_DRAWS = 2**20


def paired_bootstrap(
    hyps_a: TySequence[Sequence],
    hyps_b: TySequence[Sequence],
    refs: TySequence[TySequence[Sequence]],
    *,
    max_n: int = 4,
    n_bootstrap: int = 1000,
    seed: int = 0,
) -> float:
    """Paired bootstrap p-value for system A beating system B.

    Segment indices are resampled with replacement ``n_bootstrap`` times;
    the p-value is the fraction of resamples where A's corpus BLEU at
    ``max_n`` is <= B's.  A resample's BLEU is the epilogue of its summed
    segment statistics.  Each block of resamples is drawn with one
    ``rng.integers`` call of shape (resamples, segments): the bit generator
    keeps the spare half of a 64-bit draw between calls, so that is the
    same stream, resample by resample, as one call per resample.
    """
    if not (len(hyps_a) == len(hyps_b) == len(refs)):
        raise ValueError("hypothesis and reference lists must be aligned")
    if n_bootstrap < 1:
        raise ValueError(f"n_bootstrap must be >= 1, got {n_bootstrap}")
    rng = np.random.default_rng(seed)
    n = len(refs)
    losses = 0
    stats_a = np.array(_segment_stats(hyps_a, refs, max_n), dtype=np.int64)
    stats_b = np.array(_segment_stats(hyps_b, refs, max_n), dtype=np.int64)
    # counts[b, i] is how often resample b drew segment i; _BOOTSTRAP_DRAWS segment draws per block.
    step = max(1, _BOOTSTRAP_DRAWS // n)
    for start in range(0, n_bootstrap, step):
        draws = rng.integers(0, n, size=(min(step, n_bootstrap - start), n))
        counts = np.bincount((draws + n * np.arange(len(draws))[:, None]).ravel(), minlength=draws.size)
        counts = counts.reshape(draws.shape)
        lost = bleu_from_stats_array((counts @ stats_a).T) <= bleu_from_stats_array((counts @ stats_b).T)
        losses += int(np.count_nonzero(lost))
    return losses / n_bootstrap


class EvalRow(NamedTuple):
    """One system's row of the evaluation report.

    A NamedTuple: it equals the plain tuple of its fields, it unpacks, and ``_replace`` derives a copy.
    """

    system: str
    bleu: tuple[float, ...]  # BLEU-1 .. BLEU-max_n
    avg_length: float
    distinct_sequences: int
    distinct_unigrams: int
    distinct_bigrams: int
    exact_copy_rate: float | None
    partial_copy_rate: float | None


def check_copy_threshold(threshold: float) -> None:
    """Reject a copy threshold outside [0, 1], NaN included: it is compared with overlap rates, which lie in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"copy_threshold must be in [0,1], got {threshold}")


def evaluate_system(
    system: str,
    hyps: TySequence[Sequence],
    refs: TySequence[TySequence[Sequence]],
    sources: TySequence[Sequence] | None = None,
    *,
    max_n: int = 4,
    copy_threshold: float = 0.5,
) -> EvalRow:
    """Compute the full report row for one system's outputs; BLEU-n reads orders 1..n of one statistics pass.

    BLEU-n is corpus BLEU: clipped matches pooled over segments, each segment's closest reference length (ties
    to the shorter), and 0 for any zero pooled precision.
    """
    check_copy_threshold(copy_threshold)
    hyp_len, ref_len, *counts = map(sum, zip(*_segment_stats(hyps, refs, max_n)))
    matched, total = counts[:max_n], counts[max_n:]
    bleu = tuple(bleu_from_stats((hyp_len, ref_len, *matched[:n], *total[:n])) for n in range(1, max_n + 1))
    stats = distinct_stats(hyps)
    exact = partial = None
    if sources is not None:
        exact, partial = copy_rates(hyps, sources, threshold=copy_threshold)
    return EvalRow(
        system=system,
        bleu=bleu,
        avg_length=stats.avg_length,
        distinct_sequences=stats.distinct_sequences,
        distinct_unigrams=stats.distinct_unigrams,
        distinct_bigrams=stats.distinct_bigrams,
        exact_copy_rate=exact,
        partial_copy_rate=partial,
    )
