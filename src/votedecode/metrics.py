"""Corpus metrics and statistical tests for comparing decoding systems."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence as TySequence

import numpy as np

from .decode import copy_overlap_rate
from .sequences import Sequence, ngram_bag, ngram_set


def bleu_stats(hyp: Sequence, refs: TySequence[Sequence], max_n: int = 4) -> tuple[int, ...]:
    """Integer sufficient statistics of one BLEU segment.

    ``(hyp_len, ref_len, matched_1..matched_max_n, total_1..total_max_n)``:
    ``ref_len`` is the closest reference length, ties broken toward the
    shorter reference; ``matched_n`` clips each hypothesis n-gram count at
    its maximum count in any one reference; ``total_n`` counts the
    hypothesis n-grams.  Statistics of several segments add up.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if not refs:
        raise ValueError("every segment needs at least one reference")
    ref_len = min((len(r) for r in refs), key=lambda L: (abs(L - len(hyp)), L))
    matched = []
    total = []
    for n in range(1, max_n + 1):
        bag_h = ngram_bag(hyp, n)
        clip: Counter = Counter()
        for ref in refs:
            bag_r = ngram_bag(ref, n)
            for g in bag_h:
                clip[g] = max(clip[g], bag_r.get(g, 0))
        matched.append(sum(min(count, clip[g]) for g, count in bag_h.items()))
        total.append(sum(bag_h.values()))
    return (len(hyp), ref_len, *matched, *total)


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


def corpus_bleu(hyps: TySequence[Sequence], refs: TySequence[TySequence[Sequence]], max_n: int = 4) -> float:
    """Corpus-level BLEU in [0, 1].

    Clipped n-gram matches are pooled over all segments (clipping against
    the maximum count across that segment's references) before taking the
    geometric mean of the n-gram precisions.  The brevity penalty uses the
    per-segment closest reference length, ties broken toward the shorter
    reference.  Any zero pooled precision gives a zero score.
    """
    return bleu_from_stats([sum(column) for column in zip(*_segment_stats(hyps, refs, max_n))])


def _segment_stats(hyps: TySequence[Sequence], refs: TySequence[TySequence[Sequence]], max_n: int) -> list[tuple[int, ...]]:
    """One :func:`bleu_stats` row per segment."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if len(hyps) != len(refs):
        raise ValueError(f"got {len(hyps)} hypotheses but {len(refs)} reference lists")
    if not hyps:
        raise ValueError("empty corpus")
    return [bleu_stats(hyp, ref_list, max_n) for hyp, ref_list in zip(hyps, refs)]


def sentence_bleu(hyp: Sequence, refs: TySequence[Sequence], max_n: int = 4) -> float:
    """One-segment corpus BLEU (handy for per-segment bootstrap metrics)."""
    return corpus_bleu([hyp], [refs], max_n=max_n)


@dataclass(frozen=True)
class DistinctStats:
    distinct_sequences: int
    distinct_unigrams: int
    distinct_bigrams: int
    avg_length: float


def distinct_stats(outputs: TySequence[Sequence]) -> DistinctStats:
    """Diversity counts pooled over a system's outputs, plus mean token length."""
    if not outputs:
        raise ValueError("need at least one output")
    unigrams: set = set()
    bigrams: set = set()
    for seq in outputs:
        unigrams |= ngram_set(seq, 1)
        bigrams |= ngram_set(seq, 2)
    return DistinctStats(
        distinct_sequences=len({tuple(s) for s in outputs}),
        distinct_unigrams=len(unigrams),
        distinct_bigrams=len(bigrams),
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
    exact = 0
    partial = 0
    for out, src in zip(outputs, sources):
        is_exact = tuple(out) == tuple(src)
        exact += is_exact
        partial += is_exact or copy_overlap_rate(out, src) >= threshold
    return exact / len(outputs), partial / len(outputs)


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


def paired_bootstrap(
    hyps_a: TySequence[Sequence],
    hyps_b: TySequence[Sequence],
    refs: TySequence[TySequence[Sequence]],
    *,
    metric: Callable[[TySequence[Sequence], TySequence[TySequence[Sequence]]], float] | None = None,
    max_n: int = 4,
    n_bootstrap: int = 1000,
    seed: int = 0,
) -> float:
    """Paired bootstrap p-value for system A beating system B.

    Segment indices are resampled with replacement ``n_bootstrap`` times;
    the p-value is the fraction of resamples where A's metric is <= B's.
    The default metric is corpus BLEU at ``max_n``.
    """
    if not (len(hyps_a) == len(hyps_b) == len(refs)):
        raise ValueError("hypothesis and reference lists must be aligned")
    if n_bootstrap < 1:
        raise ValueError(f"n_bootstrap must be >= 1, got {n_bootstrap}")
    rng = np.random.default_rng(seed)
    n = len(refs)
    losses = 0
    if metric is None:
        # Corpus BLEU of a resample is the epilogue of its summed segment
        # statistics, so each segment is counted once, not once per draw.
        stats_a = np.array(_segment_stats(hyps_a, refs, max_n), dtype=np.int64)
        stats_b = np.array(_segment_stats(hyps_b, refs, max_n), dtype=np.int64)
        for _ in range(n_bootstrap):
            idx = rng.integers(0, n, size=n)
            score_a = bleu_from_stats(stats_a[idx].sum(axis=0).tolist())
            score_b = bleu_from_stats(stats_b[idx].sum(axis=0).tolist())
            if score_a <= score_b:
                losses += 1
        return losses / n_bootstrap
    for _ in range(n_bootstrap):
        idx = rng.integers(0, n, size=n)
        sample_a = [hyps_a[i] for i in idx]
        sample_b = [hyps_b[i] for i in idx]
        sample_r = [refs[i] for i in idx]
        if metric(sample_a, sample_r) <= metric(sample_b, sample_r):
            losses += 1
    return losses / n_bootstrap


@dataclass(frozen=True)
class EvalRow:
    """One system's row of the evaluation report."""

    system: str
    bleu: tuple[float, ...]  # BLEU-1 .. BLEU-max_n
    avg_length: float
    distinct_sequences: int
    distinct_unigrams: int
    distinct_bigrams: int
    exact_copy_rate: float | None
    partial_copy_rate: float | None


def evaluate_system(
    system: str,
    hyps: TySequence[Sequence],
    refs: TySequence[TySequence[Sequence]],
    sources: TySequence[Sequence] | None = None,
    *,
    max_n: int = 4,
    copy_threshold: float = 0.5,
) -> EvalRow:
    """Compute the full report row for one system's outputs."""
    stats = distinct_stats(hyps)
    exact = partial = None
    if sources is not None:
        exact, partial = copy_rates(hyps, sources, threshold=copy_threshold)
    return EvalRow(
        system=system,
        bleu=tuple(corpus_bleu(hyps, refs, max_n=n) for n in range(1, max_n + 1)),
        avg_length=stats.avg_length,
        distinct_sequences=stats.distinct_sequences,
        distinct_unigrams=stats.distinct_unigrams,
        distinct_bigrams=stats.distinct_bigrams,
        exact_copy_rate=exact,
        partial_copy_rate=partial,
    )
