"""The bulk n-gram election and the BLEU sufficient statistics against pairwise references.

``reference_vote`` is the pairwise election: one scalar similarity call per
(voter, candidate) pair, weighted and summed with ``math.fsum`` in voter
order.  ``reference_bleu_sim`` and ``reference_corpus_bleu`` recount every
n-gram bag for every call.  The fast paths must agree with them exactly:
scores and contributions are compared with ``==``, not approximately.
"""

import math
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votedecode import metrics, voting
from votedecode.decode import CandidateSet, ScoredSequence
from votedecode.metrics import bleu_from_stats, bleu_from_stats_array, bleu_stats, corpus_bleu, paired_bootstrap
from votedecode.models import NEG_INF
from votedecode.sequences import ngram_bag
from votedecode.voting import SimilaritySpec, bleu_sim, overl_sim, prec_sim, range_vote

# --- reference algorithms ----------------------------------------------------


def reference_bleu_sim(v, c, max_n=4, smoothed=False):
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


def reference_corpus_bleu(hyps, refs, max_n=4):
    matched = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    hyp_len = 0
    ref_len = 0
    for hyp, ref_list in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += min((len(r) for r in ref_list), key=lambda L: (abs(L - len(hyp)), L))
        for n in range(1, max_n + 1):
            bag_h = ngram_bag(hyp, n)
            clip = Counter()
            for ref in ref_list:
                bag_r = ngram_bag(ref, n)
                for g in bag_h:
                    clip[g] = max(clip[g], bag_r.get(g, 0))
            matched[n] += sum(min(count, clip[g]) for g, count in bag_h.items())
            total[n] += sum(bag_h.values())
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if matched[n] == 0 or total[n] == 0:
            return 0.0
        log_sum += math.log(matched[n] / total[n])
    score = math.exp(log_sum / max_n)
    if hyp_len < ref_len:
        score *= math.exp(1.0 - ref_len / hyp_len)
    return score


def scalar_sim(spec):
    if spec.kind == "prec":
        return lambda v, c: prec_sim(v, c, spec.n)
    if spec.kind == "overl":
        return lambda v, c: overl_sim(v, c, spec.n)
    return lambda v, c: reference_bleu_sim(v, c, spec.max_n, smoothed=spec.kind == "smoothed_bleu")


def reference_vote(candidates, voters, spec):
    """(ranking, scores, contributions) of the pairwise election."""
    fn = scalar_sim(spec)
    max_lp = max(v.logprob for v in voters.items)
    if max_lp == NEG_INF:
        weights = [0.0] * len(voters.items)
        scale = 0.0
    else:
        weights = [math.exp(v.logprob - max_lp) for v in voters.items]
        scale = math.exp(max_lp)
    per_cand = [[w * fn(v.tokens, c.tokens) for w, v in zip(weights, voters.items)] for c in candidates.items]
    shifted = [math.fsum(row) for row in per_cand]
    order = sorted(
        range(len(candidates.items)),
        key=lambda i: (-shifted[i], -candidates.items[i].logprob, candidates.items[i].tokens),
    )
    ranking = tuple(candidates.items[i] for i in order)
    scores = tuple(scale * shifted[i] for i in order)
    contributions = tuple(
        tuple(scale * per_cand[i][v] for i in order) for v in range(len(voters.items))
    )
    return ranking, scores, contributions


# --- strategies ----------------------------------------------------------------

# A three-token alphabet makes repeated tokens and shared higher-order
# n-grams common; lengths 0..9 cover empty sequences and ones shorter than n.
tokens = st.lists(st.integers(min_value=3, max_value=5), max_size=9).map(tuple)
logprobs = st.one_of(st.floats(min_value=-60.0, max_value=0.0), st.just(NEG_INF))
scored = st.builds(ScoredSequence, tokens=tokens, logprob=logprobs)


# Wide ids from a small pool: grams still repeat, and sequences up to 40
# tokens give enough distinct grams that columns span several gram blocks.
wide_tokens = st.lists(st.sampled_from([3, 7, 10**6, 10**6 + 1, 2**40, 2**62]), max_size=40).map(tuple)
wide_scored = st.builds(ScoredSequence, tokens=wide_tokens, logprob=logprobs)


@st.composite
def elections(draw, scored=scored):
    cands = draw(st.lists(scored, min_size=1, max_size=6))
    voters = draw(st.lists(scored, min_size=1, max_size=8))
    # Duplicate voters, and candidates that also vote.
    voters += draw(st.lists(st.sampled_from(voters + cands), max_size=4))
    return CandidateSet(items=tuple(cands)), CandidateSet(items=tuple(voters))


NGRAM_SPECS = [
    *(SimilaritySpec(kind=kind, n=n) for kind in ("prec", "overl") for n in (1, 2, 3)),
    SimilaritySpec(kind="bleu", max_n=4),
    SimilaritySpec(kind="bleu", max_n=2),
    SimilaritySpec(kind="smoothed_bleu", max_n=4),
]

# --- elections -------------------------------------------------------------------


class TestBulkElection:
    @settings(max_examples=150, deadline=None)
    @given(elections(), st.sampled_from(NGRAM_SPECS), st.sampled_from([1, 3, voting._GRAM_BLOCK]))
    def test_matches_pairwise_reference(self, election, spec, block):
        cands, voters = election
        # Tiny gram blocks split the kernel's columns over many blocks.
        with patch.object(voting, "_GRAM_BLOCK", block):
            result = range_vote(cands, voters, spec, with_contributions=True)
        ranking, scores, contributions = reference_vote(cands, voters, spec)
        assert result.ranking == ranking
        assert result.scores == scores
        assert result.contributions == contributions

    @settings(max_examples=80, deadline=None)
    @given(elections(wide_scored), st.sampled_from(NGRAM_SPECS), st.sampled_from([1, 4, voting._GRAM_BLOCK]))
    def test_wide_ids_and_long_sequences(self, election, spec, block):
        cands, voters = election
        with patch.object(voting, "_GRAM_BLOCK", block):
            result = range_vote(cands, voters, spec, with_contributions=True)
        assert (result.ranking, result.scores, result.contributions) == reference_vote(cands, voters, spec)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tokens, min_size=1, max_size=5), st.lists(tokens, min_size=1, max_size=5), st.sampled_from(NGRAM_SPECS))
    def test_similarity_matrix_is_the_scalar_similarity(self, voters, cands, spec):
        fn = scalar_sim(spec)
        matrix = voting._similarity_matrix(voters, cands, spec)
        assert matrix.tolist() == [[fn(v, c) for c in cands] for v in voters]

    def test_all_minus_infinity_voters(self):
        item = ScoredSequence(tokens=(3, 4), logprob=NEG_INF)
        cands = CandidateSet(items=(ScoredSequence(tokens=(3,), logprob=-1.0), item))
        voters = CandidateSet(items=(item, item))
        result = range_vote(cands, voters, SimilaritySpec(kind="prec", n=1), with_contributions=True)
        ranking, scores, contributions = reference_vote(cands, voters, SimilaritySpec(kind="prec", n=1))
        assert (result.ranking, result.scores, result.contributions) == (ranking, scores, contributions)
        assert result.scores == (0.0, 0.0)


# --- BLEU statistics ----------------------------------------------------------------

refs_lists = st.lists(tokens, min_size=1, max_size=3).map(tuple)


@st.composite
def bleu_stat_rows(draw):
    """Rows of one max_n (1..4): real segment statistics, summed ones, and hand-made edge rows.

    Edge rows hold zero matches, zero totals, hyp_len 0 (with zero totals,
    as every real row has) and hypotheses shorter than the reference.
    """
    max_n = draw(st.integers(min_value=1, max_value=4))
    counts = st.integers(min_value=0, max_value=12)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        kind = draw(st.sampled_from(["segment", "edge", "summed"]))
        if kind == "edge":
            hyp_len = draw(counts)
            matched = draw(st.lists(counts, min_size=max_n, max_size=max_n))
            totals = [0] * max_n if hyp_len == 0 else draw(st.lists(counts, min_size=max_n, max_size=max_n))
            rows.append((hyp_len, draw(counts), *matched, *totals))
        else:
            segments = draw(st.lists(st.tuples(tokens, refs_lists), min_size=1, max_size=1 if kind == "segment" else 5))
            rows.append(tuple(map(sum, zip(*(bleu_stats(h, r, max_n) for h, r in segments)))))
    return rows


class TestBleuStatistics:
    @settings(max_examples=200, deadline=None)
    @given(tokens, tokens, st.integers(min_value=1, max_value=4), st.booleans())
    def test_sentence_bleu_bit_for_bit(self, v, c, max_n, smoothed):
        want = reference_bleu_sim(v, c, max_n, smoothed)
        assert bleu_sim(v, c, max_n=max_n, smoothed=smoothed) == want
        assert bleu_from_stats(bleu_stats(c, [v], max_n), smoothed=smoothed) == want

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(tokens, refs_lists), min_size=1, max_size=6), st.integers(min_value=1, max_value=4))
    def test_corpus_bleu_bit_for_bit(self, segments, max_n):
        hyps = [h for h, _ in segments]
        refs = [r for _, r in segments]
        assert corpus_bleu(hyps, refs, max_n=max_n) == reference_corpus_bleu(hyps, refs, max_n)

    @settings(max_examples=150, deadline=None)
    @given(bleu_stat_rows(), st.booleans())
    def test_array_epilogue_bit_for_bit(self, rows, smoothed):
        want = [bleu_from_stats(row, smoothed=smoothed) for row in rows]
        got = bleu_from_stats_array(np.array(rows, dtype=np.int64).T, smoothed=smoothed)
        assert got.dtype == np.float64
        assert got.tolist() == want

    def test_array_epilogue_broadcasts_its_statistics(self):
        # Rows: a brevity penalty, none.  Columns: all matched, a zero match, hyp_len 0 with zero totals.
        hyp_len, ref_len = np.array([3, 3, 0]), np.array([[4], [2]])
        matched, totals = [np.array([2, 2, 0]), np.array([1, 0, 0])], [np.array([3, 3, 0]), np.array([2, 2, 0])]
        got = bleu_from_stats_array([hyp_len, ref_len, *matched, *totals])
        assert got.shape == (2, 3)
        want = [[bleu_from_stats((h, r, m1, m2, t1, t2)) for h, m1, m2, t1, t2 in zip(hyp_len, *matched, *totals)]
                for r in (4, 2)]
        assert got.tolist() == want
        assert want[0][0] < want[1][0] and want[0][1] == want[0][2] == 0.0

    def test_stats_layout(self):
        # hyp_len, closest ref_len (tie -> shorter), matched_1..2, total_1..2
        assert bleu_stats((3, 3, 4), [(3, 4, 4, 5), (3, 3)], max_n=2) == (3, 2, 3, 2, 3, 2)

    def test_stats_errors(self):
        with pytest.raises(ValueError, match="max_n"):
            bleu_stats((3,), [(3,)], max_n=0)
        with pytest.raises(ValueError, match="at least one reference"):
            bleu_stats((3,), [], max_n=1)


class TestBootstrapFastPath:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(tokens, tokens, refs_lists), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_generic_loop(self, segments, max_n, seed):
        hyps_a = [a for a, _, _ in segments]
        hyps_b = [b for _, b, _ in segments]
        refs = [r for _, _, r in segments]
        fast = paired_bootstrap(hyps_a, hyps_b, refs, max_n=max_n, n_bootstrap=40, seed=seed)
        for metric in (lambda h, r: corpus_bleu(h, r, max_n), lambda h, r: reference_corpus_bleu(h, r, max_n)):
            assert paired_bootstrap(hyps_a, hyps_b, refs, metric=metric, n_bootstrap=40, seed=seed) == fast

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(tokens, tokens, refs_lists), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=12),
    )
    def test_resample_blocks_do_not_change_the_p_value(self, segments, draws):
        hyps_a, hyps_b, refs = ([segment[i] for segment in segments] for i in range(3))
        whole = paired_bootstrap(hyps_a, hyps_b, refs, n_bootstrap=25, seed=5)
        assert type(whole) is float  # printed by `eval --compare`, so no numpy scalar
        # Blocks of one resample and more; the RNG stream is drawn in the same order either way.
        with patch.object(metrics, "_BOOTSTRAP_DRAWS", draws):
            assert paired_bootstrap(hyps_a, hyps_b, refs, n_bootstrap=25, seed=5) == whole

    def test_errors_match_corpus_bleu(self):
        with pytest.raises(ValueError, match="empty corpus"):
            paired_bootstrap([], [], [], n_bootstrap=5)
        with pytest.raises(ValueError, match="at least one reference"):
            paired_bootstrap([(3,)], [(3,)], [[]], n_bootstrap=5)
        with pytest.raises(ValueError, match="max_n"):
            paired_bootstrap([(3,)], [(3,)], [[(3,)]], max_n=0, n_bootstrap=5)
