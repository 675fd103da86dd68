import math
import random

import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from votedecode.decode import copy_overlap_rate
from votedecode.metrics import (
    bleu_from_stats,
    bleu_stats,
    copy_rates,
    distinct_stats,
    evaluate_system,
    paired_bootstrap,
    sign_test,
)

from conftest import ngram_set
from test_elections import reference_corpus_bleu


def toks(text):
    return tuple(text.split())


def corpus_bleu(hyps, refs, max_n):
    """Corpus BLEU at ``max_n`` as the report computes it, checked bit for bit against the reference."""
    score = evaluate_system("sys", hyps, refs, max_n=max_n).bleu[-1]
    assert score == reference_corpus_bleu(hyps, refs, max_n)
    return score


# Short sequences over three words, so every n-gram order both matches and misses.
WORDS = st.lists(st.sampled_from("abc"), max_size=7).map(tuple)


class TestCorpusBleu:
    def test_identity_corpus(self):
        hyps = [toks("a b c d e"), toks("f g h i")]
        refs = [[h] for h in hyps]
        assert corpus_bleu(hyps, refs, max_n=4) == pytest.approx(1.0)

    def test_clipped_precision_hand_value(self):
        hyp = toks("the the the the the the the")
        ref = toks("the cat is on the mat")
        assert corpus_bleu([hyp], [[ref]], max_n=1) == pytest.approx(2 / 7, abs=1e-12)

    def test_one_segment_equals_sentence_bleu(self):
        hyp = toks("a b c d")
        refs = [toks("a b c e"), toks("a b")]
        assert corpus_bleu([hyp], [refs], max_n=4) == bleu_from_stats(bleu_stats(hyp, refs, max_n=4))

    def test_permutation_invariance(self):
        hyps = [toks("a b"), toks("c d e"), toks("f")]
        refs = [[toks("a b x")], [toks("c e")], [toks("f g")]]
        base = corpus_bleu(hyps, refs, max_n=2)
        rng = random.Random(4)
        for _ in range(5):
            order = list(range(3))
            rng.shuffle(order)
            assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order], max_n=2) == pytest.approx(base)

    def test_perfect_segment_never_decreases_score(self):
        # BP stays 1 before and after (hypotheses at least as long as refs).
        hyps = [toks("a b c x")]
        refs = [[toks("a b c")]]
        base = corpus_bleu(hyps, refs, max_n=2)
        extended = corpus_bleu(hyps + [toks("p q r")], refs + [[toks("p q r")]], max_n=2)
        assert extended >= base

    def test_multi_reference_clipping_uses_max(self):
        hyp = toks("a a")
        refs = [toks("a"), toks("a a a")]
        assert corpus_bleu([hyp], [refs], max_n=1) == pytest.approx(1.0)

    def test_brevity_penalty_closest_ref_tie_prefers_shorter(self):
        hyp = toks("a b c")  # refs of length 2 and 4 tie on |len-3|; r = 2 -> BP = 1
        refs = [toks("a b"), toks("a b c d")]
        assert corpus_bleu([hyp], [refs], max_n=1) == pytest.approx(3 / 3)

    def test_zero_precision_zeroes_score(self):
        assert corpus_bleu([toks("a b")], [[toks("c d")]], max_n=1) == 0.0
        # Hypotheses shorter than max_n: no 2-grams at all.
        assert corpus_bleu([toks("a")], [[toks("a")]], max_n=2) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            corpus_bleu([toks("a")], [], max_n=1)
        with pytest.raises(ValueError):
            corpus_bleu([], [], max_n=1)
        with pytest.raises(ValueError):
            corpus_bleu([toks("a")], [[]], max_n=1)


class TestDistinctStats:
    def test_hand_counts(self):
        stats = distinct_stats([toks("a b"), toks("a b"), toks("b c")])
        assert (
            stats.distinct_sequences,
            stats.distinct_unigrams,
            stats.distinct_bigrams,
            stats.avg_length,
        ) == (2, 3, 2, 2.0)

    def test_all_identical(self):
        stats = distinct_stats([toks("x y")] * 5)
        assert stats.distinct_sequences == 1

    def test_single_output(self):
        assert distinct_stats([toks("a b c d")]).avg_length == 4.0

    def test_order_invariance(self):
        outputs = [toks("a b"), toks("c"), toks("d e f")]
        assert distinct_stats(outputs) == distinct_stats(list(reversed(outputs)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distinct_stats([])


class TestCopyRates:
    def test_outputs_equal_sources(self):
        outs = [toks("a b"), toks("c")]
        assert copy_rates(outs, outs, 0.5) == (1.0, 1.0)

    def test_disjoint(self):
        assert copy_rates([toks("a b")], [toks("c d")], 0.5) == (0.0, 0.0)

    def test_hand_mixture(self):
        outputs = [
            toks("the cat sat"),        # exact copy
            toks("the cat ran home"),   # partial: 2/3 of source unigrams
            toks("a dog runs"),         # clean
            toks("nothing shared"),     # clean
        ]
        sources = [toks("the cat sat")] * 4
        assert copy_rates(outputs, sources, 0.5) == (0.25, 0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            copy_rates([toks("a")], [], 0.5)


# Up to three tokens over three words: empty and one-token sequences are common.
SHORT = st.lists(st.sampled_from("abc"), max_size=3).map(tuple)


def reference_overlap(out, src):
    """Share of the source's distinct unigrams in ``out``, from n-gram sets; 0 for an empty source."""
    src_set = ngram_set(src, 1)
    return len(ngram_set(out, 1) & src_set) / len(src_set) if src_set else 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(SHORT, SHORT), min_size=1, max_size=6), st.sampled_from([0.0, 0.5, 1.0]))
@example([((), ()), (("a",), ()), ((), ("a",)), (("a",), ("a", "b"))], 0.5)
def test_diversity_and_copy_rates_match_gram_sets(pairs, threshold):
    outputs, sources = [out for out, _ in pairs], [src for _, src in pairs]
    stats = distinct_stats(outputs)
    assert stats.distinct_unigrams == len(frozenset().union(*(ngram_set(out, 1) for out in outputs)))
    assert stats.distinct_bigrams == len(frozenset().union(*(ngram_set(out, 2) for out in outputs)))
    assert [copy_overlap_rate(out, src) for out, src in pairs] == [reference_overlap(out, src) for out, src in pairs]
    exact = [out == src for out, src in pairs]
    partial = [same or reference_overlap(out, src) >= threshold for same, (out, src) in zip(exact, pairs)]
    assert copy_rates(outputs, sources, threshold) == (sum(exact) / len(pairs), sum(partial) / len(pairs))


class TestSignTest:
    def test_pinned_value_106_73(self):
        assert sign_test(106, 73) == pytest.approx(0.0165, abs=0.0005)

    def test_pinned_value_69_44(self):
        assert sign_test(69, 44) == pytest.approx(0.0235, abs=0.0005)

    def test_symmetric_outcome_clamps_to_one(self):
        assert sign_test(5, 5) == 1.0

    def test_symmetry(self):
        for a, b in [(10, 3), (0, 7), (12, 12)]:
            assert sign_test(a, b) == sign_test(b, a)

    def test_matches_scipy_binomtest(self):
        for a, b in [(106, 73), (69, 44), (1, 9), (0, 4), (20, 20), (3, 2)]:
            want = min(1.0, scipy.stats.binomtest(min(a, b), a + b, 0.5).pvalue)
            assert sign_test(a, b) == pytest.approx(want, rel=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            sign_test(0, 0)
        with pytest.raises(ValueError):
            sign_test(-1, 2)


class TestPairedBootstrap:
    REFS = [[toks("a b c")], [toks("d e f")], [toks("g h")]]

    def test_identical_systems_give_one(self):
        hyps = [toks("a b c"), toks("d e"), toks("g h")]
        assert paired_bootstrap(hyps, list(hyps), self.REFS, n_bootstrap=200, seed=1) == 1.0

    def test_strict_dominance_gives_zero(self):
        # A matches every reference exactly; B matches nothing.  At max_n=2 every
        # resample gives A a positive corpus BLEU and B zero.  (At max_n=4 both
        # score 0, as the 2-3-token segments hold no 4-grams, and p is 1.)
        hyps_a = [r[0] for r in self.REFS]
        hyps_b = [toks("x y"), toks("x y"), toks("x y")]
        p = paired_bootstrap(hyps_a, hyps_b, self.REFS, max_n=2, n_bootstrap=300, seed=2)
        assert p == 0.0

    def test_same_seed_same_p(self):
        hyps_a = [toks("a b c"), toks("d e"), toks("g x")]
        hyps_b = [toks("a b"), toks("d e f"), toks("g h")]
        p1 = paired_bootstrap(hyps_a, hyps_b, self.REFS, n_bootstrap=150, seed=33)
        p2 = paired_bootstrap(hyps_a, hyps_b, self.REFS, n_bootstrap=150, seed=33)
        assert p1 == p2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_bootstrap([toks("a")], [], self.REFS, n_bootstrap=10, seed=0)


class TestEvaluateSystem:
    def test_row_with_sources(self):
        hyps = [toks("a b c")]
        refs = [[toks("a b c")]]
        row = evaluate_system("sys", hyps, refs, sources=[toks("z z")], max_n=2)
        assert row.bleu == (1.0, 1.0)
        assert row.exact_copy_rate == 0.0
        assert row.avg_length == 3.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(WORDS, st.lists(WORDS, min_size=1, max_size=3)), min_size=1, max_size=4))
    def test_each_bleu_order_is_the_corpus_bleu_of_that_order(self, segments):
        hyps = [hyp for hyp, _ in segments]
        refs = [ref_list for _, ref_list in segments]
        row = evaluate_system("sys", hyps, refs, max_n=4)
        assert row.bleu == tuple(corpus_bleu(hyps, refs, max_n=n) for n in range(1, 5))

    def test_row_without_sources(self):
        row = evaluate_system("sys", [toks("a")], [[toks("a")]], None, max_n=1)
        assert row.exact_copy_rate is None and row.partial_copy_rate is None
