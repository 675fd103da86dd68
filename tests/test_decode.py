import math
from collections import Counter
from dataclasses import replace

import pytest

from votedecode.decode import (
    DecodeSpec,
    beam_search,
    copy_overlap_rate,
    sample_sequences,
)
from votedecode.oracle import make_vote_split_model
from votedecode.sequences import tokenize

from conftest import model_from_texts, verify_logprobs


def texts(cands, vocab):
    from votedecode.sequences import detokenize

    return [detokenize(c.tokens, vocab) for c in cands.items]


class TestBeamSearch:
    def test_greedy_returns_most_likely(self, abd):
        model, vocab = abd
        cands = beam_search(model, None, DecodeSpec(beam_size=1, max_len=3))
        assert texts(cands, vocab) == ["a b"]

    def test_k2(self, abd):
        model, vocab = abd
        cands = beam_search(model, None, DecodeSpec(beam_size=2, max_len=3))
        assert texts(cands, vocab) == ["a b", "a c"]

    def test_k3_covers_support_in_probability_order(self, abd):
        model, vocab = abd
        cands = beam_search(model, None, DecodeSpec(beam_size=3, max_len=3))
        assert texts(cands, vocab) == ["a b", "a c", "d"]
        for cand, prob in zip(cands.items, (0.5, 0.3, 0.2)):
            assert math.exp(cand.logprob) == pytest.approx(prob, abs=1e-12)

    def test_fewer_than_k_when_support_small(self, abd):
        model, _ = abd
        cands = beam_search(model, None, DecodeSpec(beam_size=10, max_len=3))
        assert len(cands) == 3

    def test_reported_logprobs_are_true_model_logprobs(self, fixture5):
        model, _ = fixture5
        for spec in (
            DecodeSpec(beam_size=4, max_len=8),
            DecodeSpec(beam_size=4, max_len=8, scoring="length_normalized"),
            DecodeSpec(beam_size=4, max_len=8, diverse_gamma=0.7),
        ):
            assert verify_logprobs(model, beam_search(model, None, spec))

    def test_determinism(self, fixture5):
        model, _ = fixture5
        spec = DecodeSpec(beam_size=3, max_len=8)
        assert beam_search(model, None, spec) == beam_search(model, None, spec)

    def test_exact_on_enumerable_models(self):
        from votedecode.oracle import enumerate_distribution

        for seed in range(5):
            model = make_vote_split_model(seed)
            support = enumerate_distribution(model, model.max_len)
            cands = beam_search(model, None, DecodeSpec(beam_size=len(support.entries), max_len=model.max_len))
            assert cands.items == support.entries

    def test_coverage_mass_monotone_in_beam_size(self):
        for seed in range(8):
            model = make_vote_split_model(seed)
            masses = [
                math.fsum(
                    math.exp(c.logprob)
                    for c in beam_search(model, None, DecodeSpec(beam_size=k, max_len=model.max_len))
                )
                for k in (1, 2, 4, 8, 16)
            ]
            for lo, hi in zip(masses, masses[1:]):
                assert hi >= lo - 1e-12

    def test_max_len_force_termination(self, abd):
        model, vocab = abd
        # max_len=1 cuts "a b"/"a c" to prefix "a", which has no EOS mass,
        # so only "d" survives force-termination.
        cands = beam_search(model, None, DecodeSpec(beam_size=3, max_len=1))
        assert texts(cands, vocab) == ["d"]

    def test_a_live_hypothesis_tying_the_pool_is_not_cut(self):
        # After depth 1 the pool holds "a" and "b" at log 0.25 and live "a b" ties them.  It goes on to
        # "a b b", whose EOS step is log 1, finishes tied with "b" and takes the second slot on its
        # smaller tokens.  Stopping the search at the tie would return "b".
        model, vocab = model_from_texts([("a", 0.25), ("a b b", 0.25), ("b", 0.25), ("c", 0.25)])
        cands = beam_search(model, None, DecodeSpec(beam_size=2, max_len=4))
        assert texts(cands, vocab) == ["a", "a b b"]

    def test_length_normalized_prefers_longer(self):
        # Same log-mass, different lengths: normalization ranks the longer first.
        model, vocab = model_from_texts([("a", 0.25), ("b c d e", 0.25), ("f", 0.5)])[0:2]
        cands = beam_search(model, None, DecodeSpec(beam_size=3, max_len=6, scoring="length_normalized"))
        ranked = texts(cands, vocab)
        assert ranked.index("b c d e") < ranked.index("a")

    def test_diverse_gamma_penalizes_second_expansion(self, abd):
        model, vocab = abd
        # Huge gamma: the second-best sibling of "a" is pushed below "d".
        cands = beam_search(model, None, DecodeSpec(beam_size=2, max_len=3, diverse_gamma=50.0))
        assert texts(cands, vocab)[0] == "a b"

    def test_in_search_copy_filter(self, abd):
        model, vocab = abd
        source = tokenize("a b", vocab)
        cands = beam_search(model, source, DecodeSpec(beam_size=3, max_len=3, filter_copies=0.5))
        # "a b" copies 2/2, "a c" copies 1/2 >= 0.5; only "d" survives.
        assert texts(cands, vocab) == ["d"]


class TestFilterCopies:
    """The copy rule on its own, and the beam search that applies it to its context."""

    def _kept(self, entries, source_text, threshold=0.5):
        model, vocab = model_from_texts(entries)
        source = tokenize(source_text, vocab)
        spec = DecodeSpec(beam_size=len(entries), max_len=10, filter_copies=threshold)
        return texts(beam_search(model, source, spec), vocab), source, vocab

    def test_exact_copy_removed(self):
        kept, source, vocab = self._kept([("the cat sat", 0.6), ("a dog runs", 0.4)], "the cat sat")
        assert copy_overlap_rate(tokenize("the cat sat", vocab), source) == 1.0
        assert kept == ["a dog runs"]

    def test_partial_copy_removed(self):
        kept, source, vocab = self._kept([("the cat ran home", 0.6), ("a dog runs", 0.4)], "the cat sat")
        assert copy_overlap_rate(tokenize("the cat ran home", vocab), source) == 2 / 3  # >= 0.5
        assert kept == ["a dog runs"]

    def test_clean_candidate_kept(self):
        kept, source, vocab = self._kept([("a dog runs", 1.0)], "the cat sat")
        assert copy_overlap_rate(tokenize("a dog runs", vocab), source) == 0.0
        assert kept == ["a dog runs"]

    def test_empty_source_filters_nothing(self):
        # Threshold 0 would discard every hypothesis of a non-empty source.
        kept, source, vocab = self._kept([("a dog runs", 0.7), ("", 0.3)], "", threshold=0.0)
        assert source == () and copy_overlap_rate(tokenize("a dog runs", vocab), source) == 0.0
        assert kept == ["a dog runs", ""]
        kept, _, _ = self._kept([("a dog runs", 0.7), ("", 0.3)], "cat", threshold=0.0)
        assert kept == []

    def test_bad_threshold(self):
        for threshold in (1.5, -0.1):
            with pytest.raises(ValueError, match="filter_copies must be in"):
                DecodeSpec(filter_copies=threshold)


def sampled(model, seed, **fields):
    return sample_sequences(model, DecodeSpec(kind="sample", max_len=5, **fields), seed)


class TestSampling:
    def test_ancestral_matches_known_mass(self, abd):
        model, vocab = abd
        draws = sampled(model, 123, count=10_000, strategy="ancestral")
        freq = Counter(d.tokens for d in draws.items)
        ab = tokenize("a b", vocab)
        # 4 sigma around p=0.5 over 10k draws.
        assert freq[ab] / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_top_k_full_vocab_equals_ancestral(self, abd):
        model, vocab = abd
        base = sampled(model, 9, count=200, strategy="ancestral")
        topk = sampled(model, 9, count=200, strategy="top_k", top_k=vocab.num_ids)
        assert base.items == topk.items

    def test_nucleus_full_mass_equals_ancestral(self, abd):
        model, _ = abd
        base = sampled(model, 9, count=200, strategy="ancestral")
        nuc = sampled(model, 9, count=200, strategy="nucleus", top_p=1.0)
        assert base.items == nuc.items

    def test_top_k_1_is_greedy(self, abd):
        model, vocab = abd
        draws = sampled(model, 3, count=20, strategy="top_k", top_k=1)
        assert set(texts(draws, vocab)) == {"a b"}

    def test_determinism(self, abd):
        model, _ = abd
        a = sampled(model, 42, count=50, strategy="ancestral")
        b = sampled(model, 42, count=50, strategy="ancestral")
        assert a.items == b.items

    def test_logprobs_are_untruncated_model_logprobs(self, abd):
        model, _ = abd
        draws = sampled(model, 5, count=100, strategy="top_k", top_k=1)
        assert verify_logprobs(model, draws)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="count must be"):
            DecodeSpec(kind="sample", count=0, strategy="ancestral")
        with pytest.raises(ValueError, match="top_k sampling needs"):
            DecodeSpec(kind="sample", strategy="top_k", top_k=0)
        with pytest.raises(ValueError, match="nucleus sampling needs"):
            DecodeSpec(kind="sample", strategy="nucleus", top_p=0.0)
        with pytest.raises(ValueError, match="strategy must be one of"):
            DecodeSpec(kind="sample", strategy="gumbel")


class TestDecodeSpecValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            DecodeSpec(beam_size=0)
        with pytest.raises(ValueError):
            DecodeSpec(max_len=0)
        with pytest.raises(ValueError):
            DecodeSpec(scoring="other")
        with pytest.raises(ValueError):
            DecodeSpec(diverse_gamma=-0.1)
        for gamma in (math.inf, math.nan):  # a NaN penalty would misorder the beam
            with pytest.raises(ValueError, match="diverse_gamma must be finite and >= 0"):
                DecodeSpec(diverse_gamma=gamma)
        with pytest.raises(ValueError, match=r"decode kind must be beam\|sample"):
            DecodeSpec(kind="greedy")
        with pytest.raises(ValueError, match="count must be >= 1"):
            DecodeSpec(kind="sample", count=0)

    def test_sampling_settings_are_checked_for_the_sample_kind_only(self):
        with pytest.raises(ValueError, match="top_k sampling needs top_k >= 1"):
            DecodeSpec(kind="sample", strategy="top_k")
        with pytest.raises(ValueError, match="strategy must be one of"):
            DecodeSpec(kind="sample", strategy="gumbel")
        assert DecodeSpec(kind="beam", strategy="top_k").strategy == "top_k"

    def test_replace_checks_again(self):
        spec = DecodeSpec(beam_size=3, max_len=4)
        assert replace(spec, beam_size=5) == DecodeSpec(beam_size=5, max_len=4)
        with pytest.raises(ValueError, match="nucleus sampling needs top_p"):
            replace(spec, kind="sample", strategy="nucleus")
