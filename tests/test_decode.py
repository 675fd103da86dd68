import math
from collections import Counter

import pytest

from votedecode.decode import (
    BeamParams,
    CopyFilter,
    beam_search,
    candidate_mass,
    sample_sequences,
    with_copy_filter,
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
        cands = beam_search(model, None, BeamParams(beam_size=1, max_len=3))
        assert texts(cands, vocab) == ["a b"]

    def test_k2(self, abd):
        model, vocab = abd
        cands = beam_search(model, None, BeamParams(beam_size=2, max_len=3))
        assert texts(cands, vocab) == ["a b", "a c"]

    def test_k3_covers_support_in_probability_order(self, abd):
        model, vocab = abd
        cands = beam_search(model, None, BeamParams(beam_size=3, max_len=3))
        assert texts(cands, vocab) == ["a b", "a c", "d"]
        for cand, prob in zip(cands.items, (0.5, 0.3, 0.2)):
            assert math.exp(cand.logprob) == pytest.approx(prob, abs=1e-12)

    def test_fewer_than_k_when_support_small(self, abd):
        model, _ = abd
        cands = beam_search(model, None, BeamParams(beam_size=10, max_len=3))
        assert len(cands) == 3

    def test_reported_logprobs_are_true_model_logprobs(self, fixture5):
        model, _ = fixture5
        for params in (
            BeamParams(beam_size=4, max_len=8),
            BeamParams(beam_size=4, max_len=8, scoring="length_normalized"),
            BeamParams(beam_size=4, max_len=8, diverse_gamma=0.7),
        ):
            assert verify_logprobs(model, beam_search(model, None, params))

    def test_determinism(self, fixture5):
        model, _ = fixture5
        params = BeamParams(beam_size=3, max_len=8)
        assert beam_search(model, None, params) == beam_search(model, None, params)

    def test_exact_on_enumerable_models(self):
        from votedecode.oracle import enumerate_distribution

        for seed in range(5):
            model = make_vote_split_model(seed)
            support = enumerate_distribution(model, model.max_len)
            cands = beam_search(model, None, BeamParams(beam_size=len(support.entries), max_len=model.max_len))
            assert cands.items == support.entries

    def test_coverage_mass_monotone_in_beam_size(self):
        for seed in range(8):
            model = make_vote_split_model(seed)
            masses = [
                candidate_mass(beam_search(model, None, BeamParams(beam_size=k, max_len=model.max_len)))
                for k in (1, 2, 4, 8, 16)
            ]
            for lo, hi in zip(masses, masses[1:]):
                assert hi >= lo - 1e-12

    def test_max_len_force_termination(self, abd):
        model, vocab = abd
        # max_len=1 cuts "a b"/"a c" to prefix "a", which has no EOS mass,
        # so only "d" survives force-termination.
        cands = beam_search(model, None, BeamParams(beam_size=3, max_len=1))
        assert texts(cands, vocab) == ["d"]

    def test_length_normalized_prefers_longer(self):
        # Same log-mass, different lengths: normalization ranks the longer first.
        model, vocab = model_from_texts([("a", 0.25), ("b c d e", 0.25), ("f", 0.5)])[0:2]
        cands = beam_search(model, None, BeamParams(beam_size=3, max_len=6, scoring="length_normalized"))
        ranked = texts(cands, vocab)
        assert ranked.index("b c d e") < ranked.index("a")

    def test_diverse_gamma_penalizes_second_expansion(self, abd):
        model, vocab = abd
        # Huge gamma: the second-best sibling of "a" is pushed below "d".
        cands = beam_search(model, None, BeamParams(beam_size=2, max_len=3, diverse_gamma=50.0))
        assert texts(cands, vocab)[0] == "a b"

    def test_in_search_copy_filter(self, abd):
        model, vocab = abd
        source = tokenize("a b", vocab)
        params = with_copy_filter(BeamParams(beam_size=3, max_len=3), source, 0.5)
        cands = beam_search(model, None, params)
        # "a b" copies 2/2, "a c" copies 1/2 >= 0.5; only "d" survives.
        assert texts(cands, vocab) == ["d"]


class TestFilterCopies:
    """The copy rule on its own, and the beam search that applies it."""

    def _kept(self, entries, source_text, threshold=0.5):
        model, vocab = model_from_texts(entries)
        source = tokenize(source_text, vocab)
        params = with_copy_filter(BeamParams(beam_size=len(entries), max_len=10), source, threshold)
        return texts(beam_search(model, None, params), vocab), CopyFilter(source, threshold), vocab

    def test_exact_copy_removed(self):
        kept, rule, vocab = self._kept([("the cat sat", 0.6), ("a dog runs", 0.4)], "the cat sat")
        assert rule.discards(tokenize("the cat sat", vocab))
        assert kept == ["a dog runs"]

    def test_partial_copy_removed(self):
        kept, rule, vocab = self._kept([("the cat ran home", 0.6), ("a dog runs", 0.4)], "the cat sat")
        assert rule.discards(tokenize("the cat ran home", vocab))  # overlap 2/3 >= 0.5
        assert kept == ["a dog runs"]

    def test_clean_candidate_kept(self):
        kept, rule, vocab = self._kept([("a dog runs", 1.0)], "the cat sat")
        assert not rule.discards(tokenize("a dog runs", vocab))
        assert kept == ["a dog runs"]

    def test_empty_source_filters_nothing(self):
        kept, rule, vocab = self._kept([("a dog runs", 0.7), ("", 0.3)], "", threshold=0.0)
        assert not rule.discards(tokenize("a dog runs", vocab)) and not rule.discards(())
        assert kept == ["a dog runs", ""]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            CopyFilter((), 1.5)


class TestSampling:
    def test_ancestral_matches_known_mass(self, abd):
        model, vocab = abd
        draws = sample_sequences(model, count=10_000, strategy="ancestral", seed=123, max_len=5)
        freq = Counter(d.tokens for d in draws.items)
        ab = tokenize("a b", vocab)
        # 4 sigma around p=0.5 over 10k draws.
        assert freq[ab] / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_top_k_full_vocab_equals_ancestral(self, abd):
        model, vocab = abd
        base = sample_sequences(model, count=200, strategy="ancestral", seed=9, max_len=5)
        topk = sample_sequences(model, count=200, strategy="top_k", top_k=vocab.num_ids, seed=9, max_len=5)
        assert base.items == topk.items

    def test_nucleus_full_mass_equals_ancestral(self, abd):
        model, _ = abd
        base = sample_sequences(model, count=200, strategy="ancestral", seed=9, max_len=5)
        nuc = sample_sequences(model, count=200, strategy="nucleus", top_p=1.0, seed=9, max_len=5)
        assert base.items == nuc.items

    def test_top_k_1_is_greedy(self, abd):
        model, vocab = abd
        draws = sample_sequences(model, count=20, strategy="top_k", top_k=1, seed=3, max_len=5)
        assert set(texts(draws, vocab)) == {"a b"}

    def test_determinism(self, abd):
        model, _ = abd
        a = sample_sequences(model, count=50, strategy="ancestral", seed=42, max_len=5)
        b = sample_sequences(model, count=50, strategy="ancestral", seed=42, max_len=5)
        assert a.items == b.items

    def test_logprobs_are_untruncated_model_logprobs(self, abd):
        model, _ = abd
        draws = sample_sequences(model, count=100, strategy="top_k", top_k=1, seed=5, max_len=5)
        assert verify_logprobs(model, draws)

    def test_invalid_parameters(self, abd):
        model, _ = abd
        with pytest.raises(ValueError):
            sample_sequences(model, count=0, strategy="ancestral", seed=1, max_len=5)
        with pytest.raises(ValueError):
            sample_sequences(model, count=1, strategy="top_k", top_k=0, seed=1, max_len=5)
        with pytest.raises(ValueError):
            sample_sequences(model, count=1, strategy="nucleus", top_p=0.0, seed=1, max_len=5)
        with pytest.raises(ValueError):
            sample_sequences(model, count=1, strategy="gumbel", seed=1, max_len=5)


class TestBeamParamsValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            BeamParams(beam_size=0)
        with pytest.raises(ValueError):
            BeamParams(max_len=0)
        with pytest.raises(ValueError):
            BeamParams(scoring="other")
        with pytest.raises(ValueError):
            BeamParams(diverse_gamma=-0.1)
