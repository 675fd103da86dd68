import io
import json
import math

import numpy as np
import pytest

from votedecode.models import (
    ModelFormatError,
    ZeroMassPrefixError,
    load_model,
    save_model,
    tabular_model,
)
from votedecode.sequences import EOS_ID, UNK_ID, Vocabulary, tokenize

from conftest import dense_logprobs, model_from_texts, sequence_logprob, train_ngram_lm


def logprobs_as_probs(model, prefix):
    return np.exp(dense_logprobs(model, prefix))


class TestTabularModel:
    def test_root_conditionals(self, abd):
        model, vocab = abd
        probs = logprobs_as_probs(model, ())
        assert probs[vocab.id_of("a")] == pytest.approx(0.8, abs=1e-12)
        assert probs[vocab.id_of("d")] == pytest.approx(0.2, abs=1e-12)

    def test_prefix_conditionals(self, abd):
        model, vocab = abd
        probs = logprobs_as_probs(model, (vocab.id_of("a"),))
        assert probs[vocab.id_of("b")] == pytest.approx(0.625, abs=1e-12)
        assert probs[vocab.id_of("c")] == pytest.approx(0.375, abs=1e-12)

    def test_eos_only_completion(self, abd):
        model, vocab = abd
        probs = logprobs_as_probs(model, (vocab.id_of("d"),))
        assert probs[EOS_ID] == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_prefix_error(self, abd):
        model, vocab = abd
        with pytest.raises(ZeroMassPrefixError):
            model.next_token_row((vocab.id_of("b"),))

    def test_merge_and_normalize(self):
        vocab = Vocabulary(tokens=("a",))
        model = tabular_model([((vocab.id_of("a"),), 1.0), ((vocab.id_of("a"),), 1.0)], vocab)
        assert model.entries == {(vocab.id_of("a"),): 1.0}

    def test_symmetric_two_entries(self):
        vocab = Vocabulary(tokens=("a", "b"))
        model = tabular_model([((vocab.id_of("a"),), 0.5), ((vocab.id_of("b"),), 0.5)], vocab)
        probs = logprobs_as_probs(model, ())
        assert probs[vocab.id_of("a")] == pytest.approx(0.5)
        assert probs[vocab.id_of("b")] == pytest.approx(0.5)

    def test_rejects_empty_and_nonpositive(self):
        vocab = Vocabulary(tokens=("a",))
        with pytest.raises(ValueError):
            tabular_model([], vocab)
        with pytest.raises(ValueError):
            tabular_model([((vocab.id_of("a"),), 0.0)], vocab)
        with pytest.raises(ValueError):
            tabular_model([((vocab.id_of("a"),), -0.5)], vocab)

    def test_sequence_logprob_chain(self, abd):
        model, vocab = abd
        got = sequence_logprob(model, tokenize("a b", vocab))
        assert got == pytest.approx(math.log(0.5), abs=1e-9)

    def test_chain_rule_consistency(self, abd):
        model, _ = abd
        for seq, prob in model.entries.items():
            assert sequence_logprob(model, seq) == pytest.approx(math.log(prob), abs=1e-9)

    def test_normalization_every_reachable_prefix(self, fixture5):
        model, _ = fixture5
        prefixes = {seq[:i] for seq in model.entries for i in range(len(seq) + 1)}
        for prefix in prefixes:
            total = float(np.sum(np.exp(dense_logprobs(model, prefix))))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestNGramLM:
    def test_mle_bigram(self):
        vocab = Vocabulary(tokens=("a", "b", "c"))
        corpus = [tokenize("a b", vocab), tokenize("a c", vocab)]
        model = train_ngram_lm(corpus, order=2, add_k=0.0, vocab=vocab)
        probs = logprobs_as_probs(model, tokenize("a", vocab))
        assert probs[vocab.id_of("b")] == pytest.approx(0.5, abs=1e-12)

    def test_add_one_bigram(self):
        # add-1 over V+1 = 4 outcomes (a, b, c, EOS): (1+1)/(2+4) = 1/3.
        vocab = Vocabulary(tokens=("a", "b", "c"))
        corpus = [tokenize("a b", vocab), tokenize("a c", vocab)]
        model = train_ngram_lm(corpus, order=2, add_k=1.0, vocab=vocab)
        probs = logprobs_as_probs(model, tokenize("a", vocab))
        assert probs[vocab.id_of("b")] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_unigram_with_eos_event(self):
        vocab = Vocabulary(tokens=("a",))
        model = train_ngram_lm([tokenize("a", vocab)], order=1, add_k=0.0, vocab=vocab)
        probs = logprobs_as_probs(model, ())
        assert probs[vocab.id_of("a")] == pytest.approx(0.5)
        assert probs[EOS_ID] == pytest.approx(0.5)

    def test_mle_chain_rule(self):
        vocab = Vocabulary(tokens=("a", "b", "c"))
        corpus = [tokenize("a b", vocab), tokenize("a c", vocab)]
        model = train_ngram_lm(corpus, order=2, add_k=0.0, vocab=vocab)
        assert sequence_logprob(model, tokenize("a b", vocab)) == pytest.approx(math.log(0.5), abs=1e-9)

    def test_normalization_with_unk_counts(self):
        vocab = Vocabulary(tokens=("a",))
        corpus = [tokenize("a zzz", vocab)]  # zzz -> UNK
        model = train_ngram_lm(corpus, order=1, add_k=0.5, vocab=vocab)
        probs = logprobs_as_probs(model, ())
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-9)
        assert probs[UNK_ID] > 0

    def test_unseen_history_mle_uniform(self):
        vocab = Vocabulary(tokens=("a", "b"))
        model = train_ngram_lm([tokenize("a", vocab)], order=2, add_k=0.0, vocab=vocab)
        probs = logprobs_as_probs(model, tokenize("b", vocab))
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_args(self):
        vocab = Vocabulary(tokens=("a",))
        with pytest.raises(ValueError):
            train_ngram_lm([], order=1, add_k=0.0, vocab=vocab)
        with pytest.raises(ValueError):
            train_ngram_lm([tokenize("a", vocab)], order=0, add_k=0.0, vocab=vocab)
        with pytest.raises(ValueError):
            train_ngram_lm([tokenize("a", vocab)], order=1, add_k=-1.0, vocab=vocab)


class TestPersistence:
    def _trained(self):
        vocab = Vocabulary(tokens=("a", "b", "c"))
        corpus = [tokenize("a b", vocab), tokenize("a c", vocab)]
        return train_ngram_lm(corpus, order=2, add_k=1.0, vocab=vocab), vocab

    def test_roundtrip_identical_queries(self):
        model, vocab = self._trained()
        buf = io.StringIO()
        save_model(model, buf)
        loaded = load_model(io.StringIO(buf.getvalue()))
        for prefix in [(), tokenize("a", vocab), tokenize("a b", vocab), tokenize("c", vocab)]:
            np.testing.assert_array_equal(dense_logprobs(model, prefix), dense_logprobs(loaded, prefix))

    def test_save_is_deterministic(self):
        model, _ = self._trained()
        a, b = io.StringIO(), io.StringIO()
        save_model(model, a)
        save_model(model, b)
        assert a.getvalue() == b.getvalue()

    def test_truncated_file_is_structured_error(self):
        model, _ = self._trained()
        buf = io.StringIO()
        save_model(model, buf)
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(buf.getvalue()[: len(buf.getvalue()) // 2]))

    def test_wrong_format_and_version(self):
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(json.dumps({"format": "something-else"})))
        model, _ = self._trained()
        buf = io.StringIO()
        save_model(model, buf)
        payload = json.loads(buf.getvalue())
        payload["version"] = 99
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(json.dumps(payload)))


class TestEnumerationCompleteness:
    def test_tabular_mass_recovery(self, fixture5):
        from votedecode.oracle import enumerate_distribution

        model, _ = fixture5
        dist = enumerate_distribution(model, max_len=model.max_len)
        assert dist.total_mass == pytest.approx(1.0, abs=1e-9)
        assert len(dist.entries) == len(model.entries)
