import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import corpus_lines, ngram_bag, ngram_set, reference_index
from votedecode.harness import file_ids
from votedecode.sequences import (
    BOS_ID,
    EOS_ID,
    MARK_IDS,
    UNK_ID,
    Vocabulary,
    detokenize,
    gram_codes,
    index_corpus,
    tokenize,
)

VOCAB = Vocabulary(tokens=("a", "b", "c"))
A, B, C = (VOCAB.id_of(t) for t in "abc")


class TestVocabulary:
    def test_reserved_ids(self):
        assert (BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2)
        assert VOCAB.id_of("a") == 3
        assert VOCAB.num_ids == 6

    def test_bijection(self):
        for token in VOCAB.tokens:
            assert VOCAB.marked_tokens[VOCAB.id_of(token)] == token
        assert VOCAB.marked_tokens[UNK_ID] == "<unk>"

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary(tokens=("a", "a"))

    def test_rejects_whitespace_and_reserved_marks(self):
        with pytest.raises(ValueError):
            Vocabulary(tokens=("a b",))
        with pytest.raises(ValueError):
            Vocabulary(tokens=("<unk>",))

    @pytest.mark.parametrize(
        "tokens, message",
        [
            (("a", 3), "vocabulary token must be a string: 3"),
            (("a", ["b"]), "vocabulary token must be a string: ['b']"),
            (("a", None, "a b"), "vocabulary token must be a string: None"),
            (("a", "", "a"), "vocabulary token may not contain whitespace: ''"),
            (("a", " b"), "vocabulary token may not contain whitespace: ' b'"),
            (("a", "b\x1c"), "vocabulary token may not contain whitespace: 'b\\x1c'"),  # str.split's whitespace
            (("a", "<eos>", "a"), "vocabulary token collides with a reserved marker: '<eos>'"),
            (("a", "b", "a", "c d"), "duplicate vocabulary token: 'a'"),
        ],
    )
    def test_the_first_bad_token_is_named(self, tokens, message):
        with pytest.raises(ValueError) as info:
            Vocabulary(tokens=tokens)
        assert str(info.value) == message


class TestTokenize:
    def test_known_tokens(self):
        assert tokenize("a b a", VOCAB) == (A, B, A)

    def test_oov_maps_to_unk(self):
        assert tokenize("a z", VOCAB) == (A, UNK_ID)

    def test_lowercase_before_lookup(self):
        assert tokenize("A b", VOCAB, lowercase=True) == (A, B)
        assert tokenize("A b", VOCAB) == (UNK_ID, B)

    def test_empty_text(self):
        assert tokenize("", VOCAB) == ()

    def test_roundtrip_without_unk(self):
        seq = tokenize("a b c a", VOCAB)
        assert tokenize(detokenize(seq, VOCAB), VOCAB) == seq

    def test_roundtrip_with_unk_marker(self):
        # "<unk>" is never a vocabulary token, so it re-tokenizes to UNK.
        seq = (A, UNK_ID, B)
        assert tokenize(detokenize(seq, VOCAB), VOCAB) == seq


class TestNGrams:
    def test_bag_unigrams(self):
        assert ngram_bag((A, B, B), 1) == Counter({(A,): 1, (B,): 2})

    def test_bag_bigrams(self):
        assert ngram_bag((A, B, C), 2) == Counter({(A, B): 1, (B, C): 1})

    def test_bag_short_sequence(self):
        assert ngram_bag((A,), 2) == Counter()

    def test_set_dedup(self):
        assert ngram_set((A, B, B), 1) == {(A,), (B,)}

    def test_set_bigrams(self):
        assert ngram_set((A, B, A, B), 2) == {(A, B), (B, A)}

    def test_set_empty(self):
        assert ngram_set((), 1) == frozenset()

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            ngram_bag((A,), 0)
        with pytest.raises(ValueError):
            ngram_set((A,), 0)

    @given(
        st.lists(st.integers(min_value=3, max_value=8), max_size=30),
        st.integers(min_value=1, max_value=5),
    )
    def test_counts_invariant(self, tokens, n):
        seq = tuple(tokens)
        total = sum(ngram_bag(seq, n).values())
        assert total == max(0, len(seq) - n + 1)
        assert len(ngram_set(seq, n)) <= total


def expected_codes(seqs, max_n):
    """(rows, codes) per order from the gram tuples themselves: a code is the tuple's dense rank."""
    out = []
    for n in range(1, max_n + 1):
        grams = [(row, seq[i : i + n]) for row, seq in enumerate(seqs) for i in range(len(seq) - n + 1)]
        rank = {gram: code for code, gram in enumerate(sorted({gram for _, gram in grams}))}
        out.append(([row for row, _ in grams], [rank[gram] for _, gram in grams]))
    return out


# Narrow ids repeat often; wide ids (up to 2**40) would overflow a naive id-positional key by the third order.
gram_ids = st.one_of(st.integers(min_value=3, max_value=6), st.integers(min_value=10**6, max_value=2**40))


class TestGramCodes:
    @given(st.lists(st.lists(gram_ids, max_size=12).map(tuple), max_size=8), st.integers(min_value=1, max_value=5))
    def test_codes_are_the_dense_ranks_of_the_gram_tuples(self, seqs, max_n):
        got = [(rows.tolist(), codes.tolist()) for rows, codes in gram_codes(seqs, max_n)]
        assert got == expected_codes(seqs, max_n)

    def test_equal_grams_share_a_code_across_lists(self):
        voters, cands = [(A, B, C), (C, A, B)], [(B, C), (A, B, A, B)]
        rows, codes = gram_codes(voters + cands, 2)[1]
        by_gram = {}
        for row, i, code in zip(rows.tolist(), [0, 1, 0, 1, 0, 0, 1, 2], codes.tolist()):
            by_gram.setdefault((voters + cands)[row][i : i + 2], set()).add(code)
        assert by_gram == {(A, B): {0}, (B, C): {2}, (C, A): {3}, (B, A): {1}}

    def test_empty_and_short_sequences_give_no_grams(self):
        orders = gram_codes([(), (A,), (A, B)], 3)
        assert [rows.tolist() for rows, _ in orders] == [[1, 2, 2], [2], []]
        assert all(len(rows) == len(codes) for rows, codes in orders)
        assert [len(rows) for rows, _ in gram_codes([], 2)] == [0, 0]

    def test_wide_ids_do_not_overflow(self):
        wide = 2**62
        seqs = [(wide, 10**6, wide, 10**6, wide), (10**6, wide, 10**6)]
        rows, codes = gram_codes(seqs, 5)[2]
        assert rows.tolist() == [0, 0, 0, 1]
        assert codes.tolist() == [1, 0, 1, 0]  # (1e6, w, 1e6) ranks below (w, 1e6, w)
        assert all(int(codes.max(initial=0)) < len(rows) for _, codes in gram_codes(seqs, 5))

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            gram_codes([(A,)], 0)


class TestBuildVocabulary:
    def test_frequency_then_alpha_order(self):
        vocab = index_corpus(["b a", "b c", "c a a"])[0]
        assert vocab.tokens == ("a", "b", "c")  # a:3, b:2, c:2 (alpha tie-break)

    def test_max_size(self):
        vocab = index_corpus(["b a", "b c"], max_size=1)[0]
        assert vocab.tokens == ("b",)

    def test_lowercase(self):
        vocab = index_corpus(["A a"], lowercase=True)[0]
        assert vocab.tokens == ("a",)


class TestIndexCorpus:
    @given(corpus_lines, st.booleans(), st.sampled_from([None, 0, 1, 3]))
    def test_matches_counter_ranking_and_per_line_tokenize(self, lines, lowercase, max_size):
        vocab, ids, lengths = index_corpus(lines, lowercase, max_size)
        want_vocab, seqs = reference_index(lines, lowercase, max_size)
        assert vocab.tokens == want_vocab.tokens
        assert ids.tolist() == [i for seq in seqs for i in seq + (EOS_ID,)]
        assert lengths.tolist() == [len(seq) for seq in seqs]

    def test_blank_and_whitespace_only_lines_are_empty(self):
        vocab, ids, lengths = index_corpus(["", " \t", "a", "\u3000\xa0\x1c\u2028"])
        assert vocab.tokens == ("a",)
        assert ids.tolist() == [EOS_ID, EOS_ID, 3, EOS_ID, EOS_ID]
        assert lengths.tolist() == [0, 0, 1, 0]

    def test_reserved_markers_map_to_unk(self):
        vocab, ids, _ = index_corpus(["<unk> <bos> b <eos> <eos>"])
        assert vocab.tokens == ("b",)
        assert ids.tolist() == [UNK_ID, UNK_ID, 3, UNK_ID, UNK_ID, EOS_ID]

    def test_unicode_whitespace_splits(self):
        vocab, _, lengths = index_corpus(["a\x1cb\xa0c\u3000d\u2028e"])
        assert vocab.tokens == ("a", "b", "c", "d", "e") and lengths.tolist() == [5]

    def test_lowercase_folds_before_counting(self):
        assert index_corpus(["İ b B"], lowercase=True)[0].tokens == ("b", "İ".lower())
        assert index_corpus(["İ b B"])[0].tokens == ("B", "b", "İ")

    @pytest.mark.parametrize("max_size, tokens", [(None, ("b", "a", "c")), (0, ()), (1, ("b",)), (2, ("b", "a"))])
    def test_max_size_cut_words_map_to_unk(self, max_size, tokens):
        vocab, ids, _ = index_corpus(["b a b c", "c b a"], max_size=max_size)
        assert vocab.tokens == tokens
        assert ids.tolist() == [vocab.id_of(w) if w else EOS_ID for w in "b a b c  c b a ".split(" ")]

    def test_empty_corpus(self):
        vocab, ids, lengths = index_corpus([])
        assert vocab.tokens == () and ids.tolist() == [] and lengths.tolist() == []

    def test_rejects_negative_max_size(self):
        with pytest.raises(ValueError, match="max_vocab must be >= 0, got -1"):
            index_corpus(["a"], max_size=-1)


def generator_file_ids(tokens, vocab):
    """``file_ids`` as a per-token generator: a marker's own id, else the vocabulary id."""
    return tuple(MARK_IDS[t] if t in MARK_IDS else vocab.id_of(t) for t in tokens)


class TestFileIds:
    def test_markers_keep_their_ids_and_unknown_words_are_unk(self):
        assert file_ids(["<bos>", "<eos>", "<unk>", "b", "zz"], VOCAB) == (BOS_ID, EOS_ID, UNK_ID, B, UNK_ID)
        assert file_ids([], VOCAB) == ()

    def test_matches_the_generator(self):
        rng = random.Random(0)
        pool = [*VOCAB.tokens, *MARK_IDS, "A", "zz", "a b"]
        for _ in range(200):
            tokens = rng.choices(pool, k=rng.randint(0, 12))
            assert file_ids(tokens, VOCAB) == generator_file_ids(tokens, VOCAB)
