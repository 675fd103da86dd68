"""Token, sequence, and n-gram primitives shared by the rest of the package.

A sequence is a plain tuple of vocabulary ids.  Begin/end markers are
model-side bookkeeping and never stored in a sequence, so n-gram statistics
are always over surface tokens only.  :func:`index_corpus` splits a corpus
once, as a stream, and codes, counts and ranks its words in C and numpy;
:func:`gram_codes` numbers the n-grams of many sequences in one array pass.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Iterable

import numpy as np

Sequence = tuple[int, ...]
NGram = tuple[int, ...]

BOS_ID = 0
EOS_ID = 1
UNK_ID = 2
NUM_RESERVED = 3

# Surface forms used when serializing reserved ids; real tokens may not
# collide with these.
BOS_MARK = "<bos>"
EOS_MARK = "<eos>"
UNK_MARK = "<unk>"
MARK_IDS = {BOS_MARK: BOS_ID, EOS_MARK: EOS_ID, UNK_MARK: UNK_ID}
RESERVED_MARKS = frozenset(MARK_IDS)


@dataclass(frozen=True)
class Vocabulary:
    """Closed word-level vocabulary with three reserved ids.

    Ids 0, 1, 2 are BOS, EOS, UNK; surface tokens occupy ids 3 onward in
    the order given.  The id <-> string mapping is a bijection.
    """

    tokens: tuple[str, ...]

    def __post_init__(self):
        index: dict[str, int] = {}
        for offset, token in enumerate(self.tokens):
            if not token or token.split() != [token]:
                raise ValueError(f"vocabulary token may not contain whitespace: {token!r}")
            if token in RESERVED_MARKS:
                raise ValueError(f"vocabulary token collides with a reserved marker: {token!r}")
            if token in index:
                raise ValueError(f"duplicate vocabulary token: {token!r}")
            index[token] = NUM_RESERVED + offset
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "marked_index", {**index, **MARK_IDS})  # tokens and reserved markers to ids

    @property
    def size(self) -> int:
        """Number of surface tokens (reserved ids excluded)."""
        return len(self.tokens)

    @property
    def num_ids(self) -> int:
        """Total id space: reserved ids plus surface tokens."""
        return NUM_RESERVED + len(self.tokens)

    @property
    def surface_ids(self) -> range:
        return range(NUM_RESERVED, self.num_ids)

    def id_of(self, token: str) -> int:
        """Id for a surface string; unknown strings map to UNK."""
        return self._index.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if token_id == BOS_ID:
            return BOS_MARK
        if token_id == EOS_ID:
            return EOS_MARK
        if token_id == UNK_ID:
            return UNK_MARK
        if NUM_RESERVED <= token_id < self.num_ids:
            return self.tokens[token_id - NUM_RESERVED]
        raise KeyError(f"id {token_id} not in vocabulary")

    def __contains__(self, token: str) -> bool:
        return token in self._index


def tokenize(text: str, vocab: Vocabulary, lowercase: bool = False) -> Sequence:
    """Whitespace-split ``text`` and map each token to its vocabulary id.

    Out-of-vocabulary tokens map to UNK; this is a total function.  When
    ``lowercase`` is set, lowercasing happens before lookup.
    """
    if lowercase:
        text = text.lower()
    return tuple(map(vocab._index.get, text.split(), repeat(UNK_ID)))


def detokenize(seq: Iterable[int], vocab: Vocabulary) -> str:
    """Join surface strings with single spaces (UNK renders as its marker)."""
    return " ".join(vocab.token_of(t) for t in seq)


def ngram_bag(seq: Sequence, n: int) -> Counter[NGram]:
    """Multiset of all contiguous n-grams of ``seq``; empty when len(seq) < n."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def ngram_set(seq: Sequence, n: int) -> frozenset[NGram]:
    """Set of distinct contiguous n-grams of ``seq``."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return frozenset(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def gram_codes(seqs: list[Sequence], max_n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Integer codes of every n-gram of ``seqs``: one ``(rows, codes)`` pair per order n = 1..max_n.

    ``rows[i]`` is the index in ``seqs`` of the i-th gram of the flat id
    stream.  The order-1 code is the dense rank of the id; the order-n code
    the dense rank of (order-(n-1) code) * width + the next order-1 code,
    width being the number of distinct ids.  So a code is the dense rank of
    its gram tuple, shared across all of ``seqs`` and below the gram count.
    """
    if max_n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {max_n}")
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    ids = np.fromiter(chain.from_iterable(seqs), np.int64, int(lengths.sum()))
    rows = np.repeat(np.arange(len(seqs)), lengths)
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids))  # tokens from each position to its row's end
    distinct, first = np.unique(ids, return_inverse=True)
    width = len(distinct)
    starts, codes = np.arange(len(ids)), first
    out = [(rows, first)]
    for n in range(2, max_n + 1):
        keep = left[starts] >= n
        starts = starts[keep]
        codes = np.unique(codes[keep] * width + first[starts + n - 1], return_inverse=True)[1]
        out.append((rows[starts], codes))
    return out


def index_corpus(
    lines: Iterable[str], lowercase: bool = False, max_size: int | None = None
) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    """Vocabulary, id stream (each line's ids, then EOS_ID) and line lengths of text lines, from one split.

    Tokens rank most-frequent first, ties alphabetical, so ``max_size`` keeps
    the most common words; reserved markers and cut words map to UNK.
    """
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_vocab must be >= 0, got {max_size}")
    code = defaultdict(count().__next__)  # first-seen codes; "", never a split token, is 0 and ends each line
    code[""]
    words = map(str.split, map(str.lower, lines) if lowercase else lines)
    codes = np.fromiter(map(code.__getitem__, chain.from_iterable(map(list.__add__, words, repeat([""])))), np.int64)
    tokens = sorted(code.keys() - RESERVED_MARKS - {""})
    ranked = np.fromiter(map(code.__getitem__, tokens), np.int64, len(tokens))
    keep = np.argsort(-np.bincount(codes, minlength=len(code))[ranked], kind="stable")[:max_size]
    to_id = np.full(len(code), UNK_ID, np.uint32)
    to_id[0] = EOS_ID
    to_id[ranked[keep]] = np.arange(NUM_RESERVED, NUM_RESERVED + len(keep))
    vocab = Vocabulary(tokens=tuple(map(tokens.__getitem__, keep.tolist())))
    return vocab, to_id[codes], np.diff(np.flatnonzero(codes == 0), prepend=-1) - 1


def build_vocabulary(lines: Iterable[str], lowercase: bool = False, max_size: int | None = None) -> Vocabulary:
    """The vocabulary of :func:`index_corpus`."""
    return index_corpus(lines, lowercase, max_size)[0]
