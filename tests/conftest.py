import math
from collections import Counter
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import strategies as st

from votedecode import SimilaritySpec, Vocabulary, tabular_model, tokenize
from votedecode.models import NEG_INF, NGramLM, train_on_stream
from votedecode.sequences import EOS_ID, NUM_RESERVED, RESERVED_MARKS

# Tabular toy distribution used across modules: support {"a b", "a c", "d"}.
ABD_ENTRIES = [("a b", 0.5), ("a c", 0.3), ("d", 0.2)]

# Five-sequence vote-splitting fixture: one short generic output holding the
# largest single mass against a family of near-duplicate long outputs.
FIXTURE5 = [
    ("ok", 0.30),
    ("the tall man runs fast", 0.18),
    ("the tall man runs quickly", 0.18),
    ("the tall man is running fast", 0.17),
    ("the tall man sprints", 0.17),
]

# Ten-caption fixture: beam outputs with probabilities for one image.
CAPTIONS10 = [
    ("a couple of people that are sitting on a bench", 0.00230),
    ("a man sitting on a bench next to a dog", 0.00132),
    ("a black and white photo of a man sitting on a bench", 0.00079),
    ("a couple of people sitting on a bench", 0.00075),
    ("a man sitting on a bench with a dog", 0.00066),
    ("a man and a woman sitting on a bench", 0.00064),
    ("a man and a woman sitting on a park bench", 0.00048),
    ("a black and white photo of a man and a horse", 0.00046),
    ("a black and white photo of a man and a dog", 0.00033),
    ("a black and white photo of a man on a horse", 0.00025),
]


# Corpus pieces: mixed and dotted capitals, a final sigma, reserved markers and Unicode whitespace.
CORPUS_WORDS = ["a", "A", "b", "cat", "Cat", "ΟΔΟΣ", "Σ", "İ", "İzmir", "<unk>", "<bos>", "<eos>"]
CORPUS_SPACES = [" ", "  ", "\t", "\x1c", "\xa0", "\u3000", "\u2028"]
corpus_lines = st.lists(
    st.one_of(
        st.lists(st.sampled_from(CORPUS_WORDS + CORPUS_SPACES), max_size=12).map("".join),
        st.text(alphabet="aAbİΣ<>\x1c\xa0\u3000\u2028 \t", max_size=10),
    ),
    max_size=12,
)


def ngram_bag(seq, n):
    """Multiset of all contiguous n-grams of ``seq``, as tuples; empty when len(seq) < n."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def ngram_set(seq, n):
    """Set of distinct contiguous n-grams of ``seq``, as tuples."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return frozenset(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def train_ngram_lm(corpus, order, add_k, vocab):
    """``train_on_stream`` over sequences of ids: each sequence's ids, then its EOS, as one stream."""
    corpus = list(corpus)
    ids = np.fromiter(chain.from_iterable(chain.from_iterable(zip(corpus, repeat((EOS_ID,))))), np.uint32)
    return train_on_stream(ids, np.fromiter(map(len, corpus), np.int64, len(corpus)), order, add_k, vocab)


def reference_index(lines, lowercase, max_size):
    """Vocabulary and per-line ids the slow way: a ``Counter`` ranking, then ``tokenize`` per line."""
    counts = Counter(word for line in lines for word in (line.lower() if lowercase else line).split())
    ranked = sorted(counts.keys() - RESERVED_MARKS, key=lambda word: (-counts[word], word))
    vocab = Vocabulary(tokens=tuple(ranked[:max_size]))
    return vocab, [tokenize(line, vocab, lowercase) for line in lines]


def ngram_lm(vocab, order, add_k, counts):
    """An ``NGramLM`` from (history, event) counts as a dict of dicts, in the count table's order.

    Histories and each history's events go in ascending, as training and
    loading lay them out; unlike a model file, any event id is accepted.
    """
    histories = sorted(counts)
    rows = [sorted(counts[history].items()) for history in histories]
    events, event_counts = np.array([pair for row in rows for pair in row], np.int64).reshape(-1, 2).T
    return NGramLM(vocab, order, add_k, histories, np.cumsum([0, *map(len, rows)]), events, event_counts)


def vocab_over(texts):
    tokens = sorted({tok for text in texts for tok in text.split()})
    return Vocabulary(tokens=tuple(tokens))


def model_from_texts(entries):
    vocab = vocab_over([text for text, _ in entries])
    return tabular_model([(tokenize(t, vocab), p) for t, p in entries], vocab), vocab


# Generator tokens: one pool for the short generic sequence, one for the
# long families, so short/long similarities are exactly zero.
_SHORT_POOL = tuple(f"s{i}" for i in range(3))
_LONG_POOL = tuple(f"w{i:02d}" for i in range(20))
GENERATOR_VOCAB = Vocabulary(tokens=_SHORT_POOL + _LONG_POOL)


def make_vote_split_model(seed):
    """Seeded nested-prefix tabular model exhibiting vote splitting.

    One short generic sequence holds the largest single mass; families of
    long near-duplicates (a shared stem plus one distinguishing token each)
    hold more total mass, with the main family heavy enough that n-gram
    voting reliably prefers a long member while the short sequence stays
    the exact argmax.  There are 1-3 families of 3-6 members, each with a
    stem of 5-9 tokens.
    """
    rng = np.random.default_rng(seed)
    vocab = GENERATOR_VOCAB
    short_ids = [vocab.id_of(t) for t in _SHORT_POOL]
    long_ids = [vocab.id_of(t) for t in _LONG_POOL]

    short_len = int(rng.integers(1, 3))
    short = tuple(rng.choice(short_ids, size=short_len, replace=False).tolist())
    p_short = float(rng.uniform(0.26, 0.34))

    n_fam = int(rng.integers(1, 4))
    # Main family keeps >= 2/3 of the long mass so its members' mutual
    # support beats the short sequence's self-vote in every draw.
    shares = np.concatenate(([1.0], rng.uniform(0.05, 0.25, size=n_fam - 1)))
    shares = shares / shares.sum() * (1.0 - p_short)

    pairs = [(short, p_short)]
    for share in shares:
        length = int(rng.integers(5, 10))
        stem = tuple(rng.choice(long_ids, size=length, replace=False).tolist())
        leftover = [t for t in long_ids if t not in stem]
        m = int(rng.integers(3, 7))
        variants = rng.choice(leftover, size=m, replace=False).tolist()
        # Near-uniform member weights: max share stays below the short mass.
        raw = rng.uniform(1.0, 1.1, size=m)
        raw = raw / raw.sum() * share
        for token, weight in zip(variants, raw):
            pairs.append((stem + (int(token),), float(weight)))
    return tabular_model(pairs, vocab)


def dense_logprobs(model, prefix):
    """The reference dense vector: ``model``'s row for ``prefix`` spread over the full id space.

    Listed ids take their own values, EOS and the other surface ids ``rest``, BOS and an unlisted UNK -inf.
    """
    row = model.next_token_row(prefix)
    out = np.full(model.vocab.num_ids, NEG_INF)
    out[EOS_ID] = out[NUM_RESERVED:] = row.rest
    out[row.ids] = row.logprobs
    return out


def sequence_logprob(model, seq):
    """Log-probability of the full sequence, terminal EOS step included, one row query per step."""
    total = 0.0
    for i, token in enumerate(seq):
        total += model.next_token_row(seq[:i]).logprob_of(token)
        if total == NEG_INF:
            return NEG_INF
    return total + model.next_token_row(seq).logprob_of(EOS_ID)


def verify_logprobs(model, candidates, tol=1e-9):
    """Check that reported logprobs match sequence_logprob within ``tol``."""
    for cand in candidates.items:
        want = sequence_logprob(model, cand.tokens)
        if cand.logprob == NEG_INF and want == NEG_INF:
            continue
        if abs(cand.logprob - want) > tol:
            return False
    return True


def toy_vectors(vocab, dim=4, seed=0):
    """Deterministic dense vectors for every surface id (embed_cosine tests)."""
    rng = np.random.default_rng(seed)
    return {i: rng.normal(size=dim) for i in vocab.surface_ids}


def reference_bleu_sim(v, c, max_n=4, smoothed=False):
    """Sentence BLEU of hypothesis ``c`` against the one reference ``v``, every n-gram bag recounted."""
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


def reference_prec(v, c, n):
    """|bag_n(v) & bag_n(c)| / |bag_n(v)| with per-gram minimum counts; 0 when the voter has no n-grams."""
    bag_v = ngram_bag(v, n)
    denom = sum(bag_v.values())
    if denom == 0:
        return 0.0
    bag_c = ngram_bag(c, n)
    return sum(min(count, bag_c[g]) for g, count in bag_v.items() if g in bag_c) / denom


def reference_overl(v, c, n):
    """|set_n(v) & set_n(c)| / |set_n(v)|; 0 when the voter has no n-grams."""
    set_v = ngram_set(v, n)
    return len(set_v & ngram_set(c, n)) / len(set_v) if set_v else 0.0


def reference_embed_cosine(v, c, vectors):
    """The rescaled cosine of mean vectors, both means and norms rebuilt for every pair."""

    def mean(seq):
        acc = np.zeros(len(next(iter(vectors.values()))))
        for token in seq:
            if token in vectors:
                acc += vectors[token]
        return acc / len(seq)

    if not v or not c or not vectors:
        return 0.0
    mean_v, mean_c = mean(v), mean(c)
    norm_v, norm_c = float(np.linalg.norm(mean_v)), float(np.linalg.norm(mean_c))
    if norm_v == 0.0 or norm_c == 0.0:
        return 0.0
    cosine = min(1.0, max(-1.0, float(np.dot(mean_v, mean_c)) / (norm_v * norm_c)))
    return (cosine + 1.0) / 2.0


def pairwise_sim(spec):
    """The pairwise reference of ``spec``'s similarity, as ``SimilaritySpec`` defines each kind.

    The election's similarity matrix must equal it bit for bit: one call per
    (voter, candidate) pair, with every bag, set and mean vector rebuilt.
    """
    if spec.kind == "prec":
        return lambda v, c: reference_prec(v, c, spec.n)
    if spec.kind == "overl":
        return lambda v, c: reference_overl(v, c, spec.n)
    if spec.kind in ("bleu", "smoothed_bleu"):
        return lambda v, c: reference_bleu_sim(v, c, spec.max_n, smoothed=spec.kind == "smoothed_bleu")
    return lambda v, c: reference_embed_cosine(v, c, spec.vectors)


def all_similarity_specs(vocab, vector_seed=0):
    """One spec per implemented similarity kind, n-gram orders 1 and 2."""
    return [
        SimilaritySpec(kind="prec", n=1),
        SimilaritySpec(kind="prec", n=2),
        SimilaritySpec(kind="overl", n=1),
        SimilaritySpec(kind="overl", n=2),
        SimilaritySpec(kind="bleu", max_n=4),
        SimilaritySpec(kind="smoothed_bleu", max_n=4),
        SimilaritySpec(kind="embed_cosine", vectors=toy_vectors(vocab, seed=vector_seed)),
    ]


@pytest.fixture
def abd():
    """(model, vocab) for the three-sequence toy distribution."""
    return model_from_texts(ABD_ENTRIES)


@pytest.fixture
def fixture5():
    """(model, vocab) for the vote-splitting fixture."""
    return model_from_texts(FIXTURE5)


@pytest.fixture
def captions10():
    """(model, vocab) for the ten-caption fixture."""
    return model_from_texts(CAPTIONS10)
