from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st

from votedecode import SimilaritySpec, Vocabulary, sequence_logprob, tabular_model, tokenize
from votedecode.models import NEG_INF
from votedecode.sequences import RESERVED_MARKS

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


def reference_index(lines, lowercase, max_size):
    """Vocabulary and per-line ids the slow way: a ``Counter`` ranking, then ``tokenize`` per line."""
    counts = Counter(word for line in lines for word in (line.lower() if lowercase else line).split())
    ranked = sorted(counts.keys() - RESERVED_MARKS, key=lambda word: (-counts[word], word))
    vocab = Vocabulary(tokens=tuple(ranked[:max_size]))
    return vocab, [tokenize(line, vocab, lowercase) for line in lines]


def vocab_over(texts):
    tokens = sorted({tok for text in texts for tok in text.split()})
    return Vocabulary(tokens=tuple(tokens))


def model_from_texts(entries):
    vocab = vocab_over([text for text, _ in entries])
    return tabular_model([(tokenize(t, vocab), p) for t, p in entries], vocab), vocab


def verify_logprobs(model, candidates, context=None, tol=1e-9):
    """Check that reported logprobs match sequence_logprob within ``tol``."""
    for cand in candidates.items:
        want = sequence_logprob(model, cand.tokens, context)
        if cand.logprob == NEG_INF and want == NEG_INF:
            continue
        if abs(cand.logprob - want) > tol:
            return False
    return True


def toy_vectors(vocab, dim=4, seed=0):
    """Deterministic dense vectors for every surface id (embed_cosine tests)."""
    rng = np.random.default_rng(seed)
    return {i: rng.normal(size=dim) for i in vocab.surface_ids}


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
