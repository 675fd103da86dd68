"""The corpus -> model -> search -> sample fast paths against the straightforward algorithms.

Each ``reference_*`` function below is the straightforward algorithm: the
per-line vocabulary count and tokenizer, per-event training counts, a
per-token log loop for the n-gram row, a sort of all k*V expansions for
beam search and a Python sort and walk of the whole support for sampling.
The fast paths must agree with them bit for bit, ties and rounding included.
"""

import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from votedecode.decode import (
    CandidateSet,
    DecodeSpec,
    ScoredSequence,
    _SampleRow,
    _Support,
    _crossing,
    beam_search,
    sample_sequences,
)
from votedecode.models import (
    NEG_INF,
    ModelFormatError,
    NGramLM,
    RowTable,
    load_model,
    save_model,
    tabular_model,
)
from votedecode.oracle import BudgetExceededError, EnumeratedDistribution, enumerate_distribution
from votedecode.sequences import (
    BOS_ID,
    EOS_ID,
    NUM_RESERVED,
    RESERVED_MARKS,
    UNK_ID,
    Vocabulary,
    index_corpus,
    tokenize,
)

from conftest import dense_logprobs, ngram_lm, train_ngram_lm

# --- reference algorithms ----------------------------------------------------


def reference_build_vocabulary(lines, lowercase=False, max_size=None):
    counts = Counter()
    for line in lines:
        words = line.split()
        if lowercase:
            words = [w.lower() for w in words]
        counts.update(w for w in words if w not in RESERVED_MARKS)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if max_size is not None:
        ranked = ranked[:max_size]
    return Vocabulary(tokens=tuple(tok for tok, _ in ranked))


def reference_tokenize(text, vocab, lowercase=False):
    words = text.split()
    if lowercase:
        words = [w.lower() for w in words]
    return tuple(vocab.id_of(w) for w in words)


def reference_train(corpus, order):
    counts = {}
    need = order - 1
    for seq in corpus:
        padded = (BOS_ID,) * need + tuple(seq)
        events = tuple(seq) + (EOS_ID,)
        for i, event in enumerate(events):
            counts.setdefault(padded[i : i + need], Counter())[event] += 1
    # The count table's order: histories ascending, each one's events ascending.
    return {h: dict(sorted(counts[h].items())) for h in sorted(counts)}


def reference_row(model, prefix):
    hist_counts = model.counts.get(model._history(prefix), {})
    total = sum(hist_counts.values())
    smoothed_outcomes = model.vocab.size + 1
    denom = total + model.add_k * smoothed_outcomes
    out = np.full(model.vocab.num_ids, NEG_INF)
    if denom == 0.0:
        uniform = -math.log(smoothed_outcomes)
        out[EOS_ID] = uniform
        for token in model.vocab.surface_ids:
            out[token] = uniform
        return out
    log_denom = math.log(denom)
    for token in (EOS_ID, *model.vocab.surface_ids):
        num = hist_counts.get(token, 0) + model.add_k
        if num > 0:
            out[token] = math.log(num) - log_denom
    unk = hist_counts.get(UNK_ID, 0)
    if unk > 0:
        out[UNK_ID] = math.log(unk) - log_denom
    return out


@dataclass(frozen=True)
class RefHyp:
    tokens: tuple
    logprob: float
    penalty: float

    def score(self, scoring):
        # Length normalisation divides by the hypothesis length, the empty one by 1.
        return (self.logprob if scoring == "logprob" else self.logprob / max(len(self.tokens), 1)) - self.penalty


def reference_rank(hyp, scoring):
    """Search score descending, then log-probability descending, then token ids ascending."""
    return (-hyp.score(scoring), -hyp.logprob, hyp.tokens)


def reference_beam_search(model, context, spec):
    k = spec.beam_size
    live = [RefHyp(tokens=(), logprob=0.0, penalty=0.0)]
    finished = []
    source = set(context or ())

    def finish(hyp, eos_logprob):
        total = hyp.logprob + eos_logprob
        if total == NEG_INF:
            return
        # The copy filter: an empty source filters nothing.
        copied = len(source & set(hyp.tokens)) / len(source) if source else 0.0
        if spec.filter_copies is not None and source and copied >= spec.filter_copies:
            return
        finished.append(RefHyp(tokens=hyp.tokens, logprob=total, penalty=hyp.penalty))

    early_stop = spec.scoring == "logprob"
    depth = 0
    while live and depth < spec.max_len:
        expansions = []
        for hyp in live:
            logprobs = dense_logprobs(model, hyp.tokens)
            finish(hyp, float(logprobs[EOS_ID]))
            steps = [
                (float(logprobs[t]), t)
                for t in range(len(logprobs))
                if t not in (BOS_ID, EOS_ID) and logprobs[t] != NEG_INF
            ]
            steps.sort(key=lambda st: (-st[0], st[1]))
            for rank, (step_lp, token) in enumerate(steps, start=1):
                expansions.append(
                    RefHyp(
                        tokens=hyp.tokens + (token,),
                        logprob=hyp.logprob + step_lp,
                        penalty=hyp.penalty + spec.diverse_gamma * (rank - 1),
                    )
                )
        expansions.sort(key=lambda h: reference_rank(h, spec.scoring))
        live = expansions[:k]
        depth += 1
        if early_stop and len(finished) >= k and live:
            bar = sorted(h.score(spec.scoring) for h in finished)[-k]
            if max(h.score(spec.scoring) for h in live) < bar:
                live = []
                break

    for hyp in live:
        logprobs = dense_logprobs(model, hyp.tokens)
        finish(hyp, float(logprobs[EOS_ID]))

    finished.sort(key=lambda h: reference_rank(h, spec.scoring))
    items = tuple(ScoredSequence(tokens=h.tokens, logprob=h.logprob) for h in finished[:k])
    return CandidateSet(items=items)


def reference_sample_items(model, *, count, strategy, top_k=None, top_p=None, seed, max_len):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        tokens = ()
        logprob = 0.0
        for _ in range(max_len):
            lps = dense_logprobs(model, tokens)
            probs = np.exp(lps)
            support = [t for t in range(len(probs)) if probs[t] > 0.0 and t != BOS_ID]
            support.sort(key=lambda t: (-probs[t], t))
            if strategy == "top_k":
                support = support[:top_k]
            elif strategy == "nucleus":
                total = math.fsum(probs[t] for t in support)
                target = min(top_p, total)
                cum = 0.0
                cut = len(support)
                for i, t in enumerate(support):
                    cum += probs[t]
                    if cum >= target - 1e-12:
                        cut = i + 1
                        break
                support = support[:cut]
            mass = math.fsum(probs[t] for t in support)
            u = rng.random() * mass
            cum = 0.0
            chosen = support[-1]
            for t in support:
                cum += probs[t]
                if u < cum:
                    chosen = t
                    break
            logprob += float(lps[chosen])
            if chosen == EOS_ID:
                break
            tokens = tokens + (chosen,)
        else:
            logprob += float(dense_logprobs(model, tokens)[EOS_ID])
        draws.append(ScoredSequence(tokens=tokens, logprob=logprob))
    draws.sort(key=lambda s: (-s.logprob, s.tokens))
    return tuple(draws)


def reference_enumerate(model, max_len, prob_floor):
    """Depth-first enumeration over the dense row, every id in ascending order: (distribution, nodes expanded)."""
    found = []
    nodes = 0
    stack = [((), 0.0)]
    while stack:
        prefix, prefix_lp = stack.pop()
        nodes += 1
        logprobs = dense_logprobs(model, prefix)
        seq_lp = prefix_lp + float(logprobs[EOS_ID])
        if seq_lp > NEG_INF and math.exp(seq_lp) >= prob_floor:
            found.append(ScoredSequence(tokens=prefix, logprob=seq_lp))
        if len(prefix) >= max_len:
            continue
        for token in range(len(logprobs)):
            if token in (BOS_ID, EOS_ID) or logprobs[token] == NEG_INF:
                continue
            child_lp = prefix_lp + float(logprobs[token])
            if child_lp > NEG_INF and math.exp(child_lp) >= prob_floor:
                stack.append((prefix + (token,), child_lp))
    found.sort(key=lambda s: (-s.logprob, s.tokens))
    return EnumeratedDistribution(tuple(found), math.fsum(math.exp(s.logprob) for s in found)), nodes


# --- models under test -------------------------------------------------------


def sparse_row(dense):
    """The row contract over a dense vector: every finite id but BOS, nothing left to ``rest``."""
    ids = np.flatnonzero(dense != NEG_INF)
    ids = ids[ids != BOS_ID]
    return RowTable(np.array([0, len(ids)]), ids, dense[ids], np.array([NEG_INF])).row(0)


class RowModel:
    """Unnormalized rows drawn per prefix from a small value pool.

    The pool mixes exact ties with steps far below one ulp of a long
    prefix's log-probability, so siblings can tie after the addition.
    EOS always has a finite value, so every reachable prefix can be sampled.
    """

    def __init__(self, vocab, pool, seed):
        self.vocab = vocab
        self._pool = np.array(pool)
        self._seed = seed

    def dense(self, prefix):
        rng = np.random.default_rng([self._seed, len(prefix), *prefix])
        row = rng.choice(self._pool, size=self.vocab.num_ids)
        row[BOS_ID] = NEG_INF
        if row[EOS_ID] == NEG_INF:
            row[EOS_ID] = -3.0
        return row

    def next_token_row(self, prefix):
        return sparse_row(self.dense(prefix))


def vocab_of(size):
    return Vocabulary(tokens=tuple(f"w{i}" for i in range(size)))


class DenseRows:
    """A model over ``num_words`` words whose dense row for each prefix is ``dense(prefix)``."""

    def __init__(self, num_words, dense):
        self.vocab = vocab_of(num_words)
        self.dense = dense

    def next_token_row(self, prefix):
        return sparse_row(self.dense(prefix))


@st.composite
def corpora(draw):
    size = draw(st.integers(1, 6))
    ids = st.integers(NUM_RESERVED, NUM_RESERVED + size - 1) | st.just(UNK_ID)
    corpus = draw(st.lists(st.lists(ids, max_size=5).map(tuple), min_size=1, max_size=8))
    return vocab_of(size), corpus


@st.composite
def raw_corpora(draw):
    """Id sequences that may hold the BOS and EOS ids, as a caller's may."""
    size = draw(st.integers(1, 4))
    ids = st.integers(0, NUM_RESERVED + size - 1)
    return vocab_of(size), draw(st.lists(st.lists(ids, max_size=6).map(tuple), min_size=1, max_size=8))


@st.composite
def ngram_models(draw):
    vocab, corpus = draw(corpora())
    order = draw(st.integers(1, 3))
    add_k = draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    return train_ngram_lm(corpus, order=order, add_k=add_k, vocab=vocab)


@st.composite
def tabular_models(draw):
    vocab = vocab_of(draw(st.integers(1, 4)))
    ids = st.integers(NUM_RESERVED, vocab.num_ids - 1)
    # Small integer weights give many exactly tied conditionals.
    pairs = draw(
        st.lists(st.tuples(st.lists(ids, max_size=4).map(tuple), st.integers(1, 3)), min_size=1, max_size=8)
    )
    return tabular_model([(seq, float(w)) for seq, w in pairs], vocab)


@st.composite
def row_models(draw):
    vocab = vocab_of(draw(st.integers(1, 6)))
    pool = draw(
        st.lists(st.sampled_from([NEG_INF, -40.0, -3.0, -0.5, -1e-16, -3e-16, -0.0]), min_size=1, max_size=5)
    )
    return RowModel(vocab, pool, draw(st.integers(0, 2**32 - 1)))


any_model = st.one_of(ngram_models(), tabular_models(), row_models())


def prefixes(vocab):
    ids = st.integers(NUM_RESERVED, vocab.num_ids - 1) | st.just(UNK_ID)
    return st.lists(ids, max_size=4).map(tuple)


# Word characters whose lowercase depends on context (final sigma), grows
# (dotted capital I) or is case-ignorable (apostrophe, combining marks), and
# separators str.split breaks on, Unicode ones included.
WORD_CHARS = "aAzZσΣςİiIß'\u0301\u0345"
SEPARATORS = [" ", "  ", "\t", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
surface_words = st.text(alphabet=WORD_CHARS, min_size=1, max_size=4) | st.sampled_from(sorted(RESERVED_MARKS))


@st.composite
def text_lines(draw):
    parts = draw(st.lists(st.tuples(surface_words, st.sampled_from(SEPARATORS)), max_size=6))
    return draw(st.sampled_from(["", " ", "\u3000"])) + "".join(w + sep for w, sep in parts)


# --- equivalence -------------------------------------------------------------


class TestCorpusToIds:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(text_lines(), max_size=8), st.booleans(), st.none() | st.integers(0, 6), st.data())
    def test_vocabulary_and_tokens(self, lines, lowercase, max_size, data):
        vocab = index_corpus(lines, lowercase, max_size)[0]
        assert vocab == reference_build_vocabulary(lines, lowercase, max_size)
        for text in lines + data.draw(st.lists(text_lines(), max_size=3)):
            assert tokenize(text, vocab, lowercase) == reference_tokenize(text, vocab, lowercase)


class TestNGramRows:
    @settings(max_examples=300, deadline=None)
    @given(corpora() | raw_corpora(), st.integers(1, 5), st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    def test_training_matches_per_event_counting(self, vocab_corpus, order, add_k):
        vocab, corpus = vocab_corpus
        fast = train_ngram_lm(iter(corpus), order=order, add_k=add_k, vocab=vocab)
        assert list(fast.counts.items()) == list(reference_train(corpus, order).items())

    @settings(max_examples=200, deadline=None)
    @given(ngram_models(), st.data())
    def test_rows_bit_identical(self, model, data):
        for prefix in data.draw(st.lists(prefixes(model.vocab), min_size=1, max_size=5)):
            fast = dense_logprobs(model, prefix)
            assert fast.tobytes() == reference_row(model, prefix).tobytes()

    def test_loaded_counts_outside_the_smoothed_outcomes(self):
        # Event ids a loaded file may hold: BOS, out-of-range, zero counts.
        vocab = vocab_of(3)
        counts = {(): {BOS_ID: 2, EOS_ID: 0, UNK_ID: 1, 4: 3, 9: 5}}
        for add_k in (0.0, 0.25):
            model = ngram_lm(vocab, 1, add_k, counts)
            assert dense_logprobs(model, ()).tobytes() == reference_row(model, ()).tobytes()


class TestBeamSearchEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        any_model,
        st.integers(1, 5),
        st.integers(1, 6),
        st.sampled_from(["logprob", "length_normalized"]),
        st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        st.data(),
    )
    def test_identical_candidate_sets(self, model, k, max_len, scoring, gamma, data):
        source, threshold = None, None
        if data.draw(st.booleans()):
            source = data.draw(prefixes(model.vocab))
            threshold = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        spec = DecodeSpec(beam_size=k, max_len=max_len, scoring=scoring, diverse_gamma=gamma, filter_copies=threshold)
        assert beam_search(model, source, spec) == reference_beam_search(model, source, spec)

    def test_children_tied_after_rounding_are_kept(self):
        # Steps 0 and -1e-16 both round to the parent's -40.0, so the lower
        # ranked child with the smaller token id wins the tie-break.
        def dense(prefix):
            row = np.full(vocab_of(3).num_ids, NEG_INF)
            if not prefix:
                row[5] = -40.0
            elif len(prefix) == 1:
                row[3], row[4], row[5] = -1e-16, -0.5, 0.0
            else:
                row[EOS_ID] = 0.0
            return row

        spec = DecodeSpec(beam_size=1, max_len=3)
        fast = beam_search(DenseRows(3, dense), None, spec)
        assert fast == reference_beam_search(DenseRows(3, dense), None, spec)
        assert fast.items[0].tokens == (5, 3)

    def test_tied_children_rank_by_their_parents_tokens(self):
        # Parent (4,) outranks parent (3,), but their children (4, 5) and (3, 5) tie at -2.5:
        # the last slot goes to the smaller token tuple, whatever the parents' rank.
        def dense(prefix):
            row = np.full(vocab_of(3).num_ids, NEG_INF)
            if not prefix:
                row[3], row[4] = -2.0, -1.0
            elif prefix == (4,):
                row[3], row[5] = -0.1, -1.5
            elif prefix == (3,):
                row[5] = -0.5
            else:
                row[EOS_ID] = 0.0
            return row

        spec = DecodeSpec(beam_size=2, max_len=2)
        fast = beam_search(DenseRows(3, dense), None, spec)
        assert fast == reference_beam_search(DenseRows(3, dense), None, spec)
        assert [s.tokens for s in fast] == [(4, 3), (3, 5)]


class TestSamplingEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        any_model,
        st.sampled_from(["ancestral", "top_k", "nucleus"]),
        st.integers(1, 10),
        st.sampled_from([0.05, 0.3, 0.5, 0.9, 0.999, 1.0]),
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_identical_draws(self, model, strategy, top_k, top_p, count, max_len, seed):
        top_k = top_k if strategy == "top_k" else None
        top_p = top_p if strategy == "nucleus" else None
        spec = DecodeSpec(kind="sample", count=count, strategy=strategy, top_k=top_k, top_p=top_p, max_len=max_len)
        fast = sample_sequences(model, spec, seed)
        ref = reference_sample_items(
            model, count=count, strategy=strategy, top_k=top_k, top_p=top_p, seed=seed, max_len=max_len
        )
        assert fast.items == ref


@st.composite
def run_walks(draw):
    """(start, value, run length, tail): running sums that meet half-ulp ties, binade tops, stalls and subnormals."""
    # A start a few ulps below a binade's top makes short steps cross it.
    below_top = st.builds(lambda e, j: 2.0**-e - j * 2.0 ** (-e - 53), st.integers(0, 3), st.integers(1, 64))
    start = draw(st.just(0.0) | st.floats(1e-3, 0.999) | below_top)
    ulp = math.ulp(start if start else draw(st.floats(1e-6, 0.5)))
    # v mod ulp below, at and above half an ulp; q = 0 puts v below half an ulp of the sum, so it stalls.
    near_ulp = st.builds(
        lambda q, frac: (q + frac) * ulp,
        st.integers(0, 4) | st.integers(0, 2**20),
        st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    )
    subnormal = st.integers(1, 2**20).map(lambda m: m * 5e-324)
    value = draw(near_ulp | subnormal | st.floats(1e-7, 0.01))
    n = draw(st.sampled_from([0, 1, 3000]) | st.integers(0, 3000))
    tail = draw(st.lists(st.floats(0.0, 0.01) | subnormal, max_size=3))
    return start, value, n, tail


class TestRunCrossing:
    @settings(max_examples=1000, deadline=None)
    @given(run_walks(), st.data())
    def test_matches_searchsorted_on_the_cumsum(self, walk, data):
        start, value, n, tail = walk
        sums = np.cumsum([start, *[value] * n, *tail])[1:]
        targets = [0.0, start, *np.nextafter(start, [0.0, 2.0]).tolist()]
        if len(sums):
            picks = [0, *data.draw(st.lists(st.integers(0, len(sums) - 1), max_size=8))]
            for x in sums[picks].tolist():  # partial sums and the floats on either side
                targets += [x, *np.nextafter(x, [0.0, 4.0]).tolist()]
            # Between two sums, and past the total.
            targets += [(sums[picks[-1]] + sums[-1]) / 2, np.nextafter(sums[-1], 4.0), sums[-1] * 2 + 1.0]
        for x in map(float, targets):
            for side in ("left", "right"):
                assert _crossing(start, value, n, tail, x, side == "right") == int(np.searchsorted(sums, x, side))


# --- row contract edge cases -------------------------------------------------

# Order-1 models (one history, so every step reads the same row) and one
# order-2 model, each set up so the head and the shared rest value meet in a
# particular way.  Vocabulary ids run 3..num_ids-1.
EDGE_MODELS = {
    # UNK's count equals add_k: its value ties with rest and joins the rest run by id.
    "unk_tied_with_rest": ngram_lm(vocab_of(4), 1, 1.0, {(): {EOS_ID: 2, UNK_ID: 1, 4: 3}}),
    # UNK's count is below add_k: its value sorts after the rest run.
    "unk_below_rest": ngram_lm(vocab_of(4), 1, 2.0, {(): {UNK_ID: 1, 5: 4, EOS_ID: 1}}),
    # A loaded zero count ties id 5 with rest inside the run (ids 1, 4, 5, 6), and UNK follows the run.
    "tied_inside_run": ngram_lm(vocab_of(4), 1, 2.0, {(): {3: 3, 5: 0, UNK_ID: 1}}),
    # rest * 3 rounds: fsum with the rounded product gives 0.9999999999999998, not 0.9999999999999999.
    "inexact_rest_product": ngram_lm(vocab_of(4), 1, 1.0, {(): {3: 3, 4: 1}}),
    # MLE: rest is -inf, the support is the head alone.
    "mle": ngram_lm(vocab_of(4), 1, 0.0, {(): {3: 2, 5: 1, UNK_ID: 1, EOS_ID: 1}}),
    # MLE, and every prefix but (3,) reaches a history never seen: a uniform row.
    "mle_unseen_history": ngram_lm(vocab_of(3), 2, 0.0, {(BOS_ID,): {3: 1, 4: 1}, (3,): {EOS_ID: 1}}),
    # Every smoothed id observed: no rest id left.
    "all_observed": ngram_lm(vocab_of(2), 1, 0.5, {(): {EOS_ID: 1, 3: 2, 4: 1}}),
    # Half the mass is in the rest run, so top-k and nucleus cuts fall inside it.
    "heavy_rest": ngram_lm(vocab_of(6), 1, 1.0, {(): {3: 5}}),
    # Events no row lists (BOS; an id past the vocabulary, which only `ngram_lm` admits) still count;
    # EOS's zero count takes add_k.
    "unlisted_events": ngram_lm(vocab_of(3), 1, 0.25, {(): {BOS_ID: 2, EOS_ID: 0, UNK_ID: 1, 4: 3, 9: 5}}),
    # MLE: a loaded zero count is listed with -inf and leaves the sampling head.
    "mle_zero_count": ngram_lm(vocab_of(3), 1, 0.0, {(): {3: 2, 4: 0, EOS_ID: 1}}),
    # Forty equal values: both orders must keep them in id order.
    "many_ties": ngram_lm(vocab_of(45), 1, 0.5, {(): {t: 1 for t in range(4, 44)} | {EOS_ID: 1}}),
}
EDGE_TABULAR = tabular_model([((3, 4), 2.0), ((3,), 1.0), ((4, 3, 3), 1.0), ((UNK_ID,), 2.0)], vocab_of(2))


class RawRows:
    """Hand-written rows (ids, log-probabilities, rest) by prefix length; the last serves every longer prefix."""

    def __init__(self, num_words, rows):
        self.vocab = vocab_of(num_words)
        self._rows = rows
        self._table = RowTable(
            np.cumsum([0, *(len(ids) for ids, _, _ in rows)]),
            np.array([t for ids, _, _ in rows for t in ids], dtype=np.int64),
            np.array([lp for _, lps, _ in rows for lp in lps], dtype=float),
            np.array([rest for _, _, rest in rows]),
        )

    def next_token_row(self, prefix):
        return self._table.row(min(len(prefix), len(self._rows) - 1))

    def dense(self, prefix):
        ids, logprobs, rest = self._rows[min(len(prefix), len(self._rows) - 1)]
        out = np.full(self.vocab.num_ids, NEG_INF)
        out[EOS_ID] = out[NUM_RESERVED:] = rest
        out[ids] = logprobs
        return out


# Rows no n-gram model gives: only a foreign model's rows can meet the rest value this way.
EDGE_RAW = {
    # rest is exactly 0.0 and leaves id 3 certain at the first step: the rest run is in the support.
    "rest_zero": RawRows(1, [([EOS_ID], [NEG_INF], 0.0), ([EOS_ID], [0.0], NEG_INF)]),
    # Id 3's log-probability is one ulp above rest but its probability equals rest's: it is tied with the
    # rest run in sampling order only, and must keep its own log-probability there.
    "probability_tie_with_rest": RawRows(1, [([3], [-0.6931471805599451], -0.6931471805599452)]),
}
SEARCH_MODELS = {**EDGE_MODELS, "tabular": EDGE_TABULAR, **EDGE_RAW}
SAMPLINGS = [("ancestral", None, None)]
SAMPLINGS += [("top_k", k, None) for k in (1, 2, 3, 5, 50)]
SAMPLINGS += [("nucleus", None, p) for p in (0.05, 0.5, 0.7, 0.95, 1.0)]


def reference_dense(model, prefix):
    """The reference row of an n-gram edge model; a raw edge model's rows are their own reference."""
    return reference_row(model, prefix) if isinstance(model, NGramLM) else model.dense(prefix)


def edge_prefixes(model):
    ids = [UNK_ID, *model.vocab.surface_ids]
    return [(), *((t,) for t in ids), *((t, u) for t in ids for u in ids[:2])]


class TestRowContract:
    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    def test_rows_match_the_reference(self, name):
        model = EDGE_MODELS[name]
        for prefix in edge_prefixes(model):
            ids, logprobs, rest = model.next_token_row(prefix)[:3]
            assert ids.dtype.kind == "i" and list(ids) == sorted(set(ids.tolist()))
            assert all(EOS_ID <= t < model.vocab.num_ids for t in ids.tolist())
            assert dense_logprobs(model, prefix).tobytes() == reference_row(model, prefix).tobytes()

    @pytest.mark.parametrize("name", [*sorted(EDGE_MODELS), *sorted(EDGE_RAW)])
    def test_point_lookup_matches_the_dense_row(self, name):
        model = SEARCH_MODELS[name]
        for prefix in edge_prefixes(model):
            row = model.next_token_row(prefix)
            got = np.array([row.logprob_of(t) for t in range(model.vocab.num_ids)])
            assert got.tobytes() == dense_logprobs(model, prefix).tobytes() == reference_dense(model, prefix).tobytes()

    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    def test_bench_hook_is_the_dense_row(self, name):
        # NGramLM.next_token_logprobs stays only for bench/tracing.py; it must spread the row as the adapter does.
        model = EDGE_MODELS[name]
        for prefix in edge_prefixes(model):
            assert model.next_token_logprobs(prefix).tobytes() == dense_logprobs(model, prefix).tobytes()

    def test_rest_values(self):
        assert EDGE_MODELS["mle"].next_token_row(())[2] == NEG_INF
        unseen = EDGE_MODELS["mle_unseen_history"]
        ids, logprobs, rest = unseen.next_token_row((4,))[:3]
        assert (len(ids), len(logprobs), rest) == (0, 0, -math.log(4))
        assert unseen.next_token_row((UNK_ID,)) is unseen.next_token_row((4,))  # one row for every unseen history
        ids, logprobs, rest = EDGE_MODELS["unk_tied_with_rest"].next_token_row(())[:3]
        assert logprobs[list(ids).index(UNK_ID)] == rest

    @pytest.mark.parametrize("name", [*sorted(EDGE_MODELS), *sorted(EDGE_RAW)])
    def test_sample_view_walks_the_whole_sorted_support(self, name):
        model = SEARCH_MODELS[name]
        for prefix in edge_prefixes(model)[:4]:
            dense = reference_dense(model, prefix)
            probs = np.exp(dense)
            support = [t for t in range(len(probs)) if probs[t] > 0.0 and t != BOS_ID]
            support.sort(key=lambda t: (-probs[t], t))
            cum = np.cumsum(probs[support])
            view = _SampleRow(model.next_token_row(prefix), model.vocab.num_ids, DecodeSpec(kind="sample"))
            assert [view.token(i) for i in range(view.size)] == [(t, float(dense[t])) for t in support]
            for size in range(len(support) + 1):
                assert view.mass(size) == math.fsum(probs[support[:size]].tolist())
            for x in [0.0, *cum.tolist(), *np.nextafter(cum, 0.0).tolist(), *np.nextafter(cum, 2.0).tolist()]:
                for side in ("left", "right"):
                    assert view.position(x, side) == int(np.searchsorted(cum, x, side))

    @pytest.mark.parametrize("name", [*sorted(EDGE_MODELS), *sorted(EDGE_RAW)])
    def test_beam_view_walks_the_whole_sorted_support(self, name):
        model = SEARCH_MODELS[name]
        for prefix in edge_prefixes(model)[:4]:
            dense = reference_dense(model, prefix)
            row = model.next_token_row(prefix)
            # Every id but BOS, by log-probability descending: the finite ones, then the ids the row lists with -inf.
            support = [t for t in range(len(dense)) if t != BOS_ID and (dense[t] > NEG_INF or t in row.ids)]
            support.sort(key=lambda t: (-dense[t], t))
            view = _Support(row, (*row.beam, row.beam[1], row.rest), row.rest > NEG_INF, model.vocab.num_ids)
            assert [view.token(i) for i in range(view.size)] == [(t, float(dense[t])) for t in support]

    def test_rest_mass_is_exact(self):
        view = _SampleRow(EDGE_MODELS["inexact_rest_product"].next_token_row(()), 7, DecodeSpec(kind="sample"))
        assert view.total == 0.9999999999999999
        assert math.fsum([*view.values, view.value * view.run_len]) == 0.9999999999999998

    def test_tabular_rows(self):
        model = EDGE_TABULAR

        def extensions(prefix):
            return [(seq, p) for seq, p in model.entries.items() if seq[: len(prefix)] == prefix]

        def log_mass(prefix):
            return math.log(math.fsum(p for _, p in extensions(prefix)))

        for prefix in [(), (3,), (4,), (4, 3), (3, 4), (UNK_ID,)]:
            ids, logprobs, rest = model.next_token_row(prefix)[:3]
            assert rest == NEG_INF
            children = {seq[len(prefix)] for seq, _ in extensions(prefix) if len(seq) > len(prefix)}
            want = {t: math.log(math.fsum(p for _, p in extensions(prefix + (t,)))) - log_mass(prefix) for t in children}
            if prefix in model.entries:
                want[EOS_ID] = math.log(model.entries[prefix]) - log_mass(prefix)
            assert dict(zip(ids.tolist(), logprobs.tolist())) == want
            assert list(ids) == sorted(want)

    @pytest.mark.parametrize("name", sorted(SEARCH_MODELS))
    @pytest.mark.parametrize("strategy, top_k, top_p", SAMPLINGS)
    def test_sampling(self, name, strategy, top_k, top_p):
        model = SEARCH_MODELS[name]
        spec = DecodeSpec(kind="sample", count=6, strategy=strategy, top_k=top_k, top_p=top_p, max_len=4)
        for seed in range(12):
            fast = sample_sequences(model, spec, seed)
            ref = reference_sample_items(
                model, count=6, strategy=strategy, top_k=top_k, top_p=top_p, seed=seed, max_len=4
            )
            assert fast.items == ref

    @pytest.mark.parametrize("name", sorted(SEARCH_MODELS))
    def test_beam_search(self, name):
        model = SEARCH_MODELS[name]
        for k in (1, 2, 3, 6):
            for scoring in ("logprob", "length_normalized"):
                for gamma in (0.0, 0.5):
                    spec = DecodeSpec(beam_size=k, max_len=4, scoring=scoring, diverse_gamma=gamma)
                    assert beam_search(model, None, spec) == reference_beam_search(model, None, spec)

    def test_warm_row_cache_keeps_the_model_value(self):
        corpus = [(3, 4, 4), (4, UNK_ID), (), (5, 3)]

        def trained():
            return train_ngram_lm(corpus, order=2, add_k=0.5, vocab=vocab_of(3))

        warm, cold = trained(), trained()
        beam_search(warm, None, DecodeSpec(beam_size=3, max_len=4))
        sample_sequences(warm, DecodeSpec(kind="sample", count=5, max_len=4), 0)
        assert warm.next_token_row((4,)) is warm.next_token_row((4,))
        assert warm == cold
        warm_file, cold_file = io.StringIO(), io.StringIO()
        save_model(warm, warm_file)
        save_model(cold, cold_file)
        assert warm_file.getvalue() == cold_file.getvalue()


class TestBeamSearchOnEdgeRows:
    @pytest.mark.parametrize("name", sorted(SEARCH_MODELS))
    def test_copy_filter(self, name):
        model = SEARCH_MODELS[name]
        for source in [(3,), (3, 4, UNK_ID)]:
            for threshold in (0.0, 0.5, 1.0):
                for k in (1, 3):
                    spec = DecodeSpec(beam_size=k, max_len=4, filter_copies=threshold)
                    assert beam_search(model, source, spec) == reference_beam_search(model, source, spec)


# --- the row table ------------------------------------------------------------


def assert_presorted(row, dense, num_ids):
    """``row``'s values, read-only slices and both orders against explicit sorts over the dense reference."""
    probs = np.exp(dense)
    ids = row.ids.tolist()
    assert ids == sorted(set(ids)) and all(EOS_ID <= t < num_ids for t in ids)
    assert row.logprobs.tobytes() == dense[ids].tobytes()
    beam = sorted(ids, key=lambda t: (-dense[t], t))
    sample = [t for t in sorted(ids, key=lambda t: (-probs[t], t)) if probs[t] > 0.0]
    beam_ids, beam_logprobs = row.beam
    assert beam_ids.tolist() == beam and beam_logprobs.tobytes() == dense[beam].tobytes()
    sample_ids, sample_logprobs, sample_probs, rest_prob = row.sample
    assert sample_ids.tolist() == sample
    assert sample_logprobs.tobytes() == dense[sample].tobytes() and sample_probs.tobytes() == probs[sample].tobytes()
    rest_ids = sorted({EOS_ID, *range(NUM_RESERVED, num_ids)} - set(ids))
    if rest_ids:
        assert (row.rest, rest_prob) == (dense[rest_ids[0]], probs[rest_ids[0]])
    assert not any(a.flags.writeable for a in (row.ids, row.logprobs, *row.beam, *row.sample[:3]))


@st.composite
def table_rows(draw):
    """Rows of values with ties, probabilities that tie at distinct log-probabilities, zeros and -inf."""
    pool = st.sampled_from([NEG_INF, -800.0, -745.0, -40.0, -3.0, -1e-16, -1e-17, -0.0, 0.0])
    rows = draw(st.lists(st.lists(pool, max_size=12), min_size=1, max_size=6))
    return [(np.arange(len(r)) + EOS_ID, np.array(r, np.float64)) for r in rows]


class TestRowTable:
    @settings(max_examples=200, deadline=None)
    @given(corpora() | raw_corpora(), st.integers(1, 4), st.sampled_from([0.0, 0.01, 0.5]))
    def test_every_trained_row_is_presorted(self, vocab_corpus, order, add_k):
        vocab, corpus = vocab_corpus
        model = train_ngram_lm(corpus, order=order, add_k=add_k, vocab=vocab)
        for prefix in [*model.counts, (vocab.num_ids - 1,) * order]:  # every history, then an unseen one
            assert_presorted(model.next_token_row(prefix), reference_row(model, prefix), vocab.num_ids)

    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    def test_every_loaded_row_is_presorted(self, name):
        model = EDGE_MODELS[name]
        for prefix in [*model.counts, *edge_prefixes(model)]:
            assert_presorted(model.next_token_row(prefix), reference_row(model, prefix), model.vocab.num_ids)

    @settings(max_examples=300, deadline=None)
    @given(table_rows())
    def test_any_rows_are_presorted(self, rows):
        offsets = np.cumsum([0, *(len(ids) for ids, _ in rows)])
        rest = np.full(len(rows), NEG_INF)
        table = RowTable(offsets, np.concatenate([ids for ids, _ in rows]), np.concatenate([v for _, v in rows]), rest)
        for r, (ids, values) in enumerate(rows):
            dense = np.full(max(len(ids) + EOS_ID, NUM_RESERVED), NEG_INF)
            dense[ids] = values
            assert_presorted(table.row(r), dense, len(dense))
            assert table.row(r) is table.row(r)

    def test_the_orders_differ_where_probabilities_tie(self):
        # exp(-1e-17) and exp(0.0) both round to 1.0: by log-probability id 4 leads, by probability id 3.
        table = RowTable(np.array([0, 2]), np.array([3, 4]), np.array([-1e-17, 0.0]), np.array([NEG_INF]))
        row = table.row(0)
        assert row.beam[0].tolist() == [4, 3] and row.sample[0].tolist() == [3, 4]
        assert row.sample[2].tolist() == [1.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(corpora() | raw_corpora(), st.integers(1, 4), st.sampled_from([0.0, 0.01, 0.5]))
    def test_trained_and_loaded_copies_are_equal(self, vocab_corpus, order, add_k):
        vocab, corpus = vocab_corpus
        trained = train_ngram_lm(corpus, order=order, add_k=add_k, vocab=vocab)
        saved = saved_text(trained)
        loaded = load_model(io.StringIO(saved))
        assert loaded == trained and loaded.counts == trained.counts
        assert saved_text(loaded) == saved
        assert_same_rows(loaded, trained)


# --- model files ----------------------------------------------------------------


def saved_text(model):
    out = io.StringIO()
    save_model(model, out)
    return out.getvalue()


def assert_same_rows(got, want):
    """Every history's row, and an unseen history's, bit for bit."""
    for prefix in [*want.counts, (want.vocab.num_ids - 1,) * want.order]:
        a, b = got.next_token_row(prefix), want.next_token_row(prefix)
        assert a.rest == b.rest and a.sample[3] == b.sample[3]
        for x, y in zip((a.ids, a.logprobs, *a.beam, *a.sample[:3]), (b.ids, b.logprobs, *b.beam, *b.sample[:3])):
            assert x.tobytes() == y.tobytes()


@st.composite
def model_files(draw, min_entries=1):
    """(trained model, its saved payload with the entries and each entry's events shuffled)."""
    vocab, corpus = draw(corpora() | raw_corpora())
    order = draw(st.integers(1 if min_entries == 1 else 2, 4))
    model = train_ngram_lm(corpus, order=order, add_k=draw(st.sampled_from([0.0, 0.01, 0.5])), vocab=vocab)
    payload = json.loads(saved_text(model))
    assume(len(payload["counts"]) >= min_entries)
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(payload["counts"])
    for _, events in payload["counts"]:
        rng.shuffle(events)
    return model, payload


# Counts below 2**63 whose sum is not: it wraps an int64 sum to -2**63, -2, 0 and 2**63 - 3.
PAST_INT64 = [[2**62, 2**62], [2**63 - 1] * 2, [2**62] * 4, [2**63 - 1] * 3]


class TestModelFiles:
    @settings(max_examples=200, deadline=None)
    @given(model_files())
    def test_any_entry_order_loads_as_the_trained_model(self, model_file):
        trained, payload = model_file
        loaded = load_model(io.StringIO(json.dumps(payload)))
        assert loaded == trained and list(loaded.counts.items()) == list(trained.counts.items())
        assert saved_text(loaded) == saved_text(trained)
        assert_same_rows(loaded, trained)

    @settings(max_examples=300, deadline=None)
    @given(model_files(min_entries=2), st.sampled_from(["length", "outside", "event", "history", "negative", "total"]),
           st.data())
    def test_a_fault_in_a_later_entry_is_named(self, model_file, fault, data):
        trained, payload = model_file
        entries = payload["counts"]
        at = data.draw(st.integers(1, len(entries) - 1))
        hist, events = entries[at]
        num_ids = trained.vocab.num_ids
        if fault == "length":
            hist.append(NUM_RESERVED)
            message = f"history {hist} has {len(hist)} ids, an order-{trained.order} model needs {trained.order - 1}"
        elif fault == "outside":
            bad = data.draw(st.sampled_from([-1, num_ids, num_ids + 7]))
            events.append([bad, 1])
            message = f"event {bad} in history {hist} is outside the ids 0..{num_ids - 1}"
        elif fault == "event":
            events.insert(data.draw(st.integers(0, len(events))), [events[0][0], 3])
            message = f"event {events[0][0]} appears twice in history {hist}"
        elif fault == "history":
            entries.insert(data.draw(st.integers(at + 1, len(entries))), [list(hist), [[EOS_ID, 1]]])
            message = f"history {hist} appears twice"
        elif fault == "negative":
            events[0][1] = -1
            message = "event counts must be >= 0"
        else:
            entries[at][1] = [[e, c] for e, c in zip(range(num_ids), data.draw(st.sampled_from(PAST_INT64)))]
            message = "a history's counts must sum below 2**63"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(io.StringIO(json.dumps(payload)))


# --- the oracle's enumeration --------------------------------------------------


def assert_enumerates_like_the_reference(model, max_len):
    """Entries and total mass bit for bit, and the budget error at the reference's node count, at each floor."""
    root = dense_logprobs(model, ())
    steps = [lp for t, lp in enumerate(root.tolist()) if t not in (BOS_ID, EOS_ID) and lp > NEG_INF]
    floors = [0.0, 1e-4, 1e-2]
    if steps:  # the root's likeliest child sits exactly on this floor, and must be kept
        floors.append(math.exp(max(steps)))
    for floor in floors:
        want, nodes = reference_enumerate(model, max_len, floor)
        got = enumerate_distribution(model, max_len, floor, node_budget=nodes)
        assert [(s.tokens, s.logprob.hex()) for s in got.entries] == [(s.tokens, s.logprob.hex()) for s in want.entries]
        assert got.total_mass.hex() == want.total_mass.hex()
        if nodes > 1:
            with pytest.raises(BudgetExceededError, match=f"node budget of {nodes - 1}$"):
                enumerate_distribution(model, max_len, floor, node_budget=nodes - 1)


class TestEnumerationEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(corpora(), st.integers(1, 3), st.sampled_from([0.0, 0.01, 0.5]))
    def test_trained_models(self, vocab_corpus, order, add_k):
        vocab, corpus = vocab_corpus
        assert_enumerates_like_the_reference(train_ngram_lm(corpus, order=order, add_k=add_k, vocab=vocab), 3)

    @settings(max_examples=100, deadline=None)
    @given(tabular_models(), st.integers(1, 5))
    def test_tabular_models(self, model, max_len):
        assert_enumerates_like_the_reference(model, max_len)

    @pytest.mark.parametrize("name", [*sorted(EDGE_MODELS), "tabular", *sorted(EDGE_RAW)])
    def test_edge_models(self, name):
        assert_enumerates_like_the_reference(SEARCH_MODELS[name], 2)
