"""The corpus -> model -> search -> sample fast paths against the straightforward algorithms.

Each ``reference_*`` function below is the straightforward algorithm: the
per-line vocabulary count and tokenizer, per-event training counts, a
per-token log loop for the n-gram row, a sort of all k*V expansions for
beam search and a Python sort and walk of the whole support for sampling.
The fast paths must agree with them bit for bit, ties and rounding included.
"""

import io
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votedecode.decode import (
    CandidateSet,
    DecodeSpec,
    ScoredSequence,
    _SampleRow,
    _Support,
    beam_search,
    sample_sequences,
)
from votedecode.models import NEG_INF, NGramLM, RowTable, load_model, save_model, tabular_model, train_ngram_lm
from votedecode.sequences import (
    BOS_ID,
    EOS_ID,
    NUM_RESERVED,
    RESERVED_MARKS,
    UNK_ID,
    Vocabulary,
    build_vocabulary,
    tokenize,
)

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


def reference_train(corpus, order, add_k, vocab):
    counts = {}
    need = order - 1
    for seq in corpus:
        padded = (BOS_ID,) * need + tuple(seq)
        events = tuple(seq) + (EOS_ID,)
        for i, event in enumerate(events):
            counts.setdefault(padded[i : i + need], Counter())[event] += 1
    return NGramLM.from_counts(vocab, order, add_k, {h: dict(c) for h, c in counts.items()})


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
            logprobs = model.next_token_logprobs(hyp.tokens, context)
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
        logprobs = model.next_token_logprobs(hyp.tokens, context)
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
            lps = model.next_token_logprobs(tokens, None)
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
            logprob += float(model.next_token_logprobs(tokens, None)[EOS_ID])
        draws.append(ScoredSequence(tokens=tokens, logprob=logprob))
    draws.sort(key=lambda s: (-s.logprob, s.tokens))
    return tuple(draws)


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

    def next_token_logprobs(self, prefix, context=None):
        rng = np.random.default_rng([self._seed, len(prefix), *prefix])
        row = rng.choice(self._pool, size=self.vocab.num_ids)
        row[BOS_ID] = NEG_INF
        if row[EOS_ID] == NEG_INF:
            row[EOS_ID] = -3.0
        return row

    def next_token_row(self, prefix, context=None):
        return sparse_row(self.next_token_logprobs(prefix, context))


def vocab_of(size):
    return Vocabulary(tokens=tuple(f"w{i}" for i in range(size)))


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
        vocab = build_vocabulary(lines, lowercase=lowercase, max_size=max_size)
        assert vocab == reference_build_vocabulary(lines, lowercase, max_size)
        for text in lines + data.draw(st.lists(text_lines(), max_size=3)):
            assert tokenize(text, vocab, lowercase) == reference_tokenize(text, vocab, lowercase)


class TestNGramRows:
    @settings(max_examples=300, deadline=None)
    @given(corpora() | raw_corpora(), st.integers(1, 5), st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    def test_training_matches_per_event_counting(self, vocab_corpus, order, add_k):
        vocab, corpus = vocab_corpus
        fast = train_ngram_lm(iter(corpus), order=order, add_k=add_k, vocab=vocab)
        ref = reference_train(corpus, order, add_k, vocab)
        assert list(fast.counts.items()) == list(ref.counts.items())

    @settings(max_examples=200, deadline=None)
    @given(ngram_models(), st.data())
    def test_rows_bit_identical(self, model, data):
        for prefix in data.draw(st.lists(prefixes(model.vocab), min_size=1, max_size=5)):
            fast = model.next_token_logprobs(prefix)
            assert fast.tobytes() == reference_row(model, prefix).tobytes()

    def test_loaded_counts_outside_the_smoothed_outcomes(self):
        # Event ids a loaded file may hold: BOS, out-of-range, zero counts.
        vocab = vocab_of(3)
        counts = {(): {BOS_ID: 2, EOS_ID: 0, UNK_ID: 1, 4: 3, 9: 5}}
        for add_k in (0.0, 0.25):
            model = NGramLM.from_counts(vocab, 1, add_k, counts)
            assert model.next_token_logprobs(()).tobytes() == reference_row(model, ()).tobytes()


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
        vocab = vocab_of(3)

        class Stub:
            def __init__(self):
                self.vocab = vocab

            def next_token_logprobs(self, prefix, context=None):
                row = np.full(vocab.num_ids, NEG_INF)
                if not prefix:
                    row[5] = -40.0
                elif len(prefix) == 1:
                    row[3], row[4], row[5] = -1e-16, -0.5, 0.0
                else:
                    row[EOS_ID] = 0.0
                return row

            def next_token_row(self, prefix, context=None):
                return sparse_row(self.next_token_logprobs(prefix, context))

        spec = DecodeSpec(beam_size=1, max_len=3)
        fast = beam_search(Stub(), None, spec)
        assert fast == reference_beam_search(Stub(), None, spec)
        assert fast.items[0].tokens == (5, 3)


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
        fast = sample_sequences(model, None, spec, seed)
        ref = reference_sample_items(
            model, count=count, strategy=strategy, top_k=top_k, top_p=top_p, seed=seed, max_len=max_len
        )
        assert fast.items == ref


# --- row contract edge cases -------------------------------------------------

# Order-1 models (one history, so every step reads the same row) and one
# order-2 model, each set up so the head and the shared rest value meet in a
# particular way.  Vocabulary ids run 3..num_ids-1.
EDGE_MODELS = {
    # UNK's count equals add_k: its value ties with rest and joins the rest run by id.
    "unk_tied_with_rest": NGramLM.from_counts(vocab_of(4), 1, 1.0, {(): {EOS_ID: 2, UNK_ID: 1, 4: 3}}),
    # UNK's count is below add_k: its value sorts after the rest run.
    "unk_below_rest": NGramLM.from_counts(vocab_of(4), 1, 2.0, {(): {UNK_ID: 1, 5: 4, EOS_ID: 1}}),
    # A loaded zero count ties id 5 with rest inside the run (ids 1, 4, 5, 6), and UNK follows the run.
    "tied_inside_run": NGramLM.from_counts(vocab_of(4), 1, 2.0, {(): {3: 3, 5: 0, UNK_ID: 1}}),
    # rest * 3 rounds: fsum with the rounded product gives 0.9999999999999998, not 0.9999999999999999.
    "inexact_rest_product": NGramLM.from_counts(vocab_of(4), 1, 1.0, {(): {3: 3, 4: 1}}),
    # MLE: rest is -inf, the support is the head alone.
    "mle": NGramLM.from_counts(vocab_of(4), 1, 0.0, {(): {3: 2, 5: 1, UNK_ID: 1, EOS_ID: 1}}),
    # MLE, and every prefix but (3,) reaches a history never seen: a uniform row.
    "mle_unseen_history": NGramLM.from_counts(vocab_of(3), 2, 0.0, {(BOS_ID,): {3: 1, 4: 1}, (3,): {EOS_ID: 1}}),
    # Every smoothed id observed: no rest id left.
    "all_observed": NGramLM.from_counts(vocab_of(2), 1, 0.5, {(): {EOS_ID: 1, 3: 2, 4: 1}}),
    # Half the mass is in the rest run, so top-k and nucleus cuts fall inside it.
    "heavy_rest": NGramLM.from_counts(vocab_of(6), 1, 1.0, {(): {3: 5}}),
    # Events no row lists (BOS; an id past the vocabulary, which only `from_counts` admits) still count;
    # EOS's zero count takes add_k.
    "unlisted_events": NGramLM.from_counts(vocab_of(3), 1, 0.25, {(): {BOS_ID: 2, EOS_ID: 0, UNK_ID: 1, 4: 3, 9: 5}}),
    # MLE: a loaded zero count is listed with -inf and leaves the sampling head.
    "mle_zero_count": NGramLM.from_counts(vocab_of(3), 1, 0.0, {(): {3: 2, 4: 0, EOS_ID: 1}}),
    # Forty equal values: both orders must keep them in id order.
    "many_ties": NGramLM.from_counts(vocab_of(45), 1, 0.5, {(): {t: 1 for t in range(4, 44)} | {EOS_ID: 1}}),
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

    def next_token_row(self, prefix, context=None):
        return self._table.row(min(len(prefix), len(self._rows) - 1))

    def next_token_logprobs(self, prefix, context=None):
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
    return reference_row(model, prefix) if isinstance(model, NGramLM) else model.next_token_logprobs(prefix)


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
            assert model.next_token_logprobs(prefix).tobytes() == reference_row(model, prefix).tobytes()

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
            fast = sample_sequences(model, None, spec, seed)
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
        sample_sequences(warm, None, DecodeSpec(kind="sample", count=5, max_len=4), 0)
        assert warm.next_token_row((4,)) is warm.next_token_row((4,))
        assert warm == cold
        warm_file, cold_file = io.StringIO(), io.StringIO()
        save_model(warm, warm_file)
        save_model(cold, cold_file)
        assert warm_file.getvalue() == cold_file.getvalue()


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
        saved = io.StringIO()
        save_model(trained, saved)
        loaded = load_model(io.StringIO(saved.getvalue()))
        assert loaded == trained and loaded.counts == trained.counts
        resaved = io.StringIO()
        save_model(loaded, resaved)
        assert resaved.getvalue() == saved.getvalue()
        for prefix in [*trained.counts, (vocab.num_ids - 1,) * order]:
            want, got = trained.next_token_row(prefix), loaded.next_token_row(prefix)
            assert got.rest == want.rest and got.sample[3] == want.sample[3]
            for a, b in zip((got.ids, got.logprobs, *got.beam, *got.sample[:3]),
                            (want.ids, want.logprobs, *want.beam, *want.sample[:3])):
                assert a.tobytes() == b.tobytes()
