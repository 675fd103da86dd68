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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votedecode.decode import (
    CandidateSet,
    DecodeSpec,
    ScoredSequence,
    _Hyp,
    _hyp_sort_key,
    _SampleRow,
    beam_search,
    sample_sequences,
)
from votedecode.models import NEG_INF, NGramLM, save_model, tabular_model, train_ngram_lm
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
    return NGramLM(vocab=vocab, order=order, add_k=add_k, counts={h: dict(c) for h, c in counts.items()})


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


def reference_beam_search(model, context, spec):
    k = spec.beam_size
    live = [_Hyp(tokens=(), logprob=0.0, penalty=0.0)]
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
        finished.append(_Hyp(tokens=hyp.tokens, logprob=total, penalty=hyp.penalty))

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
                    _Hyp(
                        tokens=hyp.tokens + (token,),
                        logprob=hyp.logprob + step_lp,
                        penalty=hyp.penalty + spec.diverse_gamma * (rank - 1),
                    )
                )
        expansions.sort(key=lambda h: _hyp_sort_key(h, spec.scoring))
        live = expansions[:k]
        depth += 1
        if early_stop and len(finished) >= k and live:
            bar = sorted(h.search_score(spec.scoring) for h in finished)[-k]
            if max(h.search_score(spec.scoring) for h in live) < bar:
                live = []
                break

    for hyp in live:
        logprobs = model.next_token_logprobs(hyp.tokens, context)
        finish(hyp, float(logprobs[EOS_ID]))

    finished.sort(key=lambda h: _hyp_sort_key(h, spec.scoring))
    items = tuple(ScoredSequence(tokens=h.tokens, logprob=h.logprob) for h in finished[:k])
    return CandidateSet(items=items, provenance=f"beam({spec})")


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
    return ids, dense[ids], NEG_INF


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
            model = NGramLM(vocab=vocab, order=1, add_k=add_k, counts=counts)
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
        fast = sample_sequences(
            model, count=count, strategy=strategy, top_k=top_k, top_p=top_p, seed=seed, max_len=max_len
        )
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
    "unk_tied_with_rest": NGramLM(vocab_of(4), 1, 1.0, {(): {EOS_ID: 2, UNK_ID: 1, 4: 3}}),
    # UNK's count is below add_k: its value sorts after the rest run.
    "unk_below_rest": NGramLM(vocab_of(4), 1, 2.0, {(): {UNK_ID: 1, 5: 4, EOS_ID: 1}}),
    # A loaded zero count ties id 5 with rest inside the run (ids 1, 4, 5, 6), and UNK follows the run.
    "tied_inside_run": NGramLM(vocab_of(4), 1, 2.0, {(): {3: 3, 5: 0, UNK_ID: 1}}),
    # rest * 3 rounds: fsum with the rounded product gives 0.9999999999999998, not 0.9999999999999999.
    "inexact_rest_product": NGramLM(vocab_of(4), 1, 1.0, {(): {3: 3, 4: 1}}),
    # MLE: rest is -inf, the support is the head alone.
    "mle": NGramLM(vocab_of(4), 1, 0.0, {(): {3: 2, 5: 1, UNK_ID: 1, EOS_ID: 1}}),
    # MLE, and every prefix but (3,) reaches a history never seen: a uniform row.
    "mle_unseen_history": NGramLM(vocab_of(3), 2, 0.0, {(BOS_ID,): {3: 1, 4: 1}, (3,): {EOS_ID: 1}}),
    # Every smoothed id observed: no rest id left.
    "all_observed": NGramLM(vocab_of(2), 1, 0.5, {(): {EOS_ID: 1, 3: 2, 4: 1}}),
    # Half the mass is in the rest run, so top-k and nucleus cuts fall inside it.
    "heavy_rest": NGramLM(vocab_of(6), 1, 1.0, {(): {3: 5}}),
}
EDGE_TABULAR = tabular_model([((3, 4), 2.0), ((3,), 1.0), ((4, 3, 3), 1.0), ((UNK_ID,), 2.0)], vocab_of(2))
SAMPLINGS = [("ancestral", None, None)]
SAMPLINGS += [("top_k", k, None) for k in (1, 2, 3, 5, 50)]
SAMPLINGS += [("nucleus", None, p) for p in (0.05, 0.5, 0.7, 0.95, 1.0)]


def edge_prefixes(model):
    ids = [UNK_ID, *model.vocab.surface_ids]
    return [(), *((t,) for t in ids), *((t, u) for t in ids for u in ids[:2])]


class TestRowContract:
    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    def test_rows_match_the_reference(self, name):
        model = EDGE_MODELS[name]
        for prefix in edge_prefixes(model):
            ids, logprobs, rest = model.next_token_row(prefix)
            assert ids.dtype.kind == "i" and list(ids) == sorted(set(ids.tolist()))
            assert all(EOS_ID <= t < model.vocab.num_ids for t in ids.tolist())
            assert model.next_token_logprobs(prefix).tobytes() == reference_row(model, prefix).tobytes()

    def test_rest_values(self):
        assert EDGE_MODELS["mle"].next_token_row(())[2] == NEG_INF
        unseen = EDGE_MODELS["mle_unseen_history"]
        ids, logprobs, rest = unseen.next_token_row((4,))
        assert (len(ids), len(logprobs), rest) == (0, 0, -math.log(4))
        assert unseen.next_token_row((UNK_ID,)) is unseen.next_token_row((4,))  # one row for every unseen history
        ids, logprobs, rest = EDGE_MODELS["unk_tied_with_rest"].next_token_row(())
        assert logprobs[list(ids).index(UNK_ID)] == rest

    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    def test_sample_view_walks_the_whole_sorted_support(self, name):
        model = EDGE_MODELS[name]
        for prefix in edge_prefixes(model)[:4]:
            dense = reference_row(model, prefix)
            probs = np.exp(dense)
            support = [t for t in range(len(probs)) if probs[t] > 0.0 and t != BOS_ID]
            support.sort(key=lambda t: (-probs[t], t))
            cum = np.cumsum(probs[support])
            view = _SampleRow(model.next_token_row(prefix), model.vocab.num_ids, "ancestral", None, None)
            assert [view.token(i) for i in range(len(support))] == [(t, float(dense[t])) for t in support]
            for size in range(len(support) + 1):
                assert view.mass(size) == math.fsum(probs[support[:size]].tolist())
            for x in [0.0, *cum.tolist(), *np.nextafter(cum, 0.0).tolist(), *np.nextafter(cum, 2.0).tolist()]:
                for side in ("left", "right"):
                    assert view.position(x, side) == int(np.searchsorted(cum, x, side))

    def test_rest_mass_is_exact(self):
        view = _SampleRow(EDGE_MODELS["inexact_rest_product"].next_token_row(()), 7, "ancestral", None, None)
        assert view.total == 0.9999999999999999
        assert math.fsum([*view.probs, view.rest_p * view.run_len]) == 0.9999999999999998

    def test_tabular_rows(self):
        model = EDGE_TABULAR
        for prefix in [(), (3,), (4,), (4, 3), (3, 4), (UNK_ID,)]:
            ids, logprobs, rest = model.next_token_row(prefix)
            assert rest == NEG_INF
            mass = model._mass[prefix]
            want = {t: math.log(model._mass[prefix + (t,)]) - math.log(mass) for t in model._children.get(prefix, ())}
            if prefix in model.entries:
                want[EOS_ID] = math.log(model.entries[prefix]) - math.log(mass)
            assert dict(zip(ids.tolist(), logprobs.tolist())) == want
            assert list(ids) == sorted(want)

    @pytest.mark.parametrize("name", [*sorted(EDGE_MODELS), "tabular"])
    @pytest.mark.parametrize("strategy, top_k, top_p", SAMPLINGS)
    def test_sampling(self, name, strategy, top_k, top_p):
        model = EDGE_MODELS.get(name, EDGE_TABULAR)
        for seed in range(12):
            fast = sample_sequences(model, count=6, strategy=strategy, top_k=top_k, top_p=top_p, seed=seed, max_len=4)
            ref = reference_sample_items(
                model, count=6, strategy=strategy, top_k=top_k, top_p=top_p, seed=seed, max_len=4
            )
            assert fast.items == ref

    @pytest.mark.parametrize("name", [*sorted(EDGE_MODELS), "tabular"])
    def test_beam_search(self, name):
        model = EDGE_MODELS.get(name, EDGE_TABULAR)
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
        sample_sequences(warm, count=5, seed=0, max_len=4)
        assert warm.next_token_row((4,)) is warm.next_token_row((4,))
        assert warm == cold
        warm_file, cold_file = io.StringIO(), io.StringIO()
        save_model(warm, warm_file)
        save_model(cold, cold_file)
        assert warm_file.getvalue() == cold_file.getvalue()
