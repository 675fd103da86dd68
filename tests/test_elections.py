"""The bulk n-gram election and the BLEU sufficient statistics against pairwise references.

``reference_vote`` is the pairwise election: one ``conftest.pairwise_sim``
call per (voter, candidate) pair, weighted and summed with ``math.fsum`` in
voter order.  ``reference_bleu_sim`` and ``reference_corpus_bleu`` recount
every n-gram bag for every call, and ``reference_bootstrap`` draws one
resample at a time.  The fast paths must agree with them exactly: scores,
contributions and p-values are compared with ``==``, not approximately.
"""

import math
import random
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from votedecode import metrics, voting
from votedecode.decode import CandidateSet, ScoredSequence
from votedecode.metrics import bleu_from_stats, bleu_from_stats_array, bleu_stats, evaluate_system, paired_bootstrap
from votedecode.models import NEG_INF
from votedecode.voting import SimilaritySpec, range_vote

from conftest import ngram_bag, pairwise_sim, reference_bleu_sim

# --- reference algorithms ----------------------------------------------------


def corpus_bleu(hyps, refs, max_n):
    """The package's corpus BLEU at ``max_n``: the last BLEU column of the report row."""
    return evaluate_system("system", hyps, refs, max_n=max_n).bleu[-1]


def reference_corpus_bleu(hyps, refs, max_n=4):
    matched = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    hyp_len = 0
    ref_len = 0
    for hyp, ref_list in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += min((len(r) for r in ref_list), key=lambda L: (abs(L - len(hyp)), L))
        for n in range(1, max_n + 1):
            bag_h = ngram_bag(hyp, n)
            clip = Counter()
            for ref in ref_list:
                bag_r = ngram_bag(ref, n)
                for g in bag_h:
                    clip[g] = max(clip[g], bag_r.get(g, 0))
            matched[n] += sum(min(count, clip[g]) for g, count in bag_h.items())
            total[n] += sum(bag_h.values())
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if matched[n] == 0 or total[n] == 0:
            return 0.0
        log_sum += math.log(matched[n] / total[n])
    score = math.exp(log_sum / max_n)
    if hyp_len < ref_len:
        score *= math.exp(1.0 - ref_len / hyp_len)
    return score


def reference_vote(candidates, voters, spec):
    """(ranking, scores, contributions) of the pairwise election."""
    fn = pairwise_sim(spec)
    max_lp = max(v.logprob for v in voters.items)
    if max_lp == NEG_INF:
        weights = [0.0] * len(voters.items)
        scale = 0.0
    else:
        weights = [math.exp(v.logprob - max_lp) for v in voters.items]
        scale = math.exp(max_lp)
    per_cand = [[w * fn(v.tokens, c.tokens) for w, v in zip(weights, voters.items)] for c in candidates.items]
    shifted = [math.fsum(row) for row in per_cand]
    order = sorted(
        range(len(candidates.items)),
        key=lambda i: (-shifted[i], -candidates.items[i].logprob, candidates.items[i].tokens),
    )
    ranking = tuple(candidates.items[i] for i in order)
    scores = tuple(scale * shifted[i] for i in order)
    contributions = tuple(
        tuple(scale * per_cand[i][v] for i in order) for v in range(len(voters.items))
    )
    return ranking, scores, contributions


def reference_bootstrap(hyps_a, hyps_b, refs, metric, n_bootstrap, seed):
    """The paired bootstrap one resample at a time: one draw call and two ``metric`` calls per resample."""
    rng = np.random.default_rng(seed)
    n = len(refs)
    losses = 0
    for _ in range(n_bootstrap):
        idx = rng.integers(0, n, size=n)
        sample_r = [refs[i] for i in idx]
        losses += metric([hyps_a[i] for i in idx], sample_r) <= metric([hyps_b[i] for i in idx], sample_r)
    return losses / n_bootstrap


# --- strategies ----------------------------------------------------------------

# A three-token alphabet makes repeated tokens and shared higher-order
# n-grams common; lengths 0..9 cover empty sequences and ones shorter than n.
tokens = st.lists(st.integers(min_value=3, max_value=5), max_size=9).map(tuple)
logprobs = st.one_of(st.floats(min_value=-60.0, max_value=0.0), st.just(NEG_INF))
scored = st.builds(ScoredSequence, tokens=tokens, logprob=logprobs)


# Wide ids from a small pool: grams still repeat, and sequences up to 40
# tokens give enough distinct grams that columns span several gram blocks.
wide_tokens = st.lists(st.sampled_from([3, 7, 10**6, 10**6 + 1, 2**40, 2**62]), max_size=40).map(tuple)
wide_scored = st.builds(ScoredSequence, tokens=wide_tokens, logprob=logprobs)


@st.composite
def elections(draw, scored=scored):
    cands = draw(st.lists(scored, min_size=1, max_size=6))
    voters = draw(st.lists(scored, min_size=1, max_size=8))
    # Duplicate voters, and candidates that also vote.
    voters += draw(st.lists(st.sampled_from(voters + cands), max_size=4))
    return CandidateSet(items=tuple(cands)), CandidateSet(items=tuple(voters))


NGRAM_SPECS = [
    *(SimilaritySpec(kind=kind, n=n) for kind in ("prec", "overl") for n in (1, 2, 3)),
    SimilaritySpec(kind="bleu", max_n=4),
    SimilaritySpec(kind="bleu", max_n=2),
    SimilaritySpec(kind="smoothed_bleu", max_n=4),
]

# --- elections -------------------------------------------------------------------


class TestBulkElection:
    @settings(max_examples=150, deadline=None)
    @given(elections(), st.sampled_from(NGRAM_SPECS), st.sampled_from([1, 3, voting._GRAM_BLOCK]))
    def test_matches_pairwise_reference(self, election, spec, block):
        cands, voters = election
        # Tiny gram blocks split the kernel's columns over many blocks.
        with patch.object(voting, "_GRAM_BLOCK", block):
            result = range_vote(cands, voters, spec, with_contributions=True)
        ranking, scores, contributions = reference_vote(cands, voters, spec)
        assert result.ranking == ranking
        assert result.scores == scores
        assert result.contributions == contributions

    @settings(max_examples=80, deadline=None)
    @given(elections(wide_scored), st.sampled_from(NGRAM_SPECS), st.sampled_from([1, 4, voting._GRAM_BLOCK]))
    def test_wide_ids_and_long_sequences(self, election, spec, block):
        cands, voters = election
        with patch.object(voting, "_GRAM_BLOCK", block):
            result = range_vote(cands, voters, spec, with_contributions=True)
        assert (result.ranking, result.scores, result.contributions) == reference_vote(cands, voters, spec)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tokens, min_size=1, max_size=5), st.lists(tokens, min_size=1, max_size=5), st.sampled_from(NGRAM_SPECS))
    def test_similarity_matrix_is_the_scalar_similarity(self, voters, cands, spec):
        fn = pairwise_sim(spec)
        matrix = voting._similarity_matrix(voters, cands, spec)
        assert matrix.tolist() == [[fn(v, c) for c in cands] for v in voters]

    def test_rerank_sized_bleu_election_sorts_once_in_its_epilogue(self):
        """200 voters x 40 candidates from near-duplicate families over 40 words, as a rerank row.

        Every integer lookup of the epilogue takes the presence table; the one
        ``np.unique`` left is the float lookup of exp per distinct log_sum.
        """
        rng = random.Random(7)
        stems = [[rng.randrange(3, 43) for _ in range(11)] for _ in range(4)]

        def member():
            tokens = list(rng.choice(stems))
            for _ in range(rng.randint(1, 3)):
                tokens.insert(rng.randrange(len(tokens)), rng.randrange(3, 43))
                del tokens[rng.randrange(len(tokens))]
            return ScoredSequence(tokens=tuple(tokens[: rng.randint(6, 14)]), logprob=-rng.uniform(5.0, 20.0))

        cands = CandidateSet(items=tuple(member() for _ in range(40)))
        voters = CandidateSet(items=tuple(member() for _ in range(200)))
        spec = SimilaritySpec(kind="bleu", max_n=4)
        sorts = []

        def epilogue(*args, **kwargs):
            with patch.object(np, "unique", wraps=np.unique) as unique:
                scores = bleu_from_stats_array(*args, **kwargs)
            sorts.append(unique.call_count)
            return scores

        with patch.object(voting, "bleu_from_stats_array", epilogue):
            result = range_vote(cands, voters, spec, with_contributions=True)
        assert sorts == [1]
        assert (result.ranking, result.scores, result.contributions) == reference_vote(cands, voters, spec)

    def test_all_minus_infinity_voters(self):
        item = ScoredSequence(tokens=(3, 4), logprob=NEG_INF)
        cands = CandidateSet(items=(ScoredSequence(tokens=(3,), logprob=-1.0), item))
        voters = CandidateSet(items=(item, item))
        result = range_vote(cands, voters, SimilaritySpec(kind="prec", n=1), with_contributions=True)
        ranking, scores, contributions = reference_vote(cands, voters, SimilaritySpec(kind="prec", n=1))
        assert (result.ranking, result.scores, result.contributions) == (ranking, scores, contributions)
        assert result.scores == (0.0, 0.0)

    # Elections whose fsums leave out a whole column, a whole row, or every vote as zero.
    ZERO_VOTES = {
        "candidate sharing no gram": (
            [((3, 4, 5, 6), -1.0), ((7, 8), -0.5), ((3, 4, 5, 9), -2.0)],
            [((3, 4, 5, 6), -1.0), ((3, 4, 5, 6, 9), -2.0), ((4, 5, 6), -0.5)],
        ),
        "voter sharing no gram": (
            [((3, 4, 5, 6), -1.0), ((4, 5, 6, 3), -2.0)],
            [((3, 4, 5, 6), -1.0), ((9, 10, 11), -0.1), ((5, 6, 3, 4), -3.0)],
        ),
        "every voter at -inf": (
            [((3, 4), -1.0), ((3,), -2.0)],
            [((3, 4), NEG_INF), ((4,), NEG_INF)],
        ),
    }

    @pytest.mark.parametrize("spec", NGRAM_SPECS, ids=lambda spec: f"{spec.name}{spec.max_n or ''}")
    @pytest.mark.parametrize("case", sorted(ZERO_VOTES))
    def test_zero_votes_leave_the_election_unchanged(self, case, spec):
        cands, voters = (CandidateSet(tuple(ScoredSequence(t, lp) for t, lp in items)) for items in self.ZERO_VOTES[case])
        result = range_vote(cands, voters, spec, with_contributions=True)
        assert (result.ranking, result.scores, result.contributions) == reference_vote(cands, voters, spec)
        if case == "candidate sharing no gram":
            assert dict(zip((c.tokens for c in result.ranking), result.scores))[(7, 8)] == 0.0
        elif case == "voter sharing no gram":
            assert result.contributions[1] == (0.0, 0.0)
        else:
            assert result.scores == (0.0, 0.0)


def order_needed(spec):
    """The fewest tokens a sequence needs to score above 0 under ``spec``: n, max_n for bleu, 1 for smoothed_bleu."""
    return {"prec": spec.n, "overl": spec.n, "bleu": spec.max_n}.get(spec.kind, 1)


def positive_zero(x):
    return x == 0.0 and math.copysign(1.0, x) == 1.0


@st.composite
def short_and_long_elections(draw, spec):
    """Voters and candidates mixing sequences of 0..need-1 tokens (dead) with longer ones (live).

    Each side is all dead, all live or mixed, so the drawn elections cover
    no live voter, no live candidate, a fully live election and the sub-elections between.
    """
    need = order_needed(spec)
    dead = st.lists(st.integers(min_value=3, max_value=5), max_size=need - 1).map(tuple)
    live = st.lists(st.integers(min_value=3, max_value=5), min_size=need, max_size=need + 6).map(tuple)
    sides = []
    for side, max_size in (("candidates", 6), ("voters", 8)):
        mix = draw(st.sampled_from(["dead", "live", "mixed"]))
        seqs = {"dead": dead, "live": live, "mixed": st.one_of(dead, live)}[mix]
        items = draw(st.lists(st.builds(ScoredSequence, tokens=seqs, logprob=logprobs), min_size=1, max_size=max_size))
        sides.append(CandidateSet(items=tuple(items)))
        event(f"{side} {mix}")
    return tuple(sides)


class TestSequencesTooShortToScore:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(NGRAM_SPECS).flatmap(lambda spec: st.tuples(st.just(spec), short_and_long_elections(spec))))
    def test_matches_pairwise_reference_and_dead_scores_are_plus_zero(self, case):
        spec, (cands, voters) = case
        need = order_needed(spec)
        result = range_vote(cands, voters, spec, with_contributions=True)
        assert (result.ranking, result.scores, result.contributions) == reference_vote(cands, voters, spec)
        sims = voting._similarity_matrix([v.tokens for v in voters.items], [c.tokens for c in cands.items], spec)
        for v, voter in enumerate(voters.items):
            for c, cand in enumerate(cands.items):
                if len(voter.tokens) < need or len(cand.tokens) < need:
                    assert positive_zero(sims[v, c])
        for cand, score in zip(result.ranking, result.scores):
            if len(cand.tokens) < need:
                assert positive_zero(score)
        for voter, row in zip(voters.items, result.contributions):
            if len(voter.tokens) < need:
                assert all(map(positive_zero, row))

    DEAD = [ScoredSequence((3,), -1.0), ScoredSequence((), -2.0), ScoredSequence((3, 4, 5), -0.5)]
    LIVE = [ScoredSequence((3, 4, 5, 6), -1.5), ScoredSequence((4, 5, 6, 3, 4), -0.7)]

    @pytest.mark.parametrize("cands, voters", [(DEAD, DEAD + LIVE), (DEAD + LIVE, DEAD), (DEAD, DEAD)],
                             ids=["no-live-candidate", "no-live-voter", "nothing-live"])
    def test_an_election_with_nothing_live_codes_nothing(self, cands, voters):
        spec = SimilaritySpec(kind="bleu", max_n=4)
        with patch.object(voting, "gram_codes", side_effect=AssertionError("gram_codes was called")):
            result = range_vote(CandidateSet(tuple(cands)), CandidateSet(tuple(voters)), spec, with_contributions=True)
        assert all(map(positive_zero, result.scores))
        assert all(positive_zero(x) for row in result.contributions for x in row)

    @pytest.mark.parametrize("spec", [SimilaritySpec(kind="bleu", max_n=4), SimilaritySpec(kind="prec", n=4)],
                             ids=lambda spec: spec.name)
    def test_a_mixed_election_codes_only_its_live_sequences(self, spec):
        cands = CandidateSet((self.DEAD[0], self.LIVE[0], self.DEAD[2]))
        voters = CandidateSet((self.LIVE[1], self.DEAD[1], self.LIVE[0]))
        with patch.object(voting, "gram_codes", wraps=voting.gram_codes) as codes:
            result = range_vote(cands, voters, spec, with_contributions=True)
        coded = [s.tokens for s in (self.LIVE[1], self.LIVE[0], self.LIVE[0])]  # live voters, then live candidates
        assert [call.args for call in codes.call_args_list] == [(coded, 4)]
        assert (result.ranking, result.scores, result.contributions) == reference_vote(cands, voters, spec)


# --- BLEU statistics ----------------------------------------------------------------

refs_lists = st.lists(tokens, min_size=1, max_size=3).map(tuple)


@st.composite
def bleu_stat_rows(draw):
    """Rows of one max_n (1..4): real segment statistics, summed ones, and hand-made edge rows.

    Edge rows hold zero matches, zero totals, hyp_len 0 (with zero totals,
    as every real row has) and hypotheses shorter than the reference.
    """
    max_n = draw(st.integers(min_value=1, max_value=4))
    counts = st.integers(min_value=0, max_value=12)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        kind = draw(st.sampled_from(["segment", "edge", "summed"]))
        if kind == "edge":
            hyp_len = draw(counts)
            matched = draw(st.lists(counts, min_size=max_n, max_size=max_n))
            totals = [0] * max_n if hyp_len == 0 else draw(st.lists(counts, min_size=max_n, max_size=max_n))
            rows.append((hyp_len, draw(counts), *matched, *totals))
        else:
            segments = draw(st.lists(st.tuples(tokens, refs_lists), min_size=1, max_size=1 if kind == "segment" else 5))
            rows.append(tuple(map(sum, zip(*(bleu_stats(h, r, max_n) for h, r in segments)))))
    return rows


@st.composite
def epilogue_rows(draw, route):
    """Statistics rows (max_n 1..4) sized for one ``_per_distinct`` route.

    ``table``: 60..150 short segments with matches at every order, whose keys
    span fewer values than there are pairs, plus a few with a zero match or
    hyp_len 0 (and zero totals).  ``sort``: one to five long segments, whose
    keys span far more, with zero matches common.
    """
    max_n = draw(st.integers(min_value=1, max_value=4))
    table = route == "table"
    counts = st.integers(min_value=int(table), max_value=4 if table else 10**4)
    rows = []
    for _ in range(draw(st.integers(min_value=60, max_value=150) if table else st.integers(1, 5))):
        hyp_len = draw(counts)
        totals = [0] * max_n if hyp_len == 0 else draw(st.lists(counts, min_size=max_n, max_size=max_n))
        matched = [draw(st.integers(min_value=min(int(table), t), max_value=t)) for t in totals]
        rows.append((hyp_len, draw(st.integers(min_value=0, max_value=6 if table else 10**4)), *matched, *totals))
    for row in draw(st.lists(st.sampled_from(rows), max_size=6)) if table else ():
        n = draw(st.integers(min_value=0, max_value=max_n - 1))
        rows.append(row[: 2 + n] + (0,) + row[3 + n :])  # a zero match at order n + 1
    if table and draw(st.booleans()):
        rows.append((0, 3, *[0] * 2 * max_n))
    return rows


class TestBleuStatistics:
    @settings(max_examples=200, deadline=None)
    @given(tokens, tokens, st.integers(min_value=1, max_value=4), st.booleans())
    def test_sentence_bleu_bit_for_bit(self, v, c, max_n, smoothed):
        want = reference_bleu_sim(v, c, max_n, smoothed)
        spec = SimilaritySpec(kind="smoothed_bleu" if smoothed else "bleu", max_n=max_n)
        assert voting._similarity_matrix([v], [c], spec).tolist() == [[want]]
        assert bleu_from_stats(bleu_stats(c, [v], max_n), smoothed=smoothed) == want

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(tokens, refs_lists), min_size=1, max_size=6), st.integers(min_value=1, max_value=4))
    def test_corpus_bleu_bit_for_bit(self, segments, max_n):
        hyps = [h for h, _ in segments]
        refs = [r for _, r in segments]
        assert corpus_bleu(hyps, refs, max_n) == reference_corpus_bleu(hyps, refs, max_n)

    @settings(max_examples=150, deadline=None)
    @given(bleu_stat_rows(), st.booleans())
    def test_array_epilogue_bit_for_bit(self, rows, smoothed):
        want = [bleu_from_stats(row, smoothed=smoothed) for row in rows]
        got = bleu_from_stats_array(np.array(rows, dtype=np.int64).T, smoothed=smoothed)
        assert got.dtype == np.float64
        assert got.tolist() == want

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["table", "sort"]).flatmap(lambda route: st.tuples(st.just(route), epilogue_rows(route))),
           st.booleans())
    def test_both_epilogue_routes_bit_for_bit(self, case, smoothed):
        route, rows = case
        want = np.array([bleu_from_stats(row, smoothed=smoothed) for row in rows], dtype=np.float64)
        with patch.object(np, "unique", wraps=np.unique) as unique:
            got = bleu_from_stats_array(np.array(rows, dtype=np.int64).T, smoothed=smoothed)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        # `--hypothesis-show-statistics` shows the split: table-shaped rows mostly sort once (the float lookup).
        event(f"{route} route, {unique.call_count} np.unique calls")

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(["0-d", "1-d", "broadcast"]), st.sampled_from(["none", "few", "all"]),
           st.integers(min_value=1, max_value=4), st.booleans())
    def test_live_only_epilogue_bit_for_bit(self, data, layout, live, max_n, smoothed):
        """0-d, 1-d and an election's (V, 1) x (C,) statistics, with no, a few or only live segments.

        hyp_len and the totals are per candidate, ref_len per voter and the
        matches per pair; ``few`` zeroes most order-1 matches, ``none`` all.
        """
        grid = {"0-d": (), "1-d": (data.draw(st.integers(1, 12)),),
                "broadcast": (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))}[layout]
        per_voter = (grid[0], 1) if layout == "broadcast" else grid

        def array(shape, values):
            size = math.prod(shape)
            return np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype=np.int64).reshape(shape)

        hyp_len = array(grid[-1:], st.integers(max_n if live == "all" else 0, 12))
        ref_len = array(per_voter, st.integers(0, 12))
        totals = [np.maximum(hyp_len - n + 1, 0) for n in range(1, max_n + 1)]
        lowest = int(live == "all")
        matched = [lowest + (t - lowest) * array(grid, st.integers(0, 1000)) // 1000 for t in totals]
        if live != "all":
            matched[0] = matched[0] * (array(grid, st.integers(0, 3)) == 0 if live == "few" else 0)
        stats = [hyp_len, ref_len, *matched, *totals]
        rows = zip(*(np.broadcast_to(s, grid).ravel().tolist() for s in stats))
        want = np.array([bleu_from_stats(row, smoothed=smoothed) for row in rows]).reshape(grid)
        got = bleu_from_stats_array(stats, smoothed=smoothed)
        assert got.shape == grid
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        if live != "few":
            assert got.all() if live == "all" else not got.any()
        event(f"{layout}, {live} live")

    def test_epilogue_routes_follow_the_key_range(self):
        """Short statistics of many pairs take the presence table, long ones of few pairs the sort."""
        short = np.array([(3, 4, 2, 1, 3, 2)] * 20 + [(2, 2, 1, 0, 2, 1)] * 20, dtype=np.int64).T
        long = np.array([(900, 1000, 700, 500, 900, 899)] * 3, dtype=np.int64).T
        for stats, sorts in ((short, 1), (long, 4)):  # the float lookup; + two orders and the brevity penalty
            with patch.object(np, "unique", wraps=np.unique) as unique:
                bleu_from_stats_array(stats, smoothed=True)
            assert unique.call_count == sorts

    def test_array_epilogue_broadcasts_its_statistics(self):
        # Rows: a brevity penalty, none.  Columns: all matched, a zero match, hyp_len 0 with zero totals.
        hyp_len, ref_len = np.array([3, 3, 0]), np.array([[4], [2]])
        matched, totals = [np.array([2, 2, 0]), np.array([1, 0, 0])], [np.array([3, 3, 0]), np.array([2, 2, 0])]
        got = bleu_from_stats_array([hyp_len, ref_len, *matched, *totals])
        assert got.shape == (2, 3)
        want = [[bleu_from_stats((h, r, m1, m2, t1, t2)) for h, m1, m2, t1, t2 in zip(hyp_len, *matched, *totals)]
                for r in (4, 2)]
        assert got.tolist() == want
        assert want[0][0] < want[1][0] and want[0][1] == want[0][2] == 0.0

    def test_stats_layout(self):
        # hyp_len, closest ref_len (tie -> shorter), matched_1..2, total_1..2
        assert bleu_stats((3, 3, 4), [(3, 4, 4, 5), (3, 3)], max_n=2) == (3, 2, 3, 2, 3, 2)

    def test_stats_errors(self):
        with pytest.raises(ValueError, match="max_n"):
            bleu_stats((3,), [(3,)], max_n=0)
        with pytest.raises(ValueError, match="at least one reference"):
            bleu_stats((3,), [], max_n=1)


class TestBootstrapFastPath:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(tokens, tokens, refs_lists), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_generic_loop(self, segments, max_n, seed):
        hyps_a = [a for a, _, _ in segments]
        hyps_b = [b for _, b, _ in segments]
        refs = [r for _, _, r in segments]
        fast = paired_bootstrap(hyps_a, hyps_b, refs, max_n=max_n, n_bootstrap=40, seed=seed)
        for metric in (lambda h, r: corpus_bleu(h, r, max_n), lambda h, r: reference_corpus_bleu(h, r, max_n)):
            assert reference_bootstrap(hyps_a, hyps_b, refs, metric, n_bootstrap=40, seed=seed) == fast

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(tokens, tokens, refs_lists), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=120),
    )
    def test_resample_blocks_do_not_change_the_p_value(self, segments, draws):
        hyps_a, hyps_b, refs = ([segment[i] for segment in segments] for i in range(3))
        whole = paired_bootstrap(hyps_a, hyps_b, refs, n_bootstrap=25, seed=5)
        assert type(whole) is float  # printed by `eval --compare`, so no numpy scalar
        # Blocks of one resample and more; the RNG stream is drawn in the same order either way.
        with patch.object(metrics, "_BOOTSTRAP_DRAWS", draws):
            assert paired_bootstrap(hyps_a, hyps_b, refs, n_bootstrap=25, seed=5) == whole

    def test_errors_match_corpus_bleu(self):
        with pytest.raises(ValueError, match="empty corpus"):
            paired_bootstrap([], [], [], n_bootstrap=5)
        with pytest.raises(ValueError, match="at least one reference"):
            paired_bootstrap([(3,)], [(3,)], [[]], n_bootstrap=5)
        with pytest.raises(ValueError, match="max_n"):
            paired_bootstrap([(3,)], [(3,)], [[(3,)]], max_n=0, n_bootstrap=5)
