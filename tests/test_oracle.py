"""The exact oracles against brute force, and the paper's mean/median point as a property."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from votedecode.oracle import enumerate_distribution, exact_map, exact_vote, make_vote_split_model
from votedecode.voting import SimilaritySpec, make_similarity

SEEDS = range(6)
SIMS = [SimilaritySpec(kind="overl", n=1), SimilaritySpec(kind="prec", n=2), SimilaritySpec(kind="bleu")]


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_map_is_the_most_likely_sequence(seed):
    model = make_vote_split_model(seed)
    best = exact_map(model, model.max_len)
    support = enumerate_distribution(model, model.max_len).entries
    assert best == max(support, key=lambda s: s.logprob)
    tokens, prob = max(model.entries.items(), key=lambda e: e[1])
    assert best.tokens == tokens
    assert best.logprob == pytest.approx(math.log(prob), abs=1e-12)


@pytest.mark.parametrize("sim", SIMS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", SEEDS)
def test_exact_vote_scores_every_pair_of_the_support(seed, sim):
    model = make_vote_split_model(seed)
    support = enumerate_distribution(model, model.max_len).entries
    similarity = make_similarity(sim)
    brute = {
        c.tokens: math.fsum(math.exp(v.logprob) * similarity(v.tokens, c.tokens) for v in support) for c in support
    }
    result = exact_vote(model, sim, model.max_len)
    assert sorted(c.tokens for c in result.ranking) == sorted(brute)
    for cand, score in zip(result.ranking, result.scores):
        assert score == pytest.approx(brute[cand.tokens], rel=1e-12, abs=1e-15)
    assert brute[result.winner.tokens] == pytest.approx(max(brute.values()), rel=1e-12)


# Real-valued voters x with weights w: a candidate c scores sum of w * sim(x, c).
def grid_argmax(points, sim, grid):
    scores = [math.fsum(w * sim(x, c) for x, w in points) for c in grid]
    return grid[scores.index(max(scores))]


def weighted_median_interval(points):
    total = sum(w for _, w in points)
    xs = sorted({x for x, _ in points})
    lo = min(x for x in xs if 2 * sum(w for y, w in points if y <= x) >= total)
    hi = max(x for x in xs if 2 * sum(w for y, w in points if y >= x) >= total)
    return lo, hi


POINTS = st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 10)), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(POINTS, st.sampled_from([1.0, 0.5, 0.25]))
def test_quadratic_similarity_elects_the_weighted_mean(points, step):
    grid = [step * i for i in range(round(-22 / step), round(22 / step) + 1)]
    winner = grid_argmax(points, lambda x, c: 1.0 - (x - c) ** 2, grid)
    mean = math.fsum(x * w for x, w in points) / sum(w for _, w in points)
    assert abs(winner - mean) <= step


@settings(max_examples=150, deadline=None)
@given(POINTS, st.sampled_from([1.0, 0.5, 0.25]))
def test_linear_similarity_elects_a_weighted_median(points, step):
    grid = [step * i for i in range(round(-22 / step), round(22 / step) + 1)]  # holds every integer point
    winner = grid_argmax(points, lambda x, c: 1.0 - abs(x - c), grid)
    lo, hi = weighted_median_interval(points)
    assert lo <= winner <= hi
