import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votedecode import voting
from votedecode.config import ConfigError, load_config, parse_voter_spec
from votedecode.decode import CandidateSet, DecodeSpec, ScoredSequence, beam_search
from votedecode.formats import DatasetRow
from votedecode.harness import decode_rows
from votedecode.sequences import detokenize, tokenize
from votedecode.voting import SimilaritySpec, range_vote

from conftest import FIXTURE5, all_similarity_specs, model_from_texts, pairwise_sim, toy_vectors


def seqs(*lists):
    return [tuple(x) for x in lists]


def elect(spec, v, c):
    """sim(v, c) as the election scores it: one voter and one candidate of log-probability 0 (weight and scale 1)."""
    voters, cands = (CandidateSet(items=(ScoredSequence(tokens=tuple(seq), logprob=0.0),)) for seq in (v, c))
    return range_vote(cands, voters, spec).winner_score


def prec(n):
    return SimilaritySpec(kind="prec", n=n)


def overl(n):
    return SimilaritySpec(kind="overl", n=n)


def bleu(max_n, smoothed=False):
    return SimilaritySpec(kind="smoothed_bleu" if smoothed else "bleu", max_n=max_n)


class TestPrecSim:
    def test_min_count_intersection(self):
        v, c = (1, 2, 2), (2, 3)
        assert elect(prec(1), v, c) == pytest.approx(1 / 3)

    def test_identity(self):
        s = (1, 2, 3)
        assert elect(prec(2), s, s) == 1.0

    def test_bigram_overlap(self):
        v, c = (1, 2, 3, 4), (2, 3, 4, 5)
        assert elect(prec(2), v, c) == pytest.approx(2 / 3)

    def test_empty_voter_abstains(self):
        assert elect(prec(1), (), (1, 2)) == 0.0
        assert elect(prec(2), (1,), (1, 2)) == 0.0

    def test_asymmetry_for_contiguous_subsequence(self):
        c = (1, 2, 3, 4, 5)
        for start in range(3):
            v = c[start : start + 3]
            for n in (1, 2, 3):
                assert elect(prec(n), v, c) == 1.0
                assert elect(prec(n), c, v) < 1.0


class TestOverlSim:
    def test_set_overlap(self):
        assert elect(overl(1), (1, 2, 1), (1, 3)) == pytest.approx(1 / 2)

    def test_identity(self):
        assert elect(overl(1), (4, 5), (4, 5)) == 1.0

    def test_no_ngrams_of_order(self):
        assert elect(overl(2), (1,), (2, 3)) == 0.0


class TestBleuSim:
    def test_identity(self):
        s = (1, 2, 3, 4)
        assert elect(bleu(4), s, s) == pytest.approx(1.0)

    def test_smoothed_hand_value(self):
        # precisions: 3/4, (2+1)/(3+1), (1+1)/(2+1), (0+1)/(1+1); BP = 1.
        expected = (3 / 4 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
        got = elect(bleu(4, smoothed=True), (1, 2, 3, 5), (1, 2, 3, 4))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.658, abs=1e-3)

    def test_clipped_counts(self):
        the, cat, is_, on, mat = range(5)
        c = (the,) * 7
        v = (the, cat, is_, on, the, mat)
        assert elect(bleu(1), v, c) == pytest.approx(2 / 7)

    def test_empty_hypothesis(self):
        assert elect(bleu(4), (1, 2), ()) == 0.0

    def test_unsmoothed_zero_on_missing_order(self):
        # No 2-gram matches: unsmoothed collapses to 0, smoothed does not.
        v, c = (1, 2), (1, 3)
        assert elect(bleu(2), v, c) == 0.0
        assert elect(bleu(2, smoothed=True), v, c) > 0.0

    def test_brevity_penalty_direction(self):
        v = (1, 2, 3, 4)
        shorter = (1, 2)
        assert elect(bleu(1), v, shorter) == pytest.approx(1.0 * math.exp(1 - 4 / 2))
        longer = (1, 2, 3, 4, 5, 6)
        assert elect(bleu(1), v, longer) == pytest.approx(4 / 6)  # no penalty


class TestEmbedCosine:
    SPEC = SimilaritySpec(kind="embed_cosine", vectors={1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])})

    def test_identity(self):
        assert elect(self.SPEC, (1, 2), (1, 2)) == pytest.approx(1.0)

    def test_orthogonal_rescaled(self):
        assert elect(self.SPEC, (1,), (2,)) == pytest.approx(0.5)

    def test_hand_value(self):
        got = elect(self.SPEC, (1,), (1, 2))
        assert got == pytest.approx((1 / math.sqrt(2) + 1) / 2, abs=1e-12)
        assert got == pytest.approx(0.8536, abs=1e-4)

    def test_zero_mean_vector(self):
        vecs = {1: np.array([1.0, -1.0]), 2: np.array([-1.0, 1.0])}
        assert elect(SimilaritySpec(kind="embed_cosine", vectors=vecs), (1, 2), (1,)) == 0.0

    def test_missing_tokens_fall_back_to_zero(self):
        assert elect(self.SPEC, (9,), (1,)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 9), max_size=5).map(tuple), min_size=1, max_size=6), st.integers(0, 2**32))
    def test_election_matrix_is_the_scalar_similarity(self, sequences, seed):
        # Tokens 1 and 2 cancel to a zero mean, 9 has no vector, and a sequence may be empty.
        rng = np.random.default_rng(seed)
        vecs = {1: np.array([1.0, -1.0, 0.5]), 2: np.array([-1.0, 1.0, -0.5])}
        vecs |= {t: rng.normal(size=3) for t in range(3, 9)}
        voters, cands = sequences, sequences[::-1] + [(), (9,), (1, 2)]
        spec = SimilaritySpec(kind="embed_cosine", vectors=vecs)
        want = [[pairwise_sim(spec)(v, c) for c in cands] for v in voters]
        assert voting._similarity_matrix(voters, cands, spec).tolist() == want


class TestSimilaritySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SimilaritySpec(kind="levenshtein")

    def test_ngram_kinds_need_n(self):
        with pytest.raises(ValueError):
            SimilaritySpec(kind="prec")
        with pytest.raises(ValueError):
            SimilaritySpec(kind="overl", n=0)

    def test_bleu_default_max_n(self):
        assert SimilaritySpec(kind="bleu").max_n == 4

    def test_from_config(self, tmp_path):
        """A run config's sim object reads as the spec, its "vectors" key as ``vector_path``."""
        sims = [{"kind": "overl", "n": 2}, {"kind": "embed_cosine", "vectors": "v.tsv"}]
        config = {"model": {"kind": "load", "path": "m.json"}, "dataset": "d.jsonl", "decode": [{"name": "b"}],
                  "select": [{"name": f"v{i}", "kind": "vote", "sim": sim} for i, sim in enumerate(sims)]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        specs = [select.sim for select in load_config(tmp_path / "config.json").select]
        assert specs == [SimilaritySpec(kind="overl", n=2), SimilaritySpec(kind="embed_cosine", vector_path="v.tsv")]

    def test_embed_needs_vectors_at_resolution(self):
        with pytest.raises(ValueError):
            elect(SimilaritySpec(kind="embed_cosine"), (3,), (3,))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=3, max_value=9), max_size=8),
        st.lists(st.integers(min_value=3, max_value=9), max_size=8),
    )
    def test_every_kind_in_unit_interval(self, v, c):
        v, c = tuple(v), tuple(c)
        table = {i: np.ones(3) * (i - 5) for i in range(3, 10)}
        for spec in [
            SimilaritySpec(kind="prec", n=1),
            SimilaritySpec(kind="prec", n=2),
            SimilaritySpec(kind="overl", n=1),
            SimilaritySpec(kind="overl", n=2),
            SimilaritySpec(kind="bleu"),
            SimilaritySpec(kind="smoothed_bleu"),
            SimilaritySpec(kind="embed_cosine", vectors=table),
        ]:
            value = elect(spec, v, c)
            assert 0.0 <= value <= 1.0


def brute_force_overl1_scores(entries):
    """Independent 5x5 score matrix with plain python set arithmetic."""
    sets = [set(text.split()) for text, _ in entries]
    weights = [p for _, p in entries]
    scores = []
    for ci in range(len(entries)):
        total = 0.0
        for vi in range(len(entries)):
            sim = len(sets[vi] & sets[ci]) / len(sets[vi]) if sets[vi] else 0.0
            total += weights[vi] * sim
        scores.append(total)
    return scores


class TestRangeVote:
    def test_fixture_matches_brute_force_matrix(self, fixture5):
        model, vocab = fixture5
        cands = beam_search(model, None, DecodeSpec(beam_size=5, max_len=8))
        result = range_vote(cands, cands, SimilaritySpec(kind="overl", n=1))
        expected = {text: s for (text, _), s in zip(FIXTURE5, brute_force_overl1_scores(FIXTURE5))}
        for cand, score in zip(result.ranking, result.scores):
            assert score == pytest.approx(expected[detokenize(cand.tokens, vocab)], abs=1e-9)
        assert detokenize(result.winner.tokens, vocab) == "the tall man runs fast"
        assert result.winner_score == pytest.approx(0.5648333333333333, abs=1e-9)

    def test_singleton_election(self):
        item = ScoredSequence(tokens=(3, 4), logprob=math.log(0.5))
        cs = CandidateSet(items=(item,))
        result = range_vote(cs, cs, SimilaritySpec(kind="overl", n=1))
        assert result.winner == item
        assert result.winner_score == pytest.approx(0.5 * 1.0, abs=1e-12)

    def test_empty_sets_rejected(self, fixture5):
        model, _ = fixture5
        cands = beam_search(model, None, DecodeSpec(beam_size=5, max_len=8))
        empty = CandidateSet(items=())
        with pytest.raises(ValueError):
            range_vote(empty, cands, SimilaritySpec(kind="overl", n=1))
        with pytest.raises(ValueError):
            range_vote(cands, empty, SimilaritySpec(kind="overl", n=1))

    def test_scale_invariance(self, fixture5):
        model, _ = fixture5
        cands = beam_search(model, None, DecodeSpec(beam_size=5, max_len=8))
        spec = SimilaritySpec(kind="prec", n=1)
        base = range_vote(cands, cands, spec)
        for lam in (1e-3, 0.5, 7.0, 1e4):
            scaled_voters = CandidateSet(items=tuple(replace(v, logprob=v.logprob + math.log(lam)) for v in cands.items))
            scaled = range_vote(cands, scaled_voters, spec)
            assert scaled.ranking == base.ranking
            for a, b in zip(scaled.scores, base.scores):
                assert a == pytest.approx(lam * b, rel=1e-12)

    def test_clone_split_leaves_scores_unchanged(self, fixture5):
        model, _ = fixture5
        cands = beam_search(model, None, DecodeSpec(beam_size=5, max_len=8))
        spec = SimilaritySpec(kind="overl", n=1)
        base = range_vote(cands, cands, spec)
        for split_idx in range(len(cands.items)):
            for alpha in (0.25, 0.5, 0.9):
                voters = []
                for i, v in enumerate(cands.items):
                    if i == split_idx:
                        voters.append(replace(v, logprob=v.logprob + math.log(alpha)))
                        voters.append(replace(v, logprob=v.logprob + math.log(1 - alpha)))
                    else:
                        voters.append(v)
                split = range_vote(cands, CandidateSet(items=tuple(voters)), spec)
                assert split.ranking == base.ranking
                for a, b in zip(split.scores, base.scores):
                    assert abs(a - b) <= 1e-12

    def test_duplicate_candidate_scores_identically(self, fixture5):
        model, _ = fixture5
        cands = beam_search(model, None, DecodeSpec(beam_size=5, max_len=8))
        dup = CandidateSet(items=cands.items + (cands.items[0],))
        result = range_vote(dup, cands, SimilaritySpec(kind="overl", n=1))
        by_tokens = {}
        for cand, score in zip(result.ranking, result.scores):
            by_tokens.setdefault(cand.tokens, []).append(score)
        dup_scores = by_tokens[cands.items[0].tokens]
        assert len(dup_scores) == 2 and dup_scores[0] == dup_scores[1]

    def test_underflowing_voter_weights_still_rank(self, fixture5):
        model, _ = fixture5
        cands = beam_search(model, None, DecodeSpec(beam_size=5, max_len=8))
        tiny = CandidateSet(items=tuple(replace(v, logprob=v.logprob - 5000.0) for v in cands.items))
        base = range_vote(cands, cands, SimilaritySpec(kind="overl", n=1))
        shifted = range_vote(cands, tiny, SimilaritySpec(kind="overl", n=1))
        assert shifted.ranking == base.ranking  # scores saturate to 0 but order survives

    def test_contribution_matrix_sums_to_scores(self, fixture5):
        model, _ = fixture5
        cands = beam_search(model, None, DecodeSpec(beam_size=5, max_len=8))
        result = range_vote(cands, cands, SimilaritySpec(kind="prec", n=1), with_contributions=True)
        assert result.contributions is not None
        assert len(result.contributions) == len(cands.items)
        for j, score in enumerate(result.scores):
            col = math.fsum(row[j] for row in result.contributions)
            assert col == pytest.approx(score, rel=1e-12, abs=1e-15)


def select(model, decode, voters, sim, seed=0):
    """Decode, gather voters and elect, as one row of an experiment run."""
    rows = [DatasetRow(0, None, ("",))]
    (cands,) = decode_rows(model, decode, rows, [None], seed, (1, 0), "decode left no candidates")
    voter_set = cands
    if voters is not None:
        (voter_set,) = decode_rows(model, replace(decode, **voters), rows, [None], seed, (2, 0, 0), "no voters")
    return range_vote(cands, voter_set, sim)


class TestSelectRepresentative:
    def test_same_voters_reproduce_simple_setting(self, fixture5):
        model, vocab = fixture5
        decode = DecodeSpec(beam_size=5, max_len=8)
        result = select(model, decode, parse_voter_spec("same"), SimilaritySpec(kind="overl", n=1))
        cands = beam_search(model, None, DecodeSpec(beam_size=5, max_len=8))
        assert result.ranking == range_vote(cands, cands, SimilaritySpec(kind="overl", n=1)).ranking
        assert detokenize(result.winner.tokens, vocab) == "the tall man runs fast"

    def test_bleu_similarity_is_mbr(self, fixture5):
        # Definitional equality: the winner maximizes expected sentence
        # BLEU(candidate, voter) over the candidate set.
        model, _ = fixture5
        spec = SimilaritySpec(kind="bleu", max_n=4)
        winner = select(model, DecodeSpec(beam_size=5, max_len=8), parse_voter_spec("same"), spec).winner
        cands = beam_search(model, None, DecodeSpec(beam_size=5, max_len=8))
        expected = {
            c.tokens: math.fsum(math.exp(v.logprob) * pairwise_sim(spec)(v.tokens, c.tokens) for v in cands.items)
            for c in cands.items
        }
        best = max(expected.items(), key=lambda kv: kv[1])
        assert winner.tokens == best[0]

    def test_beam_voters(self, fixture5):
        model, vocab = fixture5
        result = select(
            model,
            DecodeSpec(beam_size=2, max_len=8),
            parse_voter_spec("beam:5"),
            SimilaritySpec(kind="overl", n=1),
        )
        # Candidates restricted to top-2 but all five sequences vote.
        assert len(result.ranking) == 2
        assert detokenize(result.winner.tokens, vocab) == "the tall man runs fast"

    def test_sampled_voters_deterministic(self, fixture5):
        model, _ = fixture5
        args = (
            model,
            DecodeSpec(beam_size=5, max_len=8),
            parse_voter_spec("sample:100"),
            SimilaritySpec(kind="overl", n=1),
        )
        assert select(*args, seed=11) == select(*args, seed=11)

    def test_voter_spec_validation(self):
        with pytest.raises(ConfigError, match="missing required field 'beam_size'"):
            parse_voter_spec({"kind": "beam"})
        with pytest.raises(ConfigError, match="missing required field 'count'"):
            parse_voter_spec({"kind": "sample"})
        with pytest.raises(ConfigError, match="unknown voter kind 'jury'"):
            parse_voter_spec({"kind": "jury"})
        with pytest.raises(ConfigError, match="beam_size must be >= 1"):
            parse_voter_spec("beam:0")


class TestAllKindsSmoke:
    def test_every_similarity_selects_deterministically(self, fixture5):
        model, vocab = fixture5
        cands = beam_search(model, None, DecodeSpec(beam_size=5, max_len=8))
        for spec in all_similarity_specs(vocab):
            a = range_vote(cands, cands, spec)
            b = range_vote(cands, cands, spec)
            assert a.ranking == b.ranking and a.scores == b.scores
