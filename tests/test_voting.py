import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votedecode.config import ConfigError, parse_voter_spec
from votedecode.decode import CandidateSet, DecodeSpec, ScoredSequence, beam_search
from votedecode.harness import decode_row, row_voters
from votedecode.sequences import detokenize, tokenize
from votedecode.voting import (
    SimilaritySpec,
    bleu_sim,
    embed_cosine_sim,
    make_similarity,
    overl_sim,
    prec_sim,
    range_vote,
)

from conftest import FIXTURE5, all_similarity_specs, model_from_texts, toy_vectors


def seqs(*lists):
    return [tuple(x) for x in lists]


class TestPrecSim:
    def test_min_count_intersection(self):
        v, c = (1, 2, 2), (2, 3)
        assert prec_sim(v, c, 1) == pytest.approx(1 / 3)

    def test_identity(self):
        s = (1, 2, 3)
        assert prec_sim(s, s, 2) == 1.0

    def test_bigram_overlap(self):
        v, c = (1, 2, 3, 4), (2, 3, 4, 5)
        assert prec_sim(v, c, 2) == pytest.approx(2 / 3)

    def test_empty_voter_abstains(self):
        assert prec_sim((), (1, 2), 1) == 0.0
        assert prec_sim((1,), (1, 2), 2) == 0.0

    def test_asymmetry_for_contiguous_subsequence(self):
        c = (1, 2, 3, 4, 5)
        for start in range(3):
            v = c[start : start + 3]
            for n in (1, 2, 3):
                assert prec_sim(v, c, n) == 1.0
                assert prec_sim(c, v, n) < 1.0


class TestOverlSim:
    def test_set_overlap(self):
        assert overl_sim((1, 2, 1), (1, 3), 1) == pytest.approx(1 / 2)

    def test_identity(self):
        assert overl_sim((4, 5), (4, 5), 1) == 1.0

    def test_no_ngrams_of_order(self):
        assert overl_sim((1,), (2, 3), 2) == 0.0


class TestBleuSim:
    def test_identity(self):
        s = (1, 2, 3, 4)
        assert bleu_sim(s, s, max_n=4) == pytest.approx(1.0)

    def test_smoothed_hand_value(self):
        # precisions: 3/4, (2+1)/(3+1), (1+1)/(2+1), (0+1)/(1+1); BP = 1.
        expected = (3 / 4 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
        got = bleu_sim(v=(1, 2, 3, 5), c=(1, 2, 3, 4), max_n=4, smoothed=True)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.658, abs=1e-3)

    def test_clipped_counts(self):
        the, cat, is_, on, mat = range(5)
        c = (the,) * 7
        v = (the, cat, is_, on, the, mat)
        assert bleu_sim(v, c, max_n=1) == pytest.approx(2 / 7)

    def test_empty_hypothesis(self):
        assert bleu_sim((1, 2), (), max_n=4) == 0.0

    def test_unsmoothed_zero_on_missing_order(self):
        # No 2-gram matches: unsmoothed collapses to 0, smoothed does not.
        v, c = (1, 2), (1, 3)
        assert bleu_sim(v, c, max_n=2, smoothed=False) == 0.0
        assert bleu_sim(v, c, max_n=2, smoothed=True) > 0.0

    def test_brevity_penalty_direction(self):
        v = (1, 2, 3, 4)
        shorter = (1, 2)
        assert bleu_sim(v, shorter, max_n=1) == pytest.approx(1.0 * math.exp(1 - 4 / 2))
        longer = (1, 2, 3, 4, 5, 6)
        assert bleu_sim(v, longer, max_n=1) == pytest.approx(4 / 6)  # no penalty


class TestEmbedCosine:
    VECS = {1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])}

    def test_identity(self):
        assert embed_cosine_sim((1, 2), (1, 2), self.VECS) == pytest.approx(1.0)

    def test_orthogonal_rescaled(self):
        assert embed_cosine_sim((1,), (2,), self.VECS) == pytest.approx(0.5)

    def test_hand_value(self):
        got = embed_cosine_sim((1,), (1, 2), self.VECS)
        assert got == pytest.approx((1 / math.sqrt(2) + 1) / 2, abs=1e-12)
        assert got == pytest.approx(0.8536, abs=1e-4)

    def test_zero_mean_vector(self):
        vecs = {1: np.array([1.0, -1.0]), 2: np.array([-1.0, 1.0])}
        assert embed_cosine_sim((1, 2), (1,), vecs) == 0.0

    def test_missing_tokens_fall_back_to_zero(self):
        assert embed_cosine_sim((9,), (1,), self.VECS) == 0.0


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

    def test_from_dict(self):
        assert SimilaritySpec.from_dict({"kind": "overl", "n": 2}) == SimilaritySpec(kind="overl", n=2)
        spec = SimilaritySpec.from_dict({"kind": "embed_cosine", "vectors": "v.tsv"})
        assert spec == SimilaritySpec(kind="embed_cosine", vector_path="v.tsv")

    def test_embed_needs_vectors_at_resolution(self):
        with pytest.raises(ValueError):
            make_similarity(SimilaritySpec(kind="embed_cosine"))

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
            value = make_similarity(spec)(v, c)
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
    cands = decode_row(model, decode, None, seed)
    return range_vote(cands, row_voters(model, decode, voters, None, cands, seed), sim)


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
            c.tokens: math.fsum(math.exp(v.logprob) * bleu_sim(v.tokens, c.tokens, max_n=4) for v in cands.items)
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
