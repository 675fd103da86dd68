"""Exact brute-force references: enumeration, exact argmax, exact election.

Enumeration walks each row in beam search's own view (``decode.beam_view``)
and sums the same per-step conditionals beam search sums, so the two routes
agree bitwise on enumerable models, and near-ties sort identically, by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decode import CandidateSet, ScoredSequence, beam_view
from .models import NEG_INF, SequenceModel, TabularModel, tabular_model
from .sequences import EOS_ID, Sequence, Vocabulary
from .voting import SimilaritySpec, VoteResult, range_vote

DEFAULT_NODE_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """Raised when enumeration would expand more nodes than the budget allows."""


@dataclass(frozen=True)
class EnumeratedDistribution:
    """All sequences up to max_len with probability at or above the floor."""

    entries: tuple[ScoredSequence, ...]  # sorted by descending probability
    total_mass: float

    def as_candidate_set(self) -> CandidateSet:
        return CandidateSet(items=self.entries)


def enumerate_distribution(
    model: SequenceModel,
    max_len: int,
    prob_floor: float = 0.0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> EnumeratedDistribution:
    """Depth-first expansion pruning prefixes with mass below ``prob_floor``.

    Exact on tabular models with a zero floor.  Zero-mass continuations are
    never followed; expansion beyond ``node_budget`` nodes aborts with
    :class:`BudgetExceededError`.  Children come in beam order, so the walk
    stops at the first that is -inf or below the floor: IEEE ``+`` and
    ``exp`` are monotone, so no later child could pass.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if prob_floor < 0:
        raise ValueError(f"prob_floor must be >= 0, got {prob_floor}")
    if node_budget < 1:
        raise ValueError(f"node budget must be >= 1, got {node_budget}")
    found: list[ScoredSequence] = []
    nodes = 0
    stack: list[tuple[Sequence, float]] = [((), 0.0)]
    while stack:
        prefix, prefix_lp = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"enumeration exceeded node budget of {node_budget}")
        row = model.next_token_row(prefix)
        seq_lp = prefix_lp + row.logprob_of(EOS_ID)
        if seq_lp > NEG_INF and math.exp(seq_lp) >= prob_floor:
            found.append(ScoredSequence(tokens=prefix, logprob=seq_lp))
        if len(prefix) >= max_len:
            continue
        children = beam_view(row, model.vocab.num_ids)
        for token, step_lp in map(children.token, range(children.size)):
            if token == EOS_ID:
                continue
            child_lp = prefix_lp + step_lp
            if not (child_lp > NEG_INF and math.exp(child_lp) >= prob_floor):  # a NaN floor passes nothing
                break
            stack.append((prefix + (token,), child_lp))
    found.sort(key=lambda s: (-s.logprob, s.tokens))
    return EnumeratedDistribution(
        entries=tuple(found),
        total_mass=math.fsum(math.exp(s.logprob) for s in found),
    )


def exact_map(model: SequenceModel, max_len: int, node_budget: int = DEFAULT_NODE_BUDGET) -> ScoredSequence:
    """Most likely sequence by exhaustive enumeration."""
    dist = enumerate_distribution(model, max_len, prob_floor=0.0, node_budget=node_budget)
    if not dist.entries:
        raise ValueError("model has no sequence with positive probability within max_len")
    return dist.entries[0]


def exact_vote(
    model: SequenceModel,
    sim: SimilaritySpec,
    max_len: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> VoteResult:
    """Full election over the enumerated support: every sequence is both a candidate and a voter."""
    support = enumerate_distribution(model, max_len, prob_floor=0.0, node_budget=node_budget).as_candidate_set()
    if not support.items:
        raise ValueError("model has no sequence with positive probability within max_len")
    return range_vote(support, support, sim)


# Generator tokens: one pool for the short generic sequence, one for the
# long families, so short/long similarities are exactly zero.
_SHORT_POOL = tuple(f"s{i}" for i in range(3))
_LONG_POOL = tuple(f"w{i:02d}" for i in range(20))
GENERATOR_VOCAB = Vocabulary(tokens=_SHORT_POOL + _LONG_POOL)


def make_vote_split_model(seed: int) -> TabularModel:
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

    pairs: list[tuple[Sequence, float]] = [(short, p_short)]
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
