"""Exact brute-force references: enumeration, exact argmax, exact election.

Enumeration walks each row in beam search's own view (``decode.beam_view``)
and sums the same per-step conditionals beam search sums, so the two routes
agree bitwise on enumerable models, and near-ties sort identically, by
construction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .decode import CandidateSet, ScoredSequence, beam_view
from .models import NEG_INF, SequenceModel
from .sequences import EOS_ID, Sequence
from .voting import SimilaritySpec, VoteResult, range_vote

DEFAULT_NODE_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """Raised when enumeration would expand more nodes than the budget allows."""


class EnumeratedDistribution(NamedTuple):
    """All sequences up to max_len with probability at or above the floor.

    A NamedTuple: it equals the plain tuple of its fields, it unpacks, and ``_replace`` derives a copy.
    """

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
    if not 0 <= prob_floor <= 1:  # NaN too: it would keep nothing
        raise ValueError(f"prob_floor must be in [0, 1], got {prob_floor}")
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
            if not (child_lp > NEG_INF and math.exp(child_lp) >= prob_floor):
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
