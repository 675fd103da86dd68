"""votedecode: pick representative sequence-model outputs by range voting.

Instead of returning the single most likely sequence, the toolkit lets the
model's own hypotheses vote for each other, weighted by probability and a
similarity measure, and returns the candidate with the highest total.
"""

from .decode import (
    CandidateSet,
    DecodeSpec,
    ScoredSequence,
    beam_search,
    sample_sequences,
)
from .metrics import (
    DistinctStats,
    EvalRow,
    copy_rates,
    distinct_stats,
    evaluate_system,
    paired_bootstrap,
    sign_test,
)
from .models import (
    ModelFormatError,
    NGramLM,
    SequenceModel,
    TabularModel,
    ZeroMassPrefixError,
    load_model,
    save_model,
    tabular_model,
)
from .oracle import (
    BudgetExceededError,
    EnumeratedDistribution,
    enumerate_distribution,
    exact_map,
    exact_vote,
)
from .sequences import (
    Sequence,
    Vocabulary,
    detokenize,
    tokenize,
)
from .voting import (
    SimilaritySpec,
    VoteResult,
    range_vote,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CandidateSet",
    "DecodeSpec",
    "DistinctStats",
    "EnumeratedDistribution",
    "EvalRow",
    "ModelFormatError",
    "NGramLM",
    "ScoredSequence",
    "Sequence",
    "SequenceModel",
    "SimilaritySpec",
    "TabularModel",
    "Vocabulary",
    "VoteResult",
    "ZeroMassPrefixError",
    "beam_search",
    "copy_rates",
    "detokenize",
    "distinct_stats",
    "enumerate_distribution",
    "evaluate_system",
    "exact_map",
    "exact_vote",
    "load_model",
    "paired_bootstrap",
    "range_vote",
    "sample_sequences",
    "save_model",
    "sign_test",
    "tabular_model",
    "tokenize",
]
