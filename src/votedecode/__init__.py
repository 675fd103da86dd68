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
    corpus_bleu,
    distinct_stats,
    evaluate_system,
    paired_bootstrap,
    sentence_bleu,
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
    sequence_logprob,
    tabular_model,
    train_ngram_lm,
)
from .oracle import (
    BudgetExceededError,
    EnumeratedDistribution,
    enumerate_distribution,
    exact_map,
    exact_vote,
    make_vote_split_model,
)
from .sequences import (
    Sequence,
    Vocabulary,
    build_vocabulary,
    detokenize,
    ngram_bag,
    ngram_set,
    tokenize,
)
from .voting import (
    SimilaritySpec,
    VoteResult,
    bleu_sim,
    embed_cosine_sim,
    overl_sim,
    prec_sim,
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
    "bleu_sim",
    "build_vocabulary",
    "copy_rates",
    "corpus_bleu",
    "detokenize",
    "distinct_stats",
    "embed_cosine_sim",
    "enumerate_distribution",
    "evaluate_system",
    "exact_map",
    "exact_vote",
    "load_model",
    "make_vote_split_model",
    "ngram_bag",
    "ngram_set",
    "overl_sim",
    "paired_bootstrap",
    "prec_sim",
    "range_vote",
    "sample_sequences",
    "save_model",
    "sentence_bleu",
    "sequence_logprob",
    "sign_test",
    "tabular_model",
    "tokenize",
    "train_ngram_lm",
]
