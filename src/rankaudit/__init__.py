"""rankaudit: audit multi-task leaderboards for ranking fragility."""

from .aggregate import (
    METHODS,
    AggregateResult,
    AggregationSpec,
    aggregate,
    arithmetic_mean,
    average_rank,
    elimination_ranking,
    geometric_mean,
    macro_average,
    median_score,
    robust_average_rank,
)
from .errors import (
    AuditError,
    ComputationError,
    ConfigError,
    DegenerateInputError,
    DomainError,
    InputError,
    MissingScoreError,
    ParseError,
    SchemaError,
    UndefinedCorrelationError,
)
from .ranking import Ranking, TopK, enumerate_subsets, kendall_tau_b, rank_models, top_k
from .rankstats import (
    SubsetAuditResult,
    aggregator_agreement,
    audit_to_dict,
    subset_tau_profile,
    topk_table,
    unique_topk_audit,
)
from .reuse import (
    AttackReport,
    HoldoutServer,
    boosting_attack,
    new_holdout,
    query,
    query_batch,
    reuse_bound,
)
from .scorebank import (
    MetricSpec,
    NormalizedMatrix,
    ScoreMatrix,
    human_normalize,
    load_matrix,
    load_metrics,
    orient,
    save_matrix,
    save_metrics,
)
from .significance import (
    PairedSamples,
    TestResult,
    holm_correction,
    per_dataset_tests,
    permutation_test,
    prob_a_le_b,
    wilcoxon_signed_rank,
)
from .util import derive_seed

__version__ = "0.1.0"
