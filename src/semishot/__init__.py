"""Semi-supervised few-shot adaptation of embedding classifiers.

Text-derived class prototypes are refined with a handful of labeled
embeddings and, optionally, a pool of unlabeled ones: pseudo-labels come
from a balanced transport plan over prototype similarities, and the
prototype update is a closed form, so adaptation is iteration-cheap and
fully deterministic. Includes the evaluation protocol (imbalanced
support sampling, balanced accuracy, silhouette) and a benchmark
harness.
"""

from .data import (
    Dataset,
    EvalSet,
    SupportSet,
    UnlabeledSet,
    load_dataset,
    load_prototypes,
    normalize_rows,
    save_dataset,
    save_prototypes,
)
from .errors import (
    ConfigError,
    DataError,
    DegeneratePlanError,
    FormatError,
    GenerationError,
    SamplingError,
    SemishotError,
    SolverError,
)
from .experiment import (
    BenchmarkRow,
    MetricReport,
    SamplingSpec,
    SyntheticSpec,
    aggregate_rows,
    balanced_accuracy,
    correlate,
    evaluate_prototypes,
    fit_solver,
    generate_synthetic,
    rows_to_csv,
    rows_to_json,
    run_benchmark,
    sample_support,
    silhouette_score,
    split_indices,
    synthetic_dataset,
)
from .objectives import (
    LambdaPolicy,
    ObjectiveValue,
    eval_ce,
    eval_contrast,
    eval_semi_objective,
    eval_tightness,
)
from .transport import (
    TransportPlan,
    init_plan,
    marginal_residual,
    sinkhorn,
    solve_transport,
)
from .solvers import (
    FitResult,
    SolverConfig,
    correct_marginal,
    estimate_marginal,
    fit_simpleshot,
    fit_sstext,
    fit_sstextu,
    update_prototypes,
)
from .zeroshot import (
    DEFAULT_TAU,
    ensemble_text_prototypes,
    predict_labels,
    predict_probs,
    similarity_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRow",
    "ConfigError",
    "DEFAULT_TAU",
    "DataError",
    "Dataset",
    "DegeneratePlanError",
    "EvalSet",
    "FitResult",
    "FormatError",
    "GenerationError",
    "LambdaPolicy",
    "MetricReport",
    "ObjectiveValue",
    "SamplingError",
    "SamplingSpec",
    "SemishotError",
    "SolverConfig",
    "SolverError",
    "SupportSet",
    "SyntheticSpec",
    "TransportPlan",
    "UnlabeledSet",
    "aggregate_rows",
    "balanced_accuracy",
    "correct_marginal",
    "correlate",
    "ensemble_text_prototypes",
    "estimate_marginal",
    "eval_ce",
    "eval_contrast",
    "eval_semi_objective",
    "eval_tightness",
    "evaluate_prototypes",
    "fit_simpleshot",
    "fit_solver",
    "fit_sstext",
    "fit_sstextu",
    "generate_synthetic",
    "init_plan",
    "load_dataset",
    "load_prototypes",
    "marginal_residual",
    "normalize_rows",
    "predict_labels",
    "predict_probs",
    "rows_to_csv",
    "rows_to_json",
    "run_benchmark",
    "sample_support",
    "save_dataset",
    "save_prototypes",
    "silhouette_score",
    "similarity_matrix",
    "sinkhorn",
    "solve_transport",
    "split_indices",
    "synthetic_dataset",
    "update_prototypes",
]
