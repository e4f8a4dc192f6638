"""Weighted empirical risk minimization with plug-in importance weights.

Corrects sample selection bias by reweighting training losses with
estimated likelihood ratios, for four settings: class-probability shift,
stratum shift, positive-unlabeled data, and right-censored durations.
Ships the estimators, a closed-form analytic test bed, evaluable
generalization/deviation bounds with Monte-Carlo coverage checks, a
power-law bias injector, a small weighted trainer, and a CLI.
"""

from .core import (
    Dataset,
    DegenerateClassError,
    DomainError,
    EmptyStratumError,
    LossSpec,
    NumericError,
    PositivityViolationError,
    SchemaError,
    ValidationError,
    WeightVector,
    WermError,
    classification_metrics,
    empirical_risk,
    read_csv,
    weighted_empirical_risk,
    write_csv,
)
from .weights import (
    EtaEstimate,
    KmCurve,
    TargetPrior,
    class_shift_weights,
    ipcw_weights,
    km_fit,
    oracle_class_shift_weights,
    oracle_pu_weights,
    oracle_stratum_shift_weights,
    pu_risk_offset,
    pu_weights,
    pu_weights_eta,
    stratum_shift_weights,
)
from .analytic import (
    AnalyticModel,
    closed_form_threshold,
    excess_error,
    optimal_threshold,
    sample,
    sample_pu,
    true_eta,
    true_risk,
)
from .bounds import (
    BoundInputs,
    BoundResult,
    CoverageResult,
    coverage_check,
    deviation_bound,
    evaluate_bound,
    prior_sensitivity_bound,
    rademacher_mc,
)
from .biasgen import (
    BiasSpec,
    apply_bias,
    power_law_distribution,
    subsample_to_distribution,
    total_variation,
)
from .train import (
    ModelParams,
    TrainConfig,
    fit,
    gradient,
    init_params,
    momentum_step,
    weighted_objective,
)
from .experiment import ExperimentSpec, emit_results, ingest_csv, run_experiment

__version__ = "0.1.0"
