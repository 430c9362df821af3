"""Nonparametric estimation of stochastic processes aligned backward from
failure events, under left-truncated right-censored follow-up."""

from .backward import (BackwardCurve, DegenerateWindowError, backward_curve, backward_mean,
                       covariance, default_grid)
from .bands import BandFit, BandResult, band_critical_values, bands, pointwise_ci
from .dist import (WeightedSample, estimating_fn, joint_cdf, joint_cdf_slice, pearson_correlation,
                   percentile, percentile_curve, weighted_sample)
from .forward import forward_mean, forward_mean_curve
from .io import IngestError, ingest, write_cohort
from .model import (Cohort, CohortValidationError, EstimandWindow, InputContractError, ProcessEvent,
                    SubjectRecord, apply_prevalent_shift, validate_cohort)
from .rate import KernelSpec, backward_rate, select_bandwidth
from .simulate import (SimConfig, StudyReport, generate_cohort, naive_estimators, run_study,
                       true_mean_oracle)
from .survival import EmptyRiskSetError, SurvivalCurve, product_limit, survival_at

__version__ = "0.1.0"

__all__ = [
    "BackwardCurve",
    "BandFit",
    "BandResult",
    "Cohort",
    "CohortValidationError",
    "DegenerateWindowError",
    "EmptyRiskSetError",
    "EstimandWindow",
    "IngestError",
    "InputContractError",
    "KernelSpec",
    "ProcessEvent",
    "SimConfig",
    "StudyReport",
    "SubjectRecord",
    "SurvivalCurve",
    "WeightedSample",
    "apply_prevalent_shift",
    "backward_curve",
    "backward_mean",
    "backward_rate",
    "band_critical_values",
    "bands",
    "covariance",
    "default_grid",
    "estimating_fn",
    "forward_mean",
    "forward_mean_curve",
    "generate_cohort",
    "ingest",
    "joint_cdf",
    "joint_cdf_slice",
    "naive_estimators",
    "pearson_correlation",
    "percentile",
    "percentile_curve",
    "pointwise_ci",
    "product_limit",
    "run_study",
    "select_bandwidth",
    "survival_at",
    "true_mean_oracle",
    "validate_cohort",
    "weighted_sample",
    "write_cohort",
]
