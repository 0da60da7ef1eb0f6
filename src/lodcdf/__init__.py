"""Nonparametric CDF estimation for left-censored (limit-of-detection) data.

The package estimates the distribution of a positive quantity when some
observations are only known to lie at or below a detection limit. It ships
a product-limit estimator, a reversed-hazard-rate maximum-likelihood
estimator, an exponentiated cumulative-reversed-hazard estimator, variance
formulas for the first two, substitution baselines, and a Monte Carlo
engine comparing the estimators on simulated log-normal data.
"""

from .baselines import SubstitutionStrategy, ecdf, substitution_mean
from .data import (
    AllCensoredError,
    Dataset,
    IngestError,
    InvalidParameterError,
    StudyDegenerateError,
    TallyTable,
    ingest,
    tally,
)
from .estimators import (
    LeftoverPolicy,
    StepCdf,
    crhf_exp_cdf,
    eval_cdf,
    greenwood_variance,
    mean_from_cdf,
    product_limit_cdf,
    quantile_from_cdf,
    rhr_mle_cdf,
    rhr_variance,
)

__version__ = "0.1.0"

__all__ = ["AllCensoredError", "Dataset", "IngestError", "InvalidParameterError", "LeftoverPolicy",
           "SimConfig", "StepCdf", "StudyDegenerateError", "StudyResult", "SubstitutionStrategy",
           "TallyTable", "crhf_exp_cdf", "ecdf", "eval_cdf", "greenwood_variance", "ingest",
           "mean_from_cdf", "product_limit_cdf", "quantile_from_cdf", "rhr_mle_cdf", "rhr_variance",
           "run_study", "substitution_mean", "substream", "sweep", "tally"]

# The study engine loads scipy, which the estimators never need: its names
# are imported on first use (PEP 562).
_STUDY_NAMES = ("SimConfig", "StudyResult", "run_study", "substream", "sweep")


def __getattr__(name: str):
    if name in _STUDY_NAMES:
        from . import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_STUDY_NAMES))
