"""Nonparametric CDF estimation for left-censored (limit-of-detection) data.

The package estimates the distribution of a positive quantity when some
observations are only known to lie at or below a detection limit. It ships
a product-limit estimator and a reversed-hazard-rate maximum-likelihood
estimator, each fit carrying its variances, an exponentiated
cumulative-reversed-hazard estimator, and a Monte Carlo engine comparing
the estimators on simulated log-normal data.
"""

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
    StepCdf,
    crhf_exp_cdf,
    eval_cdf,
    mean_from_cdf,
    product_limit_cdf,
    quantile_from_cdf,
    rhr_mle_cdf,
)
from .simulation import SimConfig, StudyResult, run_study, substream, sweep

__version__ = "0.1.0"

__all__ = ["AllCensoredError", "Dataset", "IngestError", "InvalidParameterError", "SimConfig",
           "StepCdf", "StudyDegenerateError", "StudyResult", "TallyTable", "crhf_exp_cdf",
           "eval_cdf", "ingest", "mean_from_cdf", "product_limit_cdf", "quantile_from_cdf",
           "rhr_mle_cdf", "run_study", "substream", "sweep", "tally"]
