"""Nonparametric CDF estimators for left-censored samples.

All estimators are step functions jumping only at the distinct exact values
x*_(1) < ... < x*_(l). Writing d* for the exact count at a jump value, q* for
the censored count tied to the same value, and y* for the number of
observations at or below it, the three estimates of F(t) are products over
the jump values above t:

* product-limit:            prod (1 - d*/y*)
* reversed-hazard-rate MLE: prod (1 - d*/(y* - q*))
* cumulative-reversed-hazard exponential: prod exp(-d*/y*)

The three differ only through ties (q* >= 1) and the exp(-u) >= 1-u gap; in
particular the first two coincide on any sample where no censored value
equals an exact value.

The first two fits carry their pointwise variances (Greenwood's for the
product-limit estimate, the delta method's for the RHR-MLE), computed from
the same jump rows in the same call; the third carries none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TallyTable, _frozen, _observed

# Each product estimator's factor at a jump, from its exact count d, tied
# censored count q and at-or-below count y, count arrays of any shape. The
# study engine (``simulation._ks_rows``) builds its factors from this too.
_FACTORS = {"product-limit": lambda d, q, y: 1.0 - d / y,
            "rhr-mle": lambda d, q, y: 1.0 - d / (y - q)}


@dataclass(frozen=True, eq=False)
class StepCdf:
    """Right-continuous step CDF estimate.

    ``values[k]`` is the estimate at and after ``support[k]``; ``lower_value``
    is the estimate on [0, ``support[0]``). Below 0 the estimate is 0, since
    no observed value is negative. The three estimators' fits end at 1
    (empty product); other curves may stop below it. ``variances`` holds the
    variance at each jump and ``lower_variance`` the one below the first
    jump, for the fits that have a variance formula; both are None
    otherwise. A NaN variance marks a degenerate sum (reported as
    "unstable" by the CLI).
    """

    support: np.ndarray
    values: np.ndarray
    lower_value: float
    method: str
    variances: np.ndarray | None = None
    lower_variance: float | None = None

    def __post_init__(self):
        support = _frozen(self.support, np.float64)
        values = _frozen(self.values, np.float64)
        if support.size == 0 or support.size != values.size:
            raise ValueError("support and values must share a positive length")
        _observed(support)
        if support.size > 1 and not np.all(np.diff(support) > 0):
            raise ValueError("support must be strictly increasing")
        if not np.all((values >= 0) & (values <= 1)):
            raise ValueError("CDF values must lie in [0, 1]")
        if values.size > 1 and np.any(np.diff(values) < 0):
            raise ValueError("CDF values must be non-decreasing")
        if not 0.0 <= self.lower_value <= values[0]:
            raise ValueError("lower_value must lie in [0, F at first jump]")
        variances = self.variances
        if (variances is None) != (self.lower_variance is None):
            raise ValueError("variances and lower_variance must be given together")
        if variances is not None:
            variances = _frozen(variances, np.float64)
            if variances.size != support.size:
                raise ValueError("variances must align with the support")
            if np.any(variances < 0) or self.lower_variance < 0:
                raise ValueError("variances must be >= 0")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lower_value", float(self.lower_value))
        object.__setattr__(self, "variances", variances)

    @property
    def jump_count(self) -> int:
        return int(self.support.size)


def _tail_products(terms: np.ndarray, op: np.ufunc = np.multiply) -> tuple[np.ndarray, np.ndarray]:
    """Suffix reductions under ``op`` along the last axis of ``terms``.

    Returns (tail, total) with tail[..., k] = op over terms[..., k+1:]
    (``op.identity`` for the last k) and total = op over all of terms,
    accumulated from the last term down in one pass.
    """
    suffix = op.accumulate(terms[..., ::-1], axis=-1)[..., ::-1]
    tail = np.full_like(suffix, op.identity)
    tail[..., :-1] = suffix[..., 1:]
    return tail, suffix[..., 0]


def product_limit_cdf(table: TallyTable) -> StepCdf:
    """Product-limit estimate of the CDF from a left-censored tally, with
    its Greenwood variances.

    At each jump value the estimate is the product, over all exact values
    strictly above it, of (1 - d*/y*); above the last exact value the
    product is empty and the estimate is 1. ``lower_value`` (below the
    first jump) includes every factor and is 0 exactly when the smallest
    distinct value is exact-only.
    Each rate d*/y* maximizes its jump's likelihood term d* log λ +
    (y* - d*) log(1 - λ), the term when a nondetect at L means X < L.

    var at a jump = F̂² · sum over exact values above it of d*/(y*(y*-d*)).
    The only possible degenerate term (y* = d*, first exact value with
    nothing below) reaches only the region below the first jump, where the
    estimate itself is 0; that 0·inf case is reported as NaN ("unstable").
    """
    values, exact, censored, at_or_below = table.jumps()
    levels, lower = _tail_products(_FACTORS["product-limit"](exact, censored, at_or_below))
    with np.errstate(divide="ignore"):
        tail, total = _tail_products(
            exact / np.multiply(at_or_below, at_or_below - exact, dtype=np.float64), np.add)
    with np.errstate(invalid="ignore"):
        variances = levels**2 * tail
        lower_variance = float(lower)**2 * float(total)
    return StepCdf(values, levels, lower, "product-limit", variances, lower_variance)


def rhr_mle_cdf(table: TallyTable) -> StepCdf:
    """Maximum-likelihood CDF estimate built from reversed-hazard rates, with
    its delta-method variances.

    Identical in form to the product-limit estimate except that censored
    observations tied to a jump value leave its denominator: the factor at
    a jump is (1 - d*/(y* - q*)), i.e. censored values equal to an exact
    value are treated as sitting just above it. On tie-free samples this
    estimator and the product-limit one are the same function.
    Each rate d*/(y* - q*) maximizes its jump's likelihood term d* log λ +
    (y* - d* - q*) log(1 - λ), the term when a nondetect at L means X <= L.

    var at a jump = F̂⁽¹⁾² · sum over exact values above it of
    d*_j/(y*_{j-1}(y*_j - q*_j)), where y*_{j-1} is the cumulative count at
    the previous exact value (0 before the first). The j=1 term divides by
    zero and reaches only the region below the first jump; the variance
    there is defined as 0 (the estimator is degenerate at the bottom).
    """
    values, exact, censored, at_or_below = table.jumps()
    levels, lower = _tail_products(_FACTORS["rhr-mle"](exact, censored, at_or_below))
    prev_cum = np.concatenate(([0], at_or_below[:-1]))
    with np.errstate(divide="ignore"):
        tail, _ = _tail_products(
            exact / np.multiply(prev_cum, at_or_below - censored, dtype=np.float64), np.add)
    return StepCdf(values, levels, lower, "rhr-mle", levels**2 * tail, 0.0)


def crhf_exp_cdf(table: TallyTable) -> StepCdf:
    """Exponentiated cumulative-reversed-hazard CDF estimate, without variances.

    Replaces each product-limit factor (1 - d*/y*) by exp(-d*/y*), so the
    estimate is exp(-sum of d*/y* above t): strictly positive everywhere
    and pointwise >= the product-limit estimate.
    """
    values, exact, _, at_or_below = table.jumps()
    tail, total = _tail_products(exact / at_or_below, np.add)
    return StepCdf(values, np.exp(-tail), float(np.exp(-total)), "crhf-exp")


def eval_cdf(f: StepCdf, t) -> tuple:
    """Evaluate a StepCdf at t, a point or an array of points (right-continuous).

    Returns (estimate, variance): floats for a point, arrays for an array.
    Both are 0 below 0, where no observation lies, and ``lower_value`` and
    ``lower_variance`` on [0, first jump), -0.0 included. The variance is
    None when the StepCdf carries none. Raises ValueError at a NaN point.
    """
    points = np.asarray(t, dtype=np.float64)
    if np.isnan(points).any():
        raise ValueError(f"cannot evaluate a CDF at nan (point {np.isnan(points).argmax()})")
    idx = np.searchsorted(f.support, points, side="right") - 1
    below, negative = idx < 0, points < 0
    estimates = np.where(negative, 0.0, np.where(below, f.lower_value, f.values[idx]))
    variances = (None if f.variances is None
                 else np.where(negative, 0.0, np.where(below, f.lower_variance, f.variances[idx])))
    if points.ndim:
        return estimates, variances
    return float(estimates), None if variances is None else float(variances)


def mean_from_cdf(f: StepCdf) -> dict[str, float]:
    """Both means of the step distribution, keyed "at-first-exact" then "at-zero".

    The mass below the first jump (lower_value) has no observed location:
    the first mean stacks it on the first jump value, the second places it
    at 0, bracketing any substitution rule. One correctly rounded sum
    (``math.fsum``) serves both, so no BLAS thread count moves them.
    """
    masses = np.diff(f.values, prepend=f.lower_value)
    at_zero = math.fsum((f.support * masses).tolist())
    return {"at-first-exact": at_zero + float(f.support[0]) * f.lower_value, "at-zero": at_zero}


def quantile_from_cdf(f: StepCdf, p: float) -> float:
    """Smallest jump value t with F̂(t) >= p, for p in (lower_value, values[-1]].

    For p <= lower_value the generalized inverse lies below the first jump,
    where no value was observed, and for p above the last estimate (a curve
    may stop below 1) no jump reaches p, so ValueError is raised there.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p!r}")
    if p <= f.lower_value:
        raise ValueError(f"p={p!r} is at or below lower_value={f.lower_value!r}: "
                         "the quantile lies below the first jump, where nothing was observed")
    if p > f.values[-1]:
        raise ValueError(f"p={p!r} is above the last estimate {float(f.values[-1])!r}: "
                         "no jump reaches it")
    idx = int(np.searchsorted(f.values, p, side="left"))
    return float(f.support[idx])
