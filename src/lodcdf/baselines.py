"""Substitution baselines and a Kaplan-Meier cross-check route.

The substitution rules are the ad-hoc practice the estimators replace:
censor limits swapped for a fixed fraction of themselves before averaging.
km_negation_oracle reaches the product-limit estimate through an entirely
different pipeline (right-censored survival analysis on the negated sample)
and exists to cross-validate it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import Dataset, tally
from .estimators import StepCdf

__all__ = [
    "SubstitutionStrategy",
    "KmCurve",
    "substitution_mean",
    "ecdf",
    "km_survival",
    "km_negation_oracle",
    "perturb_censored_ties",
]


class SubstitutionStrategy(enum.Enum):
    """What to substitute for a censored value v before averaging."""

    ZERO = "zero"
    HALF_LOD = "half-lod"
    LOD_OVER_SQRT2 = "lod-over-sqrt2"
    LOD = "lod"

    @property
    def factor(self) -> float:
        return {
            SubstitutionStrategy.ZERO: 0.0,
            SubstitutionStrategy.HALF_LOD: 0.5,
            SubstitutionStrategy.LOD_OVER_SQRT2: 1.0 / np.sqrt(2.0),
            SubstitutionStrategy.LOD: 1.0,
        }[self]


def substitution_mean(dataset: Dataset, strategy: SubstitutionStrategy) -> float:
    """Sample mean after substituting factor*value for each censored value."""
    strategy = SubstitutionStrategy(strategy)
    values = dataset.values()
    detected = dataset.detected()
    return float(np.mean(np.where(detected, values, strategy.factor * values)))


def ecdf(dataset: Dataset) -> StepCdf:
    """Empirical CDF of the values, censoring flags ignored."""
    table = tally(dataset)
    return StepCdf(table.values, table.at_or_below / table.n, 0.0, "ecdf")


@dataclass(frozen=True)
class KmCurve:
    """Kaplan-Meier survival curve: value after each distinct event time.

    Ties between events and censorings are resolved events-first: an
    observation censored exactly at an event time still counts as at risk
    there (equivalently, its censoring happens just after the events).
    """

    times: np.ndarray
    survival: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        survival = np.asarray(self.survival, dtype=np.float64)
        if times.size != survival.size or times.size == 0:
            raise ValueError("times and survival must share a positive length")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(survival < 0) or np.any(survival > 1) \
                or (survival.size > 1 and np.any(np.diff(survival) > 0)):
            raise ValueError("survival must be non-increasing within [0, 1]")
        times.setflags(write=False)
        survival.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "survival", survival)


def km_survival(times: np.ndarray, events: np.ndarray) -> KmCurve:
    """Kaplan-Meier estimate from right-censored data, events-first at ties."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if times.size != events.size or times.size == 0:
        raise ValueError("times and events must share a positive length")
    order = np.argsort(times, kind="stable")
    sorted_times = times[order]
    event_times = np.unique(times[events])
    if event_times.size == 0:
        raise ValueError("no events: survival curve has no steps")
    # at risk at u: everything with time >= u, censored-at-u included
    at_risk = times.size - np.searchsorted(sorted_times, event_times, side="left")
    deaths = np.array(
        [np.count_nonzero(events & (times == u)) for u in event_times], dtype=np.int64
    )
    survival = np.cumprod(1.0 - deaths / at_risk)
    return KmCurve(event_times, survival)


def km_negation_oracle(dataset: Dataset) -> StepCdf:
    """Product-limit CDF obtained via Kaplan-Meier on the negated sample.

    Negating a left-censored sample turns it into a right-censored one with
    the detection flags as event indicators; the survival estimate just
    below -t, read back, is a CDF estimate for the original sample. With
    the events-first tie rule this reproduces the product-limit estimator
    factor for factor.
    """
    values = dataset.values()
    curve = km_survival(-values, dataset.detected())
    # curve.times ascending in negated time = descending original values
    support = -curve.times[::-1]
    before = np.concatenate(([1.0], curve.survival[:-1]))
    return StepCdf(support, before[::-1], float(curve.survival[-1]), "km-negation")


def perturb_censored_ties(dataset: Dataset, epsilon: float | None = None) -> Dataset:
    """Move censored values tied to an exact value up by epsilon.

    A censored bound sitting just above the exact value drops out of that
    value's at-or-below count, which is precisely how the reversed-hazard
    MLE treats such ties. epsilon defaults to half the smallest gap between
    distinct values so no new coincidence can be created.
    """
    table = tally(dataset)
    if epsilon is None:
        if table.m > 1:
            epsilon = float(np.min(np.diff(table.values))) / 2.0
        else:
            epsilon = max(1.0, float(table.values[0])) / 2.0
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    values, _, censored, _ = table.jumps()
    tied = set(values[censored >= 1].tolist())
    return Dataset.from_pairs(
        (o.value + epsilon if (not o.detected and o.value in tied) else o.value,
         o.detected)
        for o in dataset.observations
    )
