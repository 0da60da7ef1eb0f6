"""Substitution baselines and the empirical CDF.

The substitution rules are the ad-hoc practice the estimators replace:
censor limits swapped for a fixed fraction of themselves before averaging.
"""

from __future__ import annotations

import enum

import numpy as np

from .data import Dataset, tally
from .estimators import StepCdf


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
