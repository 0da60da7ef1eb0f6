"""Shared test helpers: random dataset factories, a dataset from
(value, detected) pairs, acceptance reporting and the import path of child
interpreters."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import lodcdf
from lodcdf import Dataset

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_lodcdf():
    """Child interpreters (``python -m lodcdf.cli``) import the lodcdf
    under test, also from a checkout where it is not installed."""
    here = str(Path(lodcdf.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")])))
        yield


def make_grid_dataset(rng: np.random.Generator, n: int | None = None,
                      max_n: int = 200) -> Dataset:
    """Dataset on a coarse value grid: ties (including exact/censored ties
    at one value) occur constantly. Always has at least one detection."""
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    levels = int(rng.integers(2, 26))
    values = (rng.integers(1, levels + 1, size=n)) * 0.5
    p = rng.uniform(0.2, 1.0)
    detected = rng.random(n) < p
    detected[int(rng.integers(0, n))] = True
    return Dataset(values.astype(float), detected)


def make_tie_free_dataset(rng: np.random.Generator, n: int | None = None,
                          max_n: int = 200) -> Dataset:
    """Dataset with all-distinct values, so censored and exact observations
    never collide. Always has at least one detection."""
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    values = np.cumsum(rng.uniform(0.01, 1.0, size=n))
    rng.shuffle(values)
    detected = rng.random(n) < rng.uniform(0.2, 1.0)
    detected[int(rng.integers(0, n))] = True
    return Dataset(values, detected)


def make_tied_dataset(rng: np.random.Generator, n: int | None = None,
                      max_n: int = 198) -> Dataset:
    """Grid dataset with at least one guaranteed exact/censored tie."""
    base = make_grid_dataset(rng, n=n, max_n=max_n)
    value = float(base.values()[int(rng.integers(0, base.n))])
    return Dataset(np.append(base.values(), [value, value]),
                   np.append(base.detected(), [True, False]))


def pairs_dataset(pairs) -> Dataset:
    """Dataset from (value, detected) pairs, the form hand examples and
    hypothesis strategies write."""
    pairs = list(pairs)
    return Dataset([v for v, _ in pairs], [d for _, d in pairs])


@pytest.fixture
def announce(capsys):
    """Print one line straight to the terminal, bypassing pytest capture."""

    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return _announce
