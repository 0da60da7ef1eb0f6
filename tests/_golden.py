"""Golden pointwise values for the 49-sample groundwater copper data.

Twelve evaluation points with, per point: the product-limit estimate, the
RHR-MLE estimate, and both standard errors. These are published values for
this survey zone, frozen here as regression targets; the reconstructed
fixture reproduces every cell to 1e-6 (see the fixture header for the two
reconstruction choices that none of these cells depend on).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from lodcdf.cli import main

EVAL_POINTS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 14, 15, 17)

# t, product-limit, rhr-mle, se(product-limit), se(rhr-mle)
GOLDEN = (
    (1.0, 0.2981959, 0.2799105, 0.07438262, 0.07541081),
    (2.0, 0.4066308, 0.4043151, 0.07924497, 0.07922304),
    (3.0, 0.6235005, 0.6199498, 0.07582786, 0.07644654),
    (4.0, 0.7590441, 0.7547215, 0.06362657, 0.06510580),
    (5.0, 0.7820455, 0.7816759, 0.06125617, 0.06159916),
    (6.0, 0.8280481, 0.8276568, 0.05555525, 0.05598826),
    (8.0, 0.8510495, 0.8506473, 0.05211982, 0.05261188),
    (9.0, 0.8970522, 0.8966282, 0.04362071, 0.04428404),
    (12.0, 0.9179138, 0.9174800, 0.03933148, 0.03953237),
    (14.0, 0.9387755, 0.9383319, 0.03424881, 0.03449597),
    (15.0, 0.9591837, 0.9591837, 0.02826635, 0.02826635),
    (17.0, 0.9795918, 0.9795918, 0.02019884, 0.02019884),
)


def compute_table(data_path: Path, tmp_path: Path) -> tuple[np.ndarray, float]:
    """Run the CLI end to end on a data file; return (12x5 matrix, seconds)."""
    out = tmp_path / "table.csv"
    argv = [
        "estimate",
        str(data_path),
        "--method",
        "all",
        "--eval-points",
        ",".join(str(t) for t in EVAL_POINTS),
        "--output",
        str(out),
    ]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    return read_table(out), elapsed


def read_table(path: Path) -> np.ndarray:
    """The numeric rows of an ``estimate`` CSV as a matrix."""
    rows = [
        line.split(",")
        for line in path.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("t,")
    ]
    return np.array([[float(c) for c in row] for row in rows])


def assert_matches_golden(matrix: np.ndarray, tol: float = 1e-6) -> float:
    """Assert every cell is within tol of the golden table; return max error."""
    golden = np.asarray(GOLDEN)
    assert matrix.shape == golden.shape
    err = float(np.max(np.abs(matrix - golden)))
    assert err <= tol, f"largest cell deviation {err:.3g} exceeds {tol}"
    return err
