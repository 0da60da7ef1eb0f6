"""Output checks for every benchmark workload.

Each checker returns a list of problems; an empty list means the output is
correct. Invariant checks apply to every seed. Checks against a reference (values
in ``reference.json``, recorded by ``record_reference.py``) apply when the
workload's inputs are the ones the reference was recorded from; callers
pass ``None`` otherwise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

EVAL_POINTS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 14, 15, 17)

# Published pointwise values for the 49-sample groundwater copper data:
# t, product-limit, rhr-mle, se(product-limit), se(rhr-mle).
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

FIT_COLUMNS = "t,product_limit,rhr_mle,crhf_exp,se_product_limit,se_rhr_mle"


def _data_rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def check_process(rc: int, stderr: str) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if stderr:
        problems.append(f"stderr: {stderr.strip()[:200]}")
    return problems


def check_golden(stdout: str) -> list[str]:
    """`estimate --method all --eval-points ...` on the groundwater fixture."""
    rows = _data_rows(stdout)
    if not rows or rows[0] != "t,product_limit,rhr_mle,se_product_limit,se_rhr_mle":
        return ["estimate: unexpected header"]
    try:
        table = np.array([[float(c) for c in row.split(",")] for row in rows[1:]])
    except ValueError as exc:
        return [f"estimate: unparsable row ({exc})"]
    if table.shape != (len(GOLDEN), 5):
        return [f"estimate: table shape {table.shape}, expected {(len(GOLDEN), 5)}"]
    worst = float(np.max(np.abs(table - np.array(GOLDEN))))
    return [] if worst <= 1e-6 else [f"estimate: golden table off by {worst:.3g}"]


def check_compare(stdout: str, expected: str) -> list[str]:
    """`compare` on the groundwater fixture equals the recorded output."""
    return [] if stdout == expected else ["compare: output differs from reference"]


def read_fit(path: Path) -> tuple[list[str], np.ndarray]:
    """Header lines and the t/product-limit/rhr-mle/crhf-exp columns of an
    `estimate --method all` CSV."""
    lines = path.read_text().splitlines()
    head = lines[:4]
    body = [line for line in lines[4:] if line]
    cols = np.loadtxt(body, delimiter=",", usecols=(0, 1, 2, 3), ndmin=2) if body else np.empty((0, 4))
    return head, cols


def check_fit(path: Path, *, rows: int, expected_rows: int, tied: bool, reference: dict | None) -> list[str]:
    """Invariants of a full `estimate --method all` table, plus sampled
    rows against the reference when one applies."""
    try:
        head, cols = read_fit(path)
    except (OSError, ValueError) as exc:
        return [f"fit: unreadable output ({exc})"]
    problems = []
    if head[:2] != ["# method: all", f"# n: {rows}"] or len(head) < 4 or head[3] != FIT_COLUMNS:
        problems.append("fit: unexpected header")
    if cols.shape[0] != expected_rows:
        problems.append(f"fit: {cols.shape[0]} rows, expected {expected_rows}")
    if reference is not None and cols.shape[0] != reference["rows"]:
        problems.append(f"fit: {cols.shape[0]} rows, reference has {reference['rows']}")
    if problems:
        return problems
    t, pl, rhr, crhf = cols.T
    if np.any(np.diff(t) < 0):  # 7 significant digits can print two values alike
        problems.append("fit: t decreasing")
    for name, col in (("product_limit", pl), ("rhr_mle", rhr), ("crhf_exp", crhf)):
        if np.any(np.diff(col) < 0) or np.any(col < 0) or np.any(col > 1):
            problems.append(f"fit: {name} not non-decreasing in [0,1]")
    if tied:
        if np.any(pl < rhr) or not np.any(pl > rhr):
            problems.append("fit: tied data needs product_limit >= rhr_mle with a strict gap")
    elif np.any(pl != rhr):
        problems.append("fit: product_limit differs from rhr_mle without ties")
    if np.any(crhf < pl):
        problems.append("fit: crhf_exp below product_limit")
    if reference is not None:
        index = np.array(reference["sample_index"])
        worst = float(np.max(np.abs(cols[index] - np.array(reference["sample_rows"]))))
        if worst > 1e-6:
            problems.append(f"fit: sampled rows off reference by {worst:.3g}")
    return problems


def study_summary(result) -> dict:
    return {
        "m": result.config.m,
        "n_pairs": result.n_pairs,
        "n_degenerate": result.n_degenerate,
        "mean_diff": result.mean_diff,
        "mean_ks_product_limit": float(np.mean(result.ks_product_limit)),
        "mean_ks_rhr_mle": float(np.mean(result.ks_rhr_mle)),
    }


def check_study(summary: dict, reference: dict | None) -> list[str]:
    problems = []
    if summary["n_pairs"] + summary["n_degenerate"] != summary["m"]:
        problems.append("study: n_pairs + n_degenerate != m")
    if summary["mean_diff"] != 0.0:
        problems.append(f"study: mean_diff {summary['mean_diff']!r} != 0")
    for key in ("mean_ks_product_limit", "mean_ks_rhr_mle"):
        if not 0.0 <= summary[key] <= 1.0:
            problems.append(f"study: {key} outside [0,1]")
        elif reference is not None and abs(summary[key] - reference[key]) > 1e-12:
            problems.append(f"study: {key} {summary[key]!r} != reference {reference[key]!r}")
    return problems
