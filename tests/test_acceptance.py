"""Acceptance gate: one test per shipped guarantee, one terminal line each.

Every test prints "ACCEPTANCE <n> ...: PASS/FAIL" straight to the terminal
(bypassing capture) so the gate is readable in any pytest run. Tolerances
are pinned here and nowhere else. Criterion 6 is expected to fail; see its
docstring and the README's known-limitations section.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from lodcdf import (
    Dataset,
    SimConfig,
    crhf_exp_cdf,
    product_limit_cdf,
    rhr_mle_cdf,
    run_study,
    tally,
)
from lodcdf.cli import main

from _oracles import ecdf, km_negation_oracle, perturb_censored_ties, rhr_table
from conftest import (FIXTURES, make_grid_dataset, make_tie_free_dataset, make_tied_dataset,
                      pairs_dataset)
from _golden import assert_matches_golden, compute_table

DATA_DIR = Path(__file__).parent.parent / "data"
COPPER = DATA_DIR / "copper.csv"


def check(announce, label, body):
    try:
        note = body()
    except Exception as exc:
        announce(f"ACCEPTANCE {label}: FAIL - {exc}")
        raise
    announce(f"ACCEPTANCE {label}: PASS" + (f" ({note})" if note else ""))


def test_criterion_1_published_table(announce, tmp_path):
    """Twelve published evaluation points, four figures each, to 1e-6 per
    cell, in under a second, through the command-line front end."""

    def body():
        matrix, elapsed = compute_table(FIXTURES / "groundwater_reconstructed.csv", tmp_path)
        err = assert_matches_golden(matrix, tol=1e-6)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        note = f"reconstructed fixture, max cell error {err:.2e}, {elapsed * 1e3:.0f} ms"
        if COPPER.exists():
            matrix2, elapsed2 = compute_table(COPPER, tmp_path)
            err2 = assert_matches_golden(matrix2, tol=1e-6)
            assert elapsed2 < 1.0
            note += f"; original file present, max cell error {err2:.2e}"
        else:
            note += "; original-source slot data/copper.csv not populated"
        return note

    check(announce, "1 (published-table reproduction)", body)


def test_criterion_2_hand_derived_fixture(announce):
    """The six-observation dataset returns its hand-computed rationals to
    1e-12 relative."""

    def body():
        pairs = [(1, False), (1, True), (2, True), (3, False), (3, True), (4, True)]
        table = tally(pairs_dataset(pairs))
        pl = product_limit_cdf(table)
        rhr = rhr_mle_cdf(table)
        targets = [
            (pl.lower_value, 2 / 9),
            (pl.values[0], 4 / 9),
            (pl.values[1], 2 / 3),
            (pl.values[2], 5 / 6),
            (pl.values[3], 1.0),
            (rhr.lower_value, 0.0),
            (rhr.values[0], 5 / 12),
            (rhr.values[1], 5 / 8),
            (rhr.values[2], 5 / 6),
            (rhr.values[3], 1.0),
            (pl.variances[0], 4 / 81),
            (rhr.variances[0], 425 / 8640),
        ]
        for got, want in targets:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)

    check(announce, "2 (hand-derived fixture)", body)


def _all_rows_product(table, use_rhr):
    denom = table.at_or_below - (table.censored if use_rhr else 0)
    mask = table.exact >= 1
    factors = np.ones(table.values.size)
    factors[mask] = 1.0 - table.exact[mask] / denom[mask]
    suffix = np.cumprod(factors[::-1])[::-1]
    return np.append(suffix[1:], 1.0)[mask], float(suffix[0])


def test_criterion_3_property_suite(announce):
    """1000 random datasets, n in [2, 200], mixed censoring: estimator
    ordering, range, monotonicity, variance signs, exact no-censoring
    collapse, and the all-rows/exact-rows product identity."""

    def body():
        rng = np.random.default_rng(1234)
        for k in range(1000):
            d = make_grid_dataset(rng) if k % 3 else make_tie_free_dataset(rng)
            if k % 10 == 0:
                d = Dataset(d.values(), np.ones(d.n, dtype=bool))
            table = tally(d)
            pl = product_limit_cdf(table)
            rhr = rhr_mle_cdf(table)
            crhf = crhf_exp_cdf(table)
            assert np.all(rhr.values <= pl.values)
            assert np.all(pl.values <= crhf.values)
            assert rhr.lower_value <= pl.lower_value <= crhf.lower_value
            for f in (pl, rhr, crhf):
                assert np.all((f.values >= 0) & (f.values <= 1))
                assert np.all(np.diff(f.values) >= 0)
                assert 0 <= f.lower_value <= f.values[0]
            assert np.all(pl.variances >= 0) and np.all(rhr.variances >= 0)
            assert rhr.lower_variance == 0.0
            assert math.isnan(pl.lower_variance) or pl.lower_variance >= 0
            if bool(np.all(d.detected())):
                emp = ecdf(d)
                assert np.array_equal(pl.values, rhr.values)
                assert np.allclose(pl.values, emp.values, rtol=1e-12, atol=0)
            for f, use_rhr in ((pl, False), (rhr, True)):
                levels, lower = _all_rows_product(table, use_rhr)
                assert np.array_equal(levels, f.values)
                assert lower == f.lower_value
        return "1000 datasets"

    check(announce, "3 (property suite)", body)


def test_criterion_4_oracle_equivalence(announce):
    """500 tie-free datasets: the independently coded Kaplan-Meier-on-
    negated-data route agrees with the product-limit estimator to 1e-12.
    500 datasets with forced exact/censored ties: the product-limit fit of
    the tie-perturbed data agrees with the RHR-MLE of the original."""

    def body():
        rng = np.random.default_rng(4321)
        for _ in range(500):
            d = make_tie_free_dataset(rng)
            a = km_negation_oracle(d)
            b = product_limit_cdf(tally(d))
            assert np.array_equal(a.support, b.support)
            assert np.allclose(a.values, b.values, rtol=1e-12, atol=0)
            assert math.isclose(a.lower_value, b.lower_value, rel_tol=1e-12, abs_tol=1e-15)
        for _ in range(500):
            d = make_tied_dataset(rng)
            rhr = rhr_mle_cdf(tally(d))
            pl = product_limit_cdf(tally(perturb_censored_ties(d)))
            assert np.array_equal(pl.support, rhr.support)
            assert np.allclose(pl.values, rhr.values, rtol=1e-12, atol=0)
            assert math.isclose(pl.lower_value, rhr.lower_value, rel_tol=1e-12, abs_tol=1e-15)
        return "500 tie-free + 500 forced-tie datasets"

    check(announce, "4 (negation oracle and tie equivalence)", body)


def test_criterion_5_likelihood_checks(announce):
    """100 random tallies: every fitted rate beats a 1e-4-step grid in its
    own log-likelihood coordinate, and the analytic curvature matches a
    central second difference (h=1e-5) to 1e-5 relative."""

    def body():
        rng = np.random.default_rng(5678)
        grid = np.arange(1, 10000) / 10000.0
        log_grid = np.log(grid)
        log1p_grid = np.log1p(-grid)
        h = 1e-5
        for _ in range(100):
            table = tally(make_grid_dataset(rng))
            rates = rhr_table(table).rates
            mask = table.exact >= 1
            ds = table.exact[mask]
            qs = table.censored[mask]
            ys = table.at_or_below[mask]
            for d_k, q_k, y_k, r_hat in zip(ds, qs, ys, rates):
                below = int(y_k - d_k - q_k)
                ll_grid = d_k * log_grid + below * log1p_grid
                ll_hat = d_k * math.log(r_hat)
                if below:
                    ll_hat += below * math.log1p(-r_hat)
                assert ll_hat >= ll_grid.max() - 1e-9 * (1 + abs(ll_hat))
                if below == 0:
                    continue

                def ll(r):
                    return d_k * math.log(r) + below * math.log(1.0 - r)

                second = (ll(r_hat + h) - 2.0 * ll(r_hat) + ll(r_hat - h)) / h**2
                expected = -float(y_k - q_k) ** 3 / (d_k * below)
                assert math.isclose(second, expected, rel_tol=1e-5), (second, expected)
        return "100 tallies, grid step 1e-4, h=1e-5"

    check(announce, "5 (likelihood grid and curvature)", body)


def test_criterion_6_simulation_signs(announce):
    """EXPECTED TO FAIL, kept red on purpose.

    The comparison study is required to show a positive average gap
    between the two estimators' distances to the truth at sigma=1 (both
    censoring schemes) and a decay of that gap by sigma=15. But both
    schemes draw lifetimes and thresholds from continuous distributions,
    so a censored value ties an exact value with probability zero, and on
    tie-free data the two estimators are algebraically identical (see
    test_estimators_coincide_without_ties). Every replication therefore
    contributes a difference of exactly 0.0, the study means are exactly
    zero, and no seed or replication count can make these assertions
    hold. The machinery itself (runtime, accounting, reproducibility) is
    exercised by the surrounding suite."""

    def body():
        n, m, seed = 50, 1000, 42
        runs = {}
        for label, cfg in {
            "time sigma=1": SimConfig(mu=0.0, sigma=1.0, scheme="time", n=n, m=m, seed=seed),
            "random sigma=1": SimConfig(mu=0.0, sigma=1.0, scheme="random", n=n, m=m, seed=seed),
            "time sigma=15": SimConfig(mu=0.0, sigma=15.0, scheme="time", n=n, m=m, seed=seed),
        }.items():
            start = time.perf_counter()
            runs[label] = run_study(cfg)
            assert time.perf_counter() - start < 30.0, f"{label} over time budget"
        summary = ", ".join(
            f"{label}: mean_diff={r.mean_diff:.3g} se={r.se_diff:.3g}"
            for label, r in runs.items()
        )
        r_time = runs["time sigma=1"]
        r_rand = runs["random sigma=1"]
        r_wide = runs["time sigma=15"]
        assert r_time.mean_diff - 2 * r_time.se_diff > 0, (
            f"no positive margin under time censoring [{summary}]"
        )
        assert r_rand.mean_diff - 2 * r_rand.se_diff > 0, (
            f"no positive margin under random censoring [{summary}]"
        )
        assert abs(r_wide.mean_diff) < abs(r_time.mean_diff), (
            f"no decay from sigma=1 to sigma=15 [{summary}]"
        )
        return summary

    check(announce, "6 (simulation signs, known red)", body)


def test_criterion_7_determinism(announce, tmp_path):
    """simulate and sweep are byte-identical across repeat runs, across
    worker counts, and across separate processes."""

    def body():
        sim = ["simulate", "--mu", "0", "--sigma", "1", "--n", "20", "--m", "60",
               "--seed", "42", "--full"]
        outs = []
        for tag, jobs in (("a", "1"), ("b", "1"), ("c", "3")):
            path = tmp_path / f"sim_{tag}.json"
            assert main(sim + ["--jobs", jobs, "--output", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

        sw = ["sweep", "--fix", "mu=0", "--grid", "sigma=0.5:2:3", "--n", "10",
              "--m", "20", "--seed", "7"]
        outs = []
        for tag, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
            path = tmp_path / f"sw_{tag}.csv"
            assert main(sw + ["--jobs", jobs, "--output", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

        procs = [
            subprocess.run([sys.executable, "-m", "lodcdf.cli"] + sim,
                           capture_output=True, check=True)
            for _ in range(2)
        ]
        assert procs[0].stdout == procs[1].stdout
        doc = json.loads(procs[0].stdout)
        assert doc["n_pairs"] + doc["n_degenerate"] == 60
        return "simulate and sweep, repeat runs, jobs 1/2/3, separate processes"

    check(announce, "7 (byte-identical determinism)", body)
