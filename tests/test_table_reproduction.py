"""End-to-end regression against the published groundwater copper table."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lodcdf import ingest, product_limit_cdf, rhr_mle_cdf, tally

from _golden import EVAL_POINTS, GOLDEN, assert_matches_golden, compute_table, read_table
from conftest import FIXTURES

FIXTURE = FIXTURES / "groundwater_reconstructed.csv"
ROOT = Path(__file__).parent.parent


def test_reconstructed_fixture_reproduces_golden_table(tmp_path):
    matrix, elapsed = compute_table(FIXTURE, tmp_path)
    err = assert_matches_golden(matrix)
    assert err <= 1e-6
    assert elapsed < 1.0


def test_estimators_identical_from_point_15_up():
    """On this dataset the two estimators agree exactly at 15 and 17; they
    differ below because of values carrying both detections and non-detects."""
    table = tally(ingest(FIXTURE))
    pl = product_limit_cdf(table)
    rhr = rhr_mle_cdf(table)
    for t, f_pl, f_rhr, *_ in GOLDEN:
        k = int(np.searchsorted(pl.support, t, side="right")) - 1
        same = pl.values[k] == rhr.values[k]
        assert same == (t >= 15.0)


def test_golden_points_cover_every_published_row():
    assert len(EVAL_POINTS) == 12 == len(GOLDEN)
    assert [row[0] for row in GOLDEN] == [float(t) for t in EVAL_POINTS]


def test_reproduce_script_writes_the_golden_table_and_a_stable_manifest(tmp_path, monkeypatch):
    """scripts/reproduce_study.py, run from two working directories, writes
    the published table and byte-identical manifests naming its input."""
    spec = importlib.util.spec_from_file_location("reproduce_study", ROOT / "scripts" / "reproduce_study.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    manifests = []
    for cwd in (tmp_path / "a", tmp_path / "b" / "c"):
        cwd.mkdir(parents=True)
        monkeypatch.chdir(cwd)
        assert script.main(["--out-dir", "out"]) == 0
        out = cwd / "out"
        assert sorted(p.name for p in out.iterdir()) == ["application.csv", "manifest.txt"]
        assert_matches_golden(read_table(out / "application.csv"), tol=1e-6)
        manifests.append((out / "manifest.txt").read_bytes())
        assert hashlib.sha256((out / "application.csv").read_bytes()).hexdigest().encode() in manifests[-1]
    assert manifests[0] == manifests[1]
    data = "data/copper.csv" if (ROOT / "data" / "copper.csv").exists() else \
        "tests/fixtures/groundwater_reconstructed.csv"
    assert f"estimate {data} --method all".encode() in manifests[0]
    with pytest.raises(SystemExit):
        script.main(["--out-dir", "out", "--m", "10"])
