import hashlib
import json
import math
import os
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodcdf import (
    Dataset,
    crhf_exp_cdf,
    eval_cdf,
    ingest,
    product_limit_cdf,
    rhr_mle_cdf,
    tally,
)
from lodcdf import cli, estimators
from lodcdf.cli import METHODS, main

from _oracles import fmt_cell
from conftest import FIXTURES, pairs_dataset
from test_estimators import pair_lists

SIX = FIXTURES / "six_obs.csv"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- estimate


def test_estimate_product_limit_text(capsys):
    code, out, _ = run(capsys, "estimate", str(SIX))
    assert code == 0
    lines = out.splitlines()
    assert "# method: product-limit" in lines
    assert "t,estimate,variance,stderr" in lines
    assert "1,0.4444444,0.04938272,0.2222222" in lines
    assert "4,1,0,0" in lines
    assert "# lower_value: 0.2222222" in lines


def test_estimate_eval_points_table_layout(capsys):
    code, out, _ = run(capsys, "estimate", str(SIX), "--method", "all",
                       "--eval-points", "0.5,1,3")
    assert code == 0
    lines = out.splitlines()
    assert "t,product_limit,rhr_mle,se_product_limit,se_rhr_mle" in lines
    row = [l for l in lines if l.startswith("0.5,")][0]
    # below the first jump: estimates fall back to the lower values
    assert row.split(",")[1] == "0.2222222"
    assert row.split(",")[2] == "0"


def test_estimate_all_wide_table(capsys):
    code, out, _ = run(capsys, "estimate", str(SIX), "--method", "all")
    assert code == 0
    assert "t,product_limit,rhr_mle,crhf_exp,se_product_limit,se_rhr_mle" in out


def test_estimate_rhr_and_crhf_methods(capsys):
    code, out, _ = run(capsys, "estimate", str(SIX), "--method", "rhr-mle")
    assert code == 0
    assert "1,0.4166667,0.04918981,0.2217878" in out
    code, out, _ = run(capsys, "estimate", str(SIX), "--method", "crhf-exp")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("1,")][0]
    assert line.split(",")[2] == ""  # no variance for this estimator


def test_estimate_json(capsys):
    code, out, _ = run(capsys, "estimate", str(SIX), "--method", "all",
                       "--format", "json", "--eval-points", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    methods = [e["method"] for e in doc["estimates"]]
    assert methods == ["product-limit", "rhr-mle", "crhf-exp"]
    pl = doc["estimates"][0]
    assert math.isclose(pl["lower_value"], 2 / 9, rel_tol=1e-12)
    assert math.isclose(pl["values"][0], 4 / 9, rel_tol=1e-12)
    assert len(doc["eval"]) == 2


def _nan_for_null(x):
    return np.nan if x is None else x


@settings(max_examples=60, deadline=None)
@given(pair_lists(), st.floats(1e-3, 1e3))
def test_estimate_json_round_trips_to_the_fit(tmp_path_factory, pairs, scale):
    """Every number of ``estimate --format json`` reads back exactly as the
    in-memory fit, with null standing for NaN."""
    pairs = [(v * scale, flag) for v, flag in pairs]
    workdir = tmp_path_factory.mktemp("roundtrip")
    data, out = workdir / "data.csv", workdir / "fit.json"
    data.write_text("value,detected\n" + "".join(f"{v!r},{int(flag)}\n" for v, flag in pairs))
    table = tally(pairs_dataset(pairs))
    fits = {
        "product-limit": product_limit_cdf(table),
        "rhr-mle": rhr_mle_cdf(table),
        "crhf-exp": crhf_exp_cdf(table),
    }
    for method, fit in fits.items():
        assert main(["estimate", str(data), "--method", method, "--format", "json",
                     "--output", str(out)]) == 0
        (doc,) = json.loads(out.read_text())["estimates"]
        assert np.array_equal(doc["support"], fit.support)
        assert np.array_equal(doc["values"], fit.values)
        assert doc["lower_value"] == fit.lower_value
        assert np.array_equal(_nan_for_null(doc["lower_variance"]), _nan_for_null(fit.lower_variance),
                              equal_nan=True)
        if fit.variances is None:
            assert "variances" not in doc
        else:
            variances = [_nan_for_null(v) for v in doc["variances"]]
            assert np.array_equal(variances, fit.variances, equal_nan=True)


def _not_json(name):
    raise AssertionError(f"{name} is not JSON")


def _listed(column: np.ndarray) -> list:
    """An array as the JSON list it stands for: NaN and +-inf as null."""
    return [v if isinstance(v, int) or math.isfinite(v) else None for v in column.tolist()]


def _json_docs(monkeypatch, argv) -> list:
    """The documents ``main(argv)`` hands to ``cli._json``, each checked to
    render as ``json.dumps(doc, indent=2)`` plus a newline, byte for byte,
    a numpy array being dumped as ``_listed`` makes it."""
    docs, render = [], cli._json

    def checked(doc):
        docs.append(doc)
        rendered = b"".join(render(doc))
        assert rendered == (json.dumps(doc, indent=2, default=_listed) + "\n").encode()
        json.loads(rendered, parse_constant=_not_json)  # NaN and inf are null
        return [rendered]

    monkeypatch.setattr(cli, "_json", checked)
    assert main(argv) == 0
    return docs


@settings(max_examples=40, deadline=None)
@given(pair_lists(), st.sampled_from([1.0, 0.1, 1e-7, 3e5]), st.booleans(),
       st.sampled_from(METHODS + ("all",)))
def test_estimate_and_compare_json_are_the_indented_dump(tmp_path_factory, pairs, scale,
                                                         at_points, method):
    """Both commands' JSON, with ties, zeros, null variances and an eval
    table, is ``json.dumps(doc, indent=2)`` byte for byte."""
    workdir = tmp_path_factory.mktemp("json")
    data, out = workdir / "data.csv", workdir / "out.json"
    data.write_text("value,detected\n" + "".join(f"{v * scale!r},{int(flag)}\n" for v, flag in pairs))
    points = ["--eval-points", "0,0.5,1,2.5,100"] if at_points else []
    with pytest.MonkeyPatch.context() as mp:
        (doc,) = _json_docs(mp, ["estimate", str(data), "--method", method, "--format", "json",
                                 "--output", str(out), *points])
        assert ("eval" in doc) == at_points
        (doc,) = _json_docs(mp, ["compare", str(data), "--format", "json", "--output", str(out)])
        assert len(doc["rows"]) >= 1


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["time", "random"]), st.integers(4, 12), st.integers(2, 30),
       st.integers(0, 2**64 - 1))
def test_simulate_full_json_is_the_indented_dump(tmp_path_factory, scheme, n, m, seed):
    out = tmp_path_factory.mktemp("sim") / "sim.json"
    with pytest.MonkeyPatch.context() as mp:
        # mu = 2 puts most lifetimes above the LODs, so studies are not degenerate
        (doc,) = _json_docs(mp, ["simulate", "--mu", "2", "--sigma", "1", "--scheme", scheme,
                                 "--n", str(n), "--m", str(m), "--seed", str(seed), "--full",
                                 "--output", str(out)])
    assert len(doc["pairs"]) == doc["n_pairs"]


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
                         st.text(alphabet='{}[],:"\\ \n\tab\u00e9\u2028', max_size=6))
JSON_ROWS = st.lists(st.dictionaries(st.text(alphabet='{}",\n ab', max_size=3), JSON_SCALARS,
                                     min_size=1, max_size=4)
                     | st.lists(JSON_SCALARS, min_size=1, max_size=4), max_size=5)
JSON_DOCS = st.recursive(
    JSON_SCALARS | JSON_ROWS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
def test_json_layout_is_the_indented_dump(doc):
    """Nested and empty containers, row tables and strings holding
    brackets, separators and line breaks lay out as the indented dump."""
    assert b"".join(cli._json(doc)) == (json.dumps(doc, indent=2) + "\n").encode()


def test_estimate_unstable_variance_rendering(capsys, tmp_path):
    # every observation at or below the first exact value is exact there:
    # the variance below the first jump is the 0*inf sentinel
    p = tmp_path / "d.csv"
    p.write_text("value,detected\n1,1\n2,0\n3,1\n")
    code, out, _ = run(capsys, "estimate", str(p), "--eval-points", "0.5,1")
    assert code == 0
    lines = out.splitlines()
    assert "# lower_variance: unstable" in lines
    row = [l for l in lines if l.startswith("0.5,")][0]
    assert row == "0.5,0,unstable,unstable"
    code, out, _ = run(capsys, "estimate", str(p), "--format", "json")
    assert json.loads(out)["estimates"][0]["lower_variance"] is None


def _right_continuous(f, t):
    """F̂(t) and its variance by direct lookup: the last jump at or below t,
    else the values below the first jump."""
    k = sum(s <= t for s in f.support.tolist()) - 1
    if k < 0:
        return f.lower_value, f.lower_variance
    return float(f.values[k]), None if f.variances is None else float(f.variances[k])


def _table_rows(text):
    """The data rows of a CSV table: the lines after the column names."""
    lines = text.splitlines()
    return lines[next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1:]


@settings(max_examples=40, deadline=None)
@given(pair_lists(max_n=30), st.sampled_from(METHODS + ("all",)), st.booleans())
def test_csv_cells_are_the_scalar_evaluation(tmp_path_factory, pairs, method, at_points):
    """Every cell of ``estimate`` is the scalar ``eval_cdf`` result, formatted
    one at a time, at points below the first jump, on each jump, between
    jumps and above the last; and ``eval_cdf`` is the right-continuous
    lookup."""
    workdir = tmp_path_factory.mktemp("cells")
    data, out = workdir / "data.csv", workdir / "fit.csv"
    data.write_text("value,detected\n" + "".join(f"{v!r},{int(flag)}\n" for v, flag in pairs))
    table = tally(pairs_dataset(pairs))
    fits = {name: cli._FITS[name](table) for name in METHODS}
    support = fits["product-limit"].support.tolist()
    mids = [(a + b) / 2 for a, b in zip(support, support[1:])]
    points = [support[0] / 2, *support, *mids, support[-1] + 1] if at_points else support
    argv = ["estimate", str(data), "--method", method, "--output", str(out)]
    if at_points:
        argv += ["--eval-points", ",".join(map(repr, points))]
    assert main(argv) == 0

    def at(name, t):
        estimate, variance = eval_cdf(fits[name], t)
        assert repr((estimate, variance)) == repr(_right_continuous(fits[name], t))
        return estimate, variance, None if variance is None else math.sqrt(variance)

    expected = []
    for t in points:
        if method != "all":
            cells = (t, *at(method, t))
        else:
            (pl, _, se_pl), (rhr, _, se_rhr) = at("product-limit", t), at("rhr-mle", t)
            crhf = () if at_points else (at("crhf-exp", t)[0],)
            cells = (t, pl, rhr, *crhf, se_pl, se_rhr)
        expected.append(",".join(map(fmt_cell, cells)))
    assert _table_rows(out.read_text()) == expected


def test_csv_blocks_join_into_one_table(tmp_path, monkeypatch):
    argv = ["estimate", str(FIXTURES / "groundwater_reconstructed.csv"), "--method", "all"]
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    assert main(argv + ["--output", str(whole)]) == 0
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
    assert main(argv + ["--output", str(blocked)]) == 0
    assert len(_table_rows(whole.read_text())) > 3
    assert blocked.read_text() == whole.read_text()


def _rendered(columns, block_rows):
    """The data rows ``cli._csv`` renders for ``columns``, ``block_rows`` rows a block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK_ROWS", block_rows)
        return _table_rows(b"".join(cli._csv(["# test"], columns)).decode())


def _adversarial_floats() -> np.ndarray:
    """Values where %.7g rounds at a half or changes notation, for every
    decimal exponent of its fixed notation (-4..6) and its neighbours."""
    out = []
    for e in range(-5, 8):
        k = np.array([10_000_005, 12_345_675, 50_000_005, 99_999_995, 99_999_985])
        halves = k * 10.0 ** (e - 7)  # 8 significant digits ending in 5
        powers = np.array([10.0 ** e])
        for v in (halves, powers, np.array([9_999_999.5 * 10.0 ** (e - 6)])):
            out += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    out.append(np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan,
                         1.7976931348623157e308, 0.5, 1.0]))
    x = np.concatenate(out)
    return np.concatenate([x, -x])


FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(1e-5, 1e7),
    st.builds(lambda k, e: k * 10.0 ** e, st.integers(-10**9, 10**9), st.integers(-14, 8)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FLOAT_CELLS, st.integers(-2**63, 2**63 - 1), st.booleans()),
                min_size=1, max_size=40),
       st.sampled_from([1, 3, 4096]))
def test_rendered_cells_are_the_scalar_format(rows, block_rows):
    """Float, integer, flag and None columns render cell by cell as the
    scalar oracle formats them, whatever the block size; ``_fmt`` too."""
    floats, ints, flags = (list(c) for c in zip(*rows))
    x = np.array(floats)
    columns = {"x": x, "n": np.array(ints, dtype=np.int64),
               "tie": np.array(flags), "none": None, "x_again": x}
    expected = [",".join(map(fmt_cell, (x, n, b, None, x))) for x, n, b in rows]
    assert _rendered(columns, block_rows) == expected
    assert [cli._fmt(x) for x in floats] == list(map(fmt_cell, floats))


@pytest.mark.parametrize("block_rows", [1, 2, 4096])
def test_columns_render_once_only_when_dtype_and_bytes_match(block_rows):
    """Equal values are not enough to share cells: -0.0 == 0.0 and
    10**7 == 1e7, but each prints its own way."""
    columns = {"a": np.array([0.0, 1.0]), "b": np.array([-0.0, 1.0]), "c": np.array([-0.0, 1.0]),
               "d": np.array([0.0, 1.0])}
    assert _rendered(columns, block_rows) == ["0,-0,-0,0", "1,1,1,1"]
    columns = {"x": np.array([1e7]), "n": np.array([10_000_000]), "m": np.array([10_000_000])}
    assert _rendered(columns, block_rows) == ["1e+07,10000000,10000000"]


@pytest.mark.parametrize("block_rows", [1, 3, 4096])
def test_rendered_cells_match_at_rounding_edges(block_rows):
    x = _adversarial_floats()
    expected = [fmt_cell(v) for v in x.tolist()]
    assert _rendered({"x": x}, block_rows) == expected
    assert [cli._fmt(v) for v in x.tolist()] == expected


def test_fit_shaped_columns_render_as_the_scalar_format_across_blocks():
    """Three blocks and more at the default block size: sorted support
    values, CDF values in (0, 1], standard errors with 0, subnormal and NaN
    lanes, an integer column, a None column and columns equal to earlier
    ones, ending in a None column or in a copy."""
    rows = 3 * cli._BLOCK_ROWS + 5
    rng = np.random.default_rng(31)
    t = np.sort(rng.lognormal(0.0, 2.0, rows))
    cdf = np.sort(rng.uniform(0.0, 1.0, rows))
    cdf[0], cdf[-1] = 5e-5, 1.0
    se = rng.uniform(0.0, 0.05, rows)
    edges = [0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, 2 * cli._BLOCK_ROWS, rows - 1]
    se[edges] = [0.0, 5e-324, np.nan, 2.2250738585072014e-308 / 3, np.nan, 0.0]
    counts = rng.integers(-10**12, 10**12, rows)
    tables = [
        {"t": t, "estimate": cdf, "estimate_again": cdf.copy(), "se": se, "n": counts, "none": None},
        {"t": t, "estimate": cdf, "se": se, "n": counts, "none": None, "se_again": se.copy()},
    ]
    for columns in tables:
        values = [[None] * rows if c is None else c.tolist() for c in columns.values()]
        expected = [",".join(map(fmt_cell, row)) for row in zip(*values)]
        assert _rendered(columns, cli._BLOCK_ROWS) == expected


def test_negative_zero_prints_as_minus_zero(capsys, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("value,detected\n-0.0,1\n1,0\n2,1\n")
    code, out, _ = run(capsys, "estimate", str(p))
    assert code == 0
    assert _table_rows(out)[0].startswith("-0,")


def test_crhf_has_no_variance_below_the_first_jump(capsys):
    lower = crhf_exp_cdf(tally(ingest(SIX))).lower_value
    code, out, _ = run(capsys, "estimate", str(SIX), "--method", "crhf-exp", "--eval-points", "0.5")
    assert code == 0
    assert _table_rows(out) == [f"0.5,{fmt_cell(lower)},,"]
    code, out, _ = run(capsys, "estimate", str(SIX), "--method", "crhf-exp", "--eval-points", "0.5",
                       "--format", "json")
    assert json.loads(out)["eval"] == [{"t": 0.5, "crhf-exp": lower, "crhf-exp_variance": None}]


def test_estimate_calls_each_fit_through_the_cli_module(capsys, monkeypatch):
    """``estimate --method all`` looks every fit up on ``lodcdf.cli`` when it
    runs, so a wrapper set there sees each call exactly once."""
    calls = {}
    for name in ("product_limit_cdf", "rhr_mle_cdf", "crhf_exp_cdf"):
        def counted(table, name=name, fit=getattr(cli, name)):
            calls[name] = calls.get(name, 0) + 1
            return fit(table)
        monkeypatch.setattr(cli, name, counted)
    code, _, _ = run(capsys, "estimate", str(SIX), "--method", "all", "--format", "json")
    assert code == 0
    assert calls == {"product_limit_cdf": 1, "rhr_mle_cdf": 1, "crhf_exp_cdf": 1}


def test_estimate_output_file(capsys, tmp_path):
    out_path = tmp_path / "est.csv"
    code, out, _ = run(capsys, "estimate", str(SIX), "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert "t,estimate,variance,stderr" in out_path.read_text()


def test_output_write_failure_keeps_existing_file(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "est.csv"
    out_path.write_text("previous\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    code, out, err = run(capsys, "estimate", str(SIX), "--output", str(out_path))
    assert code == 2
    assert "disk full" in err
    assert out_path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["est.csv"]


def test_failed_block_write_leaves_no_partial_file(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "est.csv"
    out_path.write_text("previous\n")
    real_open = open
    written = []

    class FailAfterFirstBlock:
        """A file whose writelines writes one block, then fails."""

        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, parts):
            parts = iter(parts)
            self.fh.write(next(parts))
            self.fh.flush()
            written.append(self.fh.name)
            raise OSError("disk full")

    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
    monkeypatch.setattr(cli, "open", FailAfterFirstBlock, raising=False)
    code, out, err = run(capsys, "estimate", str(FIXTURES / "groundwater_reconstructed.csv"),
                         "--method", "all", "--output", str(out_path))
    assert code == 2
    assert "disk full" in err
    (name,) = map(os.path.basename, written)
    assert name.startswith(".est.csv.") and name.endswith(".tmp")
    assert out_path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["est.csv"]


def test_stale_temporary_file_does_not_block_output(capsys, tmp_path):
    # a run killed mid-write leaves its temporary behind; a later run with
    # the same process id still writes, and leaves that file alone
    out_path = tmp_path / "out.csv"
    stale = tmp_path / f".out.csv.{os.getpid()}.tmp"
    stale.write_text("stale\n")
    assert run(capsys, "estimate", str(SIX), "--output", str(out_path))[0] == 0
    assert out_path.read_text() == run(capsys, "estimate", str(SIX))[1]
    assert stale.read_text() == "stale\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "out.csv"]


def test_output_follows_symlink_and_keeps_mode(capsys, tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("previous\n")
    real.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    code, out, _ = run(capsys, "estimate", str(SIX))
    assert run(capsys, "estimate", str(SIX), "--output", str(link))[0] == 0
    assert link.is_symlink()
    assert real.read_text() == out
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_output_to_fifo_is_written_in_place(capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # A reader that is already open lets the writer open without blocking.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, _ = run(capsys, "estimate", str(SIX))
        assert run(capsys, "estimate", str(SIX), "--output", str(fifo))[0] == 0
        assert os.read(reader, 1 << 16).decode() == out
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def _estimate_six(*argv: str, **streams) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "lodcdf.cli", "estimate", str(SIX), *argv], **streams)


def test_output_to_dev_stdout_writes_into_a_pipe():
    """``--output /dev/stdout`` writes to the descriptor, so a pipe gets the
    table instead of a failed attempt at a temporary file beside it."""
    plain = _estimate_six(capture_output=True)
    piped = _estimate_six("--output", "/dev/stdout", capture_output=True)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == plain.stdout and b"1,0.4444444,0.04938272,0.2222222" in piped.stdout


def test_output_to_dev_stdout_appends_to_a_redirected_file(tmp_path):
    """With stdout opened for appending (``>> f``), ``--output /dev/stdout``
    adds the table after what the file holds rather than replacing it."""
    target = tmp_path / "f.csv"
    target.write_bytes(b"keep\n")
    plain = _estimate_six(capture_output=True)
    with open(target, "ab") as fh:
        proc = _estimate_six("--output", "/dev/stdout", stdout=fh, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert target.read_bytes() == b"keep\n" + plain.stdout
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]


def test_output_to_directory_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for target in (".", str(tmp_path)):
        code, out, err = run(capsys, "estimate", str(SIX), "--output", target)
        assert code == 2, target
        assert out == "" and err
    assert list(tmp_path.iterdir()) == []


def test_output_in_missing_directory_names_the_output(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "estimate", str(SIX), "--output", str(target))
    assert code == 2
    assert out == ""
    assert str(Path("missing", "x.csv")) in err
    assert ".tmp" not in err
    assert "no temporary file could be created" in err
    assert list(tmp_path.iterdir()) == []


def test_readme_cli_examples_parse():
    """Every ``lodcdf ...`` line of README's "Command line" block is
    accepted by the parser, so a removed or renamed flag cannot stay there."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("lodcdf ")]
    assert len(examples) == 5
    parser = cli.build_parser()
    for argv in examples:
        assert parser.parse_args(argv).func is not None, argv


def test_readme_python_example_runs():
    """README's Quick start block runs, and its fit is the one its comments state."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    fit = namespace["fit"]
    assert fit.support.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert np.allclose(fit.values, [4 / 9, 2 / 3, 5 / 6, 1.0], rtol=1e-15, atol=0)
    assert math.isclose(fit.lower_value, 2 / 9, rel_tol=1e-15)


def test_estimate_rejects_non_finite_eval_points(capsys):
    for points in ("nan", "inf", "1,-inf", "nan,inf"):
        code, out, err = run(capsys, "estimate", str(SIX), "--eval-points", points)
        assert code == 5, points
        assert out == ""
        assert "--eval-points" in err
    code, _, err = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                       "--lods", "nan", "--m", "2")
    assert code == 5
    assert "--lods" in err


def test_estimate_rejects_non_numeric_eval_points(capsys):
    code, out, err = run(capsys, "estimate", str(SIX), "--eval-points", "a,b")
    assert code == 5
    assert out == ""
    assert "--eval-points expects comma-separated numbers" in err


@pytest.mark.parametrize("points", ["", ",", " "])
def test_estimate_rejects_empty_eval_points(capsys, points):
    """An empty --eval-points is an error, not a request for the support table."""
    code, out, err = run(capsys, "estimate", str(SIX), "--eval-points", points)
    assert code == 5
    assert out == ""
    assert "--eval-points expects at least one number" in err


def test_fully_tied_large_sample(capsys, tmp_path):
    """200k rows at one value, a third of them detected, tally to one row
    and every estimator fits them."""
    n = 200_000
    detected = np.arange(n) % 3 == 0
    t = tally(Dataset(np.full(n, 2.5), detected))
    assert t.values.tolist() == [2.5]
    assert (t.exact.tolist(), t.censored.tolist(), t.at_or_below.tolist()) == ([66667], [133333], [n])
    p = tmp_path / "tied.csv"
    p.write_text("value,detected\n" + "".join(f"2.5,{int(f)}\n" for f in detected))
    code, out, _ = run(capsys, "estimate", str(p), "--method", "all")
    assert code == 0
    assert len(_table_rows(out)) == 1


# ----------------------------------------------------------------- compare


def test_compare_text(capsys):
    code, out, _ = run(capsys, "compare", str(SIX))
    assert code == 0
    lines = out.splitlines()
    assert "t,product_limit,rhr_mle,ratio,tie" in lines
    assert "1,0.4444444,0.4166667,0.9375,1" in lines
    assert "3,0.8333333,0.8333333,1,1" in lines
    assert "4,1,1,1,0" in lines
    assert any(l.startswith("# mean[at-first-exact]:") for l in lines)
    assert any(l.startswith("# mean[at-zero]:") for l in lines)


def test_compare_tie_free_all_ones(capsys, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("value,detected\n1,1\n2,0\n3,1\n4,1\n")
    code, out, _ = run(capsys, "compare", str(p))
    assert code == 0
    for line in out.splitlines():
        if line and not line.startswith(("#", "t,")):
            cells = line.split(",")
            assert cells[3] == "1" and cells[4] == "0"


def test_compare_json_means(capsys):
    code, out, _ = run(capsys, "compare", str(SIX), "--format", "json")
    doc = json.loads(out)
    assert math.isclose(doc["means"]["at-first-exact"]["product_limit"], 37 / 18,
                        rel_tol=1e-12)
    assert math.isclose(doc["means"]["at-zero"]["product_limit"], 11 / 6,
                        rel_tol=1e-12)
    assert [r["tie"] for r in doc["rows"]] == [True, False, True, False]


def test_compare_sums_each_fit_once(capsys, monkeypatch):
    """Both means of a fit come from one correctly rounded sum of its jumps."""
    calls = []

    def counted(terms, fsum=estimators.math.fsum):
        calls.append(len(terms))
        return fsum(terms)
    monkeypatch.setattr(estimators.math, "fsum", counted)
    code, _, _ = run(capsys, "compare", str(SIX))
    assert code == 0
    assert calls == [4, 4]


# ------------------------------------------------------- frozen digests

EVAL = "0,0.3,0.5,1,1.5,2,2.5,3,10,100"

# sha256 of each command's output file on the two fixtures: a change to the
# estimator kernel must keep these bytes. The outputs use only correctly
# rounded arithmetic (compare's means sum with math.fsum) and the %.7g cell
# format, so the digests hold on any host. JSON from crhf-exp (and "all")
# is left out: its full-precision numbers go through np.exp, whose last bit
# depends on the SIMD kernel (numpy's AVX-512 exp differs from libm's in
# the last bit on one crhf-exp value of each fixture).
FROZEN_DIGESTS = {
    "groundwater_reconstructed.csv estimate --method product-limit --format csv":
        "b91b5bb503919582c1879c29e2dd32bf2e6f0ae483214d823dba333ed720b244",
    f"groundwater_reconstructed.csv estimate --method product-limit --format csv --eval-points {EVAL}":
        "3141f7c5e151bde3cd7bb2054ac0aabb4823512df2a0631f17ac7f5a82f6b4dd",
    "groundwater_reconstructed.csv estimate --method product-limit --format json":
        "f585596b72994725f4dcaa0c7a5196d8c1534a5ab2d42bca741479309e94296d",
    f"groundwater_reconstructed.csv estimate --method product-limit --format json --eval-points {EVAL}":
        "078c9381783a012ef9859d5bb041dc41de4e410a9ef96b401b8286bf62b850f1",
    "groundwater_reconstructed.csv estimate --method rhr-mle --format csv":
        "e46ddb3b7f27ba5604827be40bd9c6ed912042dfbdbbe9c172449e31079ea2b7",
    f"groundwater_reconstructed.csv estimate --method rhr-mle --format csv --eval-points {EVAL}":
        "acb1abedadd20cf99c9d3efa3c43181d197d09aaf51836dc618592536e06cf34",
    "groundwater_reconstructed.csv estimate --method rhr-mle --format json":
        "697490f687bcad17870b4913ace099771f5dc39796da9935c04ff1198c662f91",
    f"groundwater_reconstructed.csv estimate --method rhr-mle --format json --eval-points {EVAL}":
        "ca4b01554362366abf30df3a1abc60f21745b0caee1fba49d9e701f2a001ee14",
    "groundwater_reconstructed.csv estimate --method crhf-exp --format csv":
        "15a53fd3807895ff53d12ce2482c9b1d3d05d6fba2a5c6c413c104f06edd01e0",
    f"groundwater_reconstructed.csv estimate --method crhf-exp --format csv --eval-points {EVAL}":
        "6d4fc2007d25e83c887d9a1a1a8a6e291ef13e85cb7badfd7be8e915be6ac253",
    "groundwater_reconstructed.csv estimate --method all --format csv":
        "12d00ed10798a79ed1ebb37415b857544d22deb6072eef08e079b9952d9eb1c9",
    f"groundwater_reconstructed.csv estimate --method all --format csv --eval-points {EVAL}":
        "a40a26c3c5cda83ac88190be839aac8a521d249abffb73e299458d376ce65b85",
    "groundwater_reconstructed.csv compare --format csv":
        "fee3055fad3b830b0ec0d15694f3ee13a9a590d99ab474b6e89ba30d924f9d60",
    "groundwater_reconstructed.csv compare --format json":
        "c7fea4dc40af22d44ee742047b9a806162ce92ec0e5874a0ffd06cd37a9b24f7",
    "six_obs.csv estimate --method product-limit --format csv":
        "6ab735aa3b61ef9857bbf9e580759bebb31b021adfc109fc3e96bbe1927cd960",
    f"six_obs.csv estimate --method product-limit --format csv --eval-points {EVAL}":
        "8d939e043066a1f1596894e9a84e0a145509a14aeb61e069ed661b93645b47b1",
    "six_obs.csv estimate --method product-limit --format json":
        "ae2a4d1f364e4775bbfd924ac2dce156397d7015053de683a516c88e9792c472",
    f"six_obs.csv estimate --method product-limit --format json --eval-points {EVAL}":
        "ad81f1b1d905ea0da3e97ffccc2f5568adaa39985a09a61c1d57f611173fd9ca",
    "six_obs.csv estimate --method rhr-mle --format csv":
        "8fefd70c43ba2c66f2d3cd50d5b64f7e0a754dc38175f71e5a82a344dc390700",
    f"six_obs.csv estimate --method rhr-mle --format csv --eval-points {EVAL}":
        "5389729b1d7a414e768e6035542d0ded2aa8a0354f353d11f8926b094dc4311b",
    "six_obs.csv estimate --method rhr-mle --format json":
        "5e5bdbbd0f590cd3aee88dc2cd1371fb4ce8fefb782a29696dc2c9e4b0416a53",
    f"six_obs.csv estimate --method rhr-mle --format json --eval-points {EVAL}":
        "bc1b9014ec2237f59244c1400bc6a0dce8b03c0a176c1e9646f8a35f815c5d0e",
    "six_obs.csv estimate --method crhf-exp --format csv":
        "9f3c9078a4735ce161ef8b42c512b657fb503e5939af79347f3d20fb7cdf58ae",
    f"six_obs.csv estimate --method crhf-exp --format csv --eval-points {EVAL}":
        "5e8f733a3806f78ca42556b096494e6db289c1760aa4ddf9caaa13f6a01aaa78",
    "six_obs.csv estimate --method all --format csv":
        "ad48fc804b321759d0779e63f73cd9a2f7861a1c3fb466a42f23bd028fbbe530",
    f"six_obs.csv estimate --method all --format csv --eval-points {EVAL}":
        "bb8e3df09e15961401dae84882ca0e2216d65f6036e07a953ae1845a1d08113b",
    "six_obs.csv compare --format csv":
        "93e7181bd4f6e9f62ca957ba53537ecb2332589022c0aa92f1dbf30bc90d485a",
    "six_obs.csv compare --format json":
        "007b85a83f2d9f20be705325420efe1d63a6d0c76489d5ec4884f0890cc12ceb",
}


@pytest.mark.parametrize("command", list(FROZEN_DIGESTS))
def test_fixture_outputs_keep_their_digest(command, tmp_path):
    name, *args = command.split()
    out = tmp_path / "out"
    assert main(args[:1] + [str(FIXTURES / name)] + args[1:] + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FROZEN_DIGESTS[command]


def test_compare_json_does_not_depend_on_the_blas_thread_count(tmp_path):
    """compare's means are the same bits under one and two OpenBLAS threads
    on 50k distinct jumps, where a BLAS dot changes its summation order."""
    rng = np.random.default_rng(1)
    lifetimes = np.exp(rng.standard_normal(50_000))
    lods = np.array([0.5, 1.0, 2.0])[rng.integers(0, 3, lifetimes.size)]
    rows = zip(np.maximum(lifetimes, lods).tolist(), (lifetimes >= lods).tolist())
    data = tmp_path / "lognormal.csv"
    data.write_text("".join(f"{v!r},{d:d}\n" for v, d in rows))
    outputs = [subprocess.run([sys.executable, "-m", "lodcdf.cli", "compare", str(data),
                               "--format", "json"], capture_output=True, check=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------- simulate


def test_simulate_json_shape_and_determinism(capsys):
    argv = ("simulate", "--mu", "0", "--sigma", "1", "--scheme", "time",
            "--lods", "0.5,1,2", "--n", "20", "--m", "30", "--seed", "42")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    doc = json.loads(first)
    assert doc["config"]["seed"] == 42
    assert doc["config"]["lods"] == [0.5, 1.0, 2.0]
    assert doc["n_pairs"] + doc["n_degenerate"] == 30
    assert "pairs" not in doc


def test_simulate_full_pair_list(capsys):
    code, out, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                       "--n", "10", "--m", "8", "--seed", "1", "--full")
    doc = json.loads(out)
    assert len(doc["pairs"]) == doc["n_pairs"]
    rep, a, b = doc["pairs"][0]
    assert a >= 0 and b >= 0


def test_simulate_respects_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("LODCDF_SEED", "777")
    code, out, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                       "--n", "10", "--m", "4")
    assert json.loads(out)["config"]["seed"] == 777


def test_simulate_rejects_a_non_integer_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("LODCDF_SEED", "abc")
    code, out, err = run(capsys, "simulate", "--mu", "0", "--sigma", "1", "--n", "10", "--m", "4")
    assert code == 5
    assert out == ""
    assert "LODCDF_SEED must be an integer" in err


def test_simulate_prints_a_single_pair_standard_error_as_null(capsys):
    code, out, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1", "--n", "10", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_pairs"] == 1
    assert doc["se_diff"] is None


def test_simulate_requires_parameters(capsys):
    code, _, err = run(capsys, "simulate", "--m", "5")
    assert code == 5
    assert "--mu" in err


# ------------------------------------------------------------------- sweep


def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--fix", "mu=0",
                       "--grid", "sigma=0.5:4:8", "--n", "10", "--m", "4",
                       "--seed", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# sweep: sigma"
    assert "param,mean_diff,n_pairs,n_degenerate" in lines
    rows = [l for l in lines if l and not l.startswith(("#", "param,"))]
    assert len(rows) == 8
    params = [float(r.split(",")[0]) for r in rows]
    assert params == sorted(params)
    assert params[0] == 0.5 and params[-1] == 4.0


def test_sweep_counts_are_plain_integers(capsys):
    code, out, _ = run(capsys, "sweep", "--fix", "mu=0", "--grid", "sigma=0.5:1:2",
                       "--lods", "1,2,4", "--n", "2", "--m", "40", "--seed", "3")
    assert code == 0
    rows = [r.split(",") for r in _table_rows(out)]
    assert len(rows) == 2
    for _, _, n_pairs, n_degenerate in rows:
        assert n_pairs.isdigit() and n_degenerate.isdigit()
        assert int(n_pairs) + int(n_degenerate) == 40
    assert any(int(row[3]) > 0 for row in rows)


def test_sweep_takes_model_parameters_only_through_fix(capsys):
    common = ("--grid", "sigma=0.5:1:2", "--n", "6", "--m", "3", "--seed", "1")
    code, out, _ = run(capsys, "sweep", "--scheme", "random", "--fix", "mu_c=-1",
                       "--fix", "sigma_c=0.5", *common)
    assert code == 0
    assert "mu_c=-1.0" in out and "sigma_c=0.5" in out
    # simulate's parameter flags are refused rather than silently ignored
    for flag in ("--mu", "--sigma", "--mu-c", "--sigma-c"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", flag, "3", *common])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_sweep_rejects_bad_specs(capsys):
    bad = [
        ("sweep", "--grid", "n=1:2:2"),
        ("sweep", "--grid", "mu"),
        ("sweep", "--grid", "sigma=0.5:4"),
        ("sweep", "--grid", "sigma=a:b:3"),
        ("sweep", "--grid", "sigma=0.5:4:0"),
        ("sweep", "--grid", "sigma=0.5:1:1000000000000"),
        ("sweep", "--fix", "scheme=x", "--grid", "sigma=1:2:2"),
        ("sweep", "--fix", "mu", "--grid", "sigma=1:2:2"),
        ("sweep", "--fix", "mu=abc", "--grid", "sigma=1:2:2"),
        ("sweep", "--fix", "sigma=1", "--grid", "sigma=1:2:2"),
        ("sweep", "--fix", "mu=1", "--fix", "mu=2", "--grid", "sigma=1:2:2"),
    ]
    for argv in bad:
        code, _, err = run(capsys, *argv, "--m", "2", "--n", "4")
        assert code == 5, argv
        assert err
    # non-finite START or STOP, and a STOP - START beyond the float range
    for spec in ("mu=-1e308:1e308:3", "mu=1e400:2:3", "mu=0:1e400:1", "mu=nan:1:3"):
        code, _, err = run(capsys, "sweep", "--grid", spec, "--m", "2", "--n", "4")
        assert code == 5, spec
        assert "--grid" in err, spec


@pytest.mark.parametrize("argv, env, message", [
    (("estimate", str(SIX), "--eval-points", "a,b"), None,
     "--eval-points expects comma-separated numbers, got 'a,b'"),
    (("simulate", "--mu", "0", "--sigma", "1", "--lods", "1,x"), None,
     "--lods expects comma-separated numbers, got '1,x'"),
    (("sweep", "--fix", "mu=abc", "--grid", "sigma=1:2:2"), None,
     "--fix expects a numeric value, got 'mu=abc'"),
    (("sweep", "--grid", "sigma=a:b:3"), None,
     "--grid expects numeric START:STOP and integer COUNT, got 'sigma=a:b:3'"),
    (("sweep", "--grid", "mu"), None, "--grid expects NAME=START:STOP:COUNT, got 'mu'"),
    (("simulate", "--mu", "0", "--sigma", "1"), "abc", "LODCDF_SEED must be an integer, got 'abc'"),
    (("simulate", "--mu", "0", "--sigma", "1", "--lods", "1,x"), "abc",  # --lods is read first
     "--lods expects comma-separated numbers, got '1,x'"),
])
def test_flag_text_errors_keep_their_message(capsys, monkeypatch, argv, env, message):
    if env is None:
        monkeypatch.delenv("LODCDF_SEED", raising=False)
    else:
        monkeypatch.setenv("LODCDF_SEED", env)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (5, "", f"lodcdf: {message}\n")


# ------------------------------------------------------------- exit codes


def test_missing_file_exits_2_without_partial_output(capsys, tmp_path):
    target = tmp_path / "never.csv"
    code, out, err = run(capsys, "estimate", str(tmp_path / "absent.csv"),
                         "--output", str(target))
    assert code == 2
    assert not target.exists()
    assert err


def test_ingest_error_exits_3_with_line(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("value,detected\n1,1\n2,banana\n")
    code, _, err = run(capsys, "estimate", str(p))
    assert code == 3
    assert "line 3" in err


def test_undecodable_input_exits_3_with_line(capsys, tmp_path):
    # a Latin-1 micro sign in a comment is not UTF-8
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"value,detected\r\n1,1\r# copper \xb5g/L\n1.5,1\n")
    code, out, err = run(capsys, "estimate", str(p))
    assert code == 3
    assert out == ""
    assert "line 3" in err and "0xb5" in err


def test_all_censored_exits_4(capsys, tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("value,detected\n1,0\n2,0\n")
    code, _, err = run(capsys, "estimate", str(p))
    assert code == 4


def test_invalid_sim_parameters_exit_5(capsys):
    code, _, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "-3", "--m", "2")
    assert code == 5


def test_replication_count_beyond_the_key_space_exits_5(capsys):
    code, out, err = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                         "--m", str((1 << 44) + 1), "--n", "2")
    assert code == 5
    assert out == ""
    assert "m must be at most 2**44" in err


def test_overflowing_draws_exit_5_naming_the_parameters(capsys):
    """Lifetimes or thresholds that overflow to infinity are a parameter
    error, not a traceback from building the sample."""
    for argv, names in [
        (["--mu", "800", "--sigma", "1"], ("mu=800", "sigma=1")),
        (["--mu", "0", "--sigma", "1e308"], ("mu=0", "sigma=1e+308")),
        (["--mu", "0", "--sigma", "1", "--scheme", "random", "--mu-c", "800"], ("mu_c=800", "sigma_c=1")),
    ]:
        code, out, err = run(capsys, "simulate", *argv, "--m", "3")
        assert code == 5
        assert out == ""
        assert all(name in err for name in names), err


def test_all_degenerate_study_exits_6(capsys):
    code, _, err = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                       "--lods", "1e300", "--n", "2", "--m", "3", "--seed", "0")
    assert code == 6
    assert "censored" in err


def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "lodcdf.cli"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_console_script_runs_end_to_end(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lodcdf.cli", "estimate", str(SIX)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "1,0.4444444,0.04938272,0.2222222" in proc.stdout
