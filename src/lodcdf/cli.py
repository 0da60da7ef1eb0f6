"""Command-line front end.

Subcommands:

* ``estimate`` -- fit one or all CDF estimators to a data file and emit the
  step function (optionally evaluated at chosen points) with standard errors;
* ``compare``  -- product-limit vs RHR-MLE side by side, per-jump ratios,
  tie flags, and mean estimates under both leftover policies;
* ``simulate`` -- one Monte Carlo study, JSON output;
* ``sweep``    -- a parameter sweep of studies, plot-ready CSV output.

Exit codes: 0 ok, 2 I/O or usage, 3 malformed input data, 4 fully censored
dataset, 5 invalid study parameters, 6 every replication degenerate.

All output is computed in memory, then written block by block to a
temporary file that replaces the target, so a failing run never leaves a
partial file behind. CSV numbers are exactly C's %.7g (7 significant
digits); JSON carries full precision. A NaN variance is printed as
"unstable" in CSV and null in JSON. The LODCDF_SEED environment variable
supplies the default seed for simulate/sweep.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from .data import (
    AllCensoredError,
    IngestError,
    InvalidParameterError,
    StudyDegenerateError,
    ingest,
    tally,
)
from .estimators import (
    StepCdf,
    crhf_exp_cdf,
    eval_cdf_at,
    greenwood_variance,
    mean_from_cdf,
    product_limit_cdf,
    rhr_mle_cdf,
    rhr_variance,
)
from .simulation import _MAX_GRID_POINT, SimConfig, _integer, run_study, sweep

# Each method's fit with its variances, where the method has them.
_FITS = {
    "product-limit": lambda table: greenwood_variance(table, product_limit_cdf(table)),
    "rhr-mle": lambda table: rhr_variance(table, rhr_mle_cdf(table)),
    "crhf-exp": crhf_exp_cdf,
}
METHODS = tuple(_FITS)

# CSV cells are rendered this many rows at a time, so a large table never
# holds more than one block of cell bytes at once.
_BLOCK_ROWS = 4096

# Word tables for %.7g's fixed notation (decimal exponents -4..6), cells
# being two little-endian 64-bit words of ASCII padded with NULs:
# _QUAD[k] holds the four digits of k < 10**4, _MASK[k] the low k bytes.
_QUAD = sum((48 + np.arange(10_000, dtype=np.uint64) // 10 ** (3 - j) % 10) << 8 * j for j in range(4))
_MASK = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_ZEROS = np.uint64(int.from_bytes(b"0000000", "little"))
_LEAD = np.uint64(int.from_bytes(b"0.000", "little"))
_POW10 = 10.0 ** np.arange(11)  # exact: every power up to 10**22 is a double


def _cells(column: np.ndarray | None, rows: int) -> np.ndarray:
    """CSV cells as (rows, width) NUL-padded ASCII: a None column (one the
    method does not provide) empty, integers as they are, floats as C's
    %.7g with NaN as 'unstable'.

    Positive floats with decimal exponent e in -4..6 (%.7g's fixed
    notation) get their 7 digits from m = rint(x * 10**(6 - e)), which is
    correctly rounded: the scaled value carries one rounding (under 2e-9),
    and cells where it lies within 1e-6 of a half or outside [1e6, 1e7)
    are formatted one by one, like zero, negatives, subnormals, inf, NaN
    and other exponents.
    """
    if column is None:
        return np.zeros((rows, 0), dtype=np.uint8)
    if column.dtype.kind in "biu":
        return column.astype(np.int64).astype("S20").view(np.uint8).reshape(rows, 20)
    x = column.astype(np.float64)
    cells = np.zeros((rows, 2), dtype="<u8")
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
    fast = (e >= -4) & (e <= 6)  # NaN, inf, zero and negatives compare False
    e = e[fast].astype(np.int64)
    s = x[fast] * _POW10[6 - e]
    m = np.rint(s)
    exact = (s >= 1e6) & (m < 1e7) & (np.abs(s - np.floor(s) - 0.5) >= 1e-6)
    fast[fast] = exact
    e, m = e[exact], m[exact].astype(np.int64)
    # The digits as bytes 0-6 of a word. XOR with ASCII "0"s leaves digit j
    # in byte j, so the kept digits end at the highest nonzero byte.
    digits = _QUAD[m // 1000] | (_QUAD[m % 1000] >> 8) << 32
    kept = ((np.frexp((digits ^ _ZEROS).astype(np.float64))[1] + 7) // 8).astype(np.uint64)
    # e >= 0: the p = e + 1 integer digits, ".", the rest ("." dropped when
    # nothing follows it). e < 0: q = 1 - e bytes of "0.000", then the digits.
    p = np.maximum(e + 1, 1).astype(np.uint64)
    q = np.maximum(1 - e, 2).astype(np.uint64)
    whole = np.maximum(kept, p)
    point = e >= 0
    length = np.where(point, whole + (whole > p), q + kept)
    lo = np.where(point, (digits & _MASK[p]) | 46 << 8 * p | (digits >> 8 * p) << 8 * p + 8,
                  _LEAD & _MASK[q] | digits << 8 * q)
    hi = np.where(point, 0, digits >> 64 - 8 * q)
    cells[fast, 0] = lo & _MASK[np.minimum(length, 8)]
    cells[fast, 1] = hi & _MASK[np.maximum(length, 8) - 8]
    cells = cells.view(np.uint8)
    if not fast.all():
        text = ["unstable" if v != v else format(v, ".7g") for v in x[~fast].tolist()]
        cells[~fast] = np.array(text, dtype="S16").view(np.uint8).reshape(-1, 16)
    return cells


def _fmt(x: float) -> str:
    """One float as a CSV cell."""
    return _cells(np.array([float(x)]), 1).tobytes().rstrip(b"\0").decode()


def _csv(header: list[str], columns: dict[str, np.ndarray | None]) -> list[bytes]:
    """A CSV table as a list of ASCII blocks: ``#`` header lines and the
    column names, then one line per row, ``_BLOCK_ROWS`` rows a block.

    The first column sets the row count; a None column gives empty cells.
    """
    rows = len(next(iter(columns.values())))
    parts = [("\n".join([*header, ",".join(columns)]) + "\n").encode()]
    for start in range(0, rows, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, rows - start)
        comma = np.full((n, 1), ord(","), np.uint8)
        line = [part for c in columns.values()
                for part in (_cells(c if c is None else c[start:start + n], n), comma)]
        line[-1] = np.full((n, 1), ord("\n"), np.uint8)
        parts.append(np.concatenate(line, axis=1).tobytes().translate(None, b"\0"))
    return parts


def _json(doc: dict) -> list[bytes]:
    """``json.dumps(doc, indent=2)`` plus a newline, as the one block ``_emit`` writes."""
    parts: list[str] = []
    _indented(doc, "\n", parts)
    parts.append("\n")
    return ["".join(parts).encode()]


_SCALARS = {str, int, float, bool, type(None)}


def _indented(obj, nl: str, parts: list[str]) -> None:
    """Append ``json.dumps(obj, indent=2)`` for a value whose lines start with ``nl``.

    The indented encoder is pure Python. Lists of scalars, and lists of
    flat dicts or lists (row tables), therefore go through the C encoder,
    whose item separator carries the line break and indent. A raw line
    break never occurs inside an encoded string, so the separators between
    the rows of a table can be found and re-indented with one replace.
    Dict keys are strings, as in every document the commands write.
    """
    inner = nl + "  "
    if isinstance(obj, dict) and obj:
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(("," if i else "") + inner + json.dumps(key) + ": ")
            _indented(value, inner, parts)
        parts.append(nl + "}")
        return
    if not (isinstance(obj, (list, tuple)) and obj):
        parts.append(json.dumps(obj))
        return
    kinds = set(map(type, obj))
    if kinds <= _SCALARS:
        parts += ("[" + inner, _c_encoded(obj, inner)[1:-1], nl + "]")
        return
    if kinds == {dict} or kinds <= {list, tuple}:
        row_items = map(dict.values, obj) if kinds == {dict} else obj
        if all(obj) and set(map(type, chain.from_iterable(row_items))) <= _SCALARS:
            opening, closing = "{}" if kinds == {dict} else "[]"
            row = inner + "  "
            body = _c_encoded(obj, row)[2:-2].replace(
                closing + "," + row + opening, inner + closing + "," + inner + opening + row)
            parts += ("[" + inner + opening + row, body, inner + closing + nl + "]")
            return
    parts.append("[")
    for i, value in enumerate(obj):
        parts.append(("," if i else "") + inner)
        _indented(value, inner, parts)
    parts.append(nl + "]")


def _c_encoded(obj, line: str) -> str:
    """``obj`` compactly encoded with ``"," + line`` between items."""
    return json.JSONEncoder(separators=("," + line, ": ")).encode(obj)


def _json_values(column: np.ndarray) -> list:
    """A column as JSON values, non-finite floats as null."""
    values = column.tolist()
    if column.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            values[i] = None
    return values


def _json_safe(x: float | None) -> float | None:
    """One float as a JSON value; None stays null."""
    return _json_values(np.array([x], dtype=np.float64))[0]


def _json_rows(columns: dict[str, np.ndarray | None]) -> list[dict]:
    """One JSON object per row, keyed by the column names; as in ``_csv``,
    the first column sets the row count and a None column is all null."""
    rows = len(next(iter(columns.values())))
    values = [[None] * rows if c is None else _json_values(c) for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


def _parse_floats(text: str, *, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InvalidParameterError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise InvalidParameterError(f"{flag} expects at least one number")
    if not all(math.isfinite(v) for v in values):
        raise InvalidParameterError(f"{flag} expects finite numbers, got {text!r}")
    return values


def _default_seed() -> int:
    raw = os.environ.get("LODCDF_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(f"LODCDF_SEED must be an integer, got {raw!r}")


def _emit(parts: list[bytes], output: str | None) -> None:
    """Write the blocks ``parts`` in turn to stdout or to ``output``, following symlinks.

    A new file, or an existing regular file with one link that this user
    owns, is replaced in one step by a temporary file written next to it,
    keeping its mode: a failed write leaves it as it was and no partial
    file behind. Anything else (a FIFO, a device, a directory, a
    hard-linked or another user's file) is opened and written in place.
    """
    if output is None or output == "-":
        sys.stdout.writelines(part.decode() for part in parts)
        return
    target = Path(os.path.realpath(output))
    st = target.stat() if target.exists() else None
    if st is not None and not (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
    ):
        with open(target, "wb") as fh:
            fh.writelines(parts)
        return
    # Created exclusively: a file already at the temporary name is neither
    # written nor removed.
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines(parts)
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------- estimate


def _estimate_csv(fits: dict[str, StepCdf], points: np.ndarray | None, n: int) -> list[bytes]:
    """One method's table (t, estimate, variance, stderr), or for all
    methods t, the estimates and the two standard errors; over the support
    unless evaluation points are given."""
    first = next(iter(fits.values()))
    t = first.support if points is None else points
    # On the support a fit's own arrays are its columns; evaluating would copy them.
    curves = [(f.values, f.variances) if points is None else eval_cdf_at(f, points) for f in fits.values()]
    if len(fits) == 1:
        ((estimate, variance),) = curves
        header = [f"# method: {first.method}", f"# n: {n}", f"# lower_value: {_fmt(first.lower_value)}"]
        if first.lower_variance is not None:
            header.append(f"# lower_variance: {_fmt(first.lower_variance)}")
        return _csv(header, {"t": t, "estimate": estimate, "variance": variance,
                             "stderr": None if variance is None else np.sqrt(variance)})
    (pl, pl_var), (rhr, rhr_var), (crhf, _) = curves
    header = ["# method: all", f"# n: {n}"]
    columns = {"t": t, "product_limit": pl, "rhr_mle": rhr}
    if points is None:
        header.append("# lower_value: " + ",".join(_fmt(f.lower_value) for f in fits.values()))
        columns["crhf_exp"] = crhf
    return _csv(header, columns | {"se_product_limit": np.sqrt(pl_var), "se_rhr_mle": np.sqrt(rhr_var)})


def _step_json(f: StepCdf) -> dict:
    out = {
        "method": f.method,
        "lower_value": f.lower_value,
        "lower_variance": _json_safe(f.lower_variance),
        "support": f.support.tolist(),
        "values": f.values.tolist(),
    }
    if f.variances is not None:
        out["variances"] = _json_values(f.variances)
        out["stderr"] = _json_values(np.sqrt(f.variances))
    return out


def _estimate_json(fits: dict[str, StepCdf], points: np.ndarray | None, n: int) -> list[bytes]:
    doc: dict = {"n": n, "estimates": [_step_json(f) for f in fits.values()]}
    if points is not None:
        columns = {"t": points}
        for name, f in fits.items():
            columns[name], columns[f"{name}_variance"] = eval_cdf_at(f, points)
        doc["eval"] = _json_rows(columns)
    return _json(doc)


def cmd_estimate(args: argparse.Namespace) -> int:
    dataset = ingest(args.input)
    table = tally(dataset)
    points = None
    if args.eval_points is not None:
        points = np.array(_parse_floats(args.eval_points, flag="--eval-points"))
    names = METHODS if args.method == "all" else (args.method,)
    fits = {name: _FITS[name](table) for name in names}
    render = _estimate_json if args.format == "json" else _estimate_csv
    _emit(render(fits, points, dataset.n), args.output)
    return 0


# ---------------------------------------------------------------- compare


def cmd_compare(args: argparse.Namespace) -> int:
    dataset = ingest(args.input)
    table = tally(dataset)
    pl = product_limit_cdf(table)
    rhr = rhr_mle_cdf(table)
    # A jump is flagged when censored observations share its value; those
    # are exactly the points where the two estimators can disagree.
    _, _, censored, _ = table.jumps()
    columns = {"t": pl.support, "product_limit": pl.values, "rhr_mle": rhr.values,
               "ratio": rhr.values / pl.values, "tie": censored >= 1}
    means = {policy: (mean_from_cdf(pl, policy), mean_from_cdf(rhr, policy))
             for policy in ("at-first-exact", "at-zero")}
    if args.format == "json":
        means_doc = {policy: {"product_limit": a, "rhr_mle": b, "diff": a - b}
                     for policy, (a, b) in means.items()}
        parts = _json({"n": dataset.n, "rows": _json_rows(columns), "means": means_doc})
    else:
        header = [f"# n: {dataset.n}"] + [
            f"# mean[{policy}]: product_limit={_fmt(a)} rhr_mle={_fmt(b)} diff={_fmt(a - b)}"
            for policy, (a, b) in means.items()
        ]
        parts = _csv(header, columns)
    _emit(parts, args.output)
    return 0


# ---------------------------------------------------------------- simulate


def _config_dict(cfg: SimConfig) -> dict:
    doc = asdict(cfg)
    doc["lods"] = list(cfg.lods)
    return doc


def _sim_config(args: argparse.Namespace, **params: float) -> SimConfig:
    """SimConfig from mu, sigma, mu_c, sigma_c and the shared study flags."""
    return SimConfig(
        **params,
        scheme=args.scheme,
        lods=tuple(_parse_floats(args.lods, flag="--lods")),
        n=args.n,
        m=args.m,
        seed=args.seed if args.seed is not None else _default_seed(),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.mu is None or args.sigma is None:
        raise InvalidParameterError("simulate requires --mu and --sigma")
    cfg = _sim_config(args, mu=args.mu, sigma=args.sigma, mu_c=args.mu_c, sigma_c=args.sigma_c)
    result = run_study(cfg, jobs=args.jobs)
    doc = {
        "config": _config_dict(cfg),
        "n_pairs": result.n_pairs,
        "n_degenerate": result.n_degenerate,
        "mean_diff": result.mean_diff,
        "se_diff": _json_safe(result.se_diff),
    }
    if args.full:
        doc["pairs"] = [list(pair) for pair in zip(
            result.indices.tolist(), result.ks_product_limit.tolist(), result.ks_rhr_mle.tolist())]
    _emit(_json(doc), args.output)
    return 0


# ---------------------------------------------------------------- sweep


def _parse_grid(text: str) -> tuple[str, np.ndarray]:
    """Parse NAME=START:STOP:COUNT into (name, inclusive grid)."""
    if "=" not in text:
        raise InvalidParameterError(f"--grid expects NAME=START:STOP:COUNT, got {text!r}")
    name, _, spec = text.partition("=")
    name = name.strip()
    parts = spec.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(f"--grid expects NAME=START:STOP:COUNT, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameterError(f"--grid expects numeric START:STOP and integer COUNT, got {text!r}")
    return name, np.linspace(start, stop, _integer("--grid COUNT", count, 1, _MAX_GRID_POINT))


def cmd_sweep(args: argparse.Namespace) -> int:
    fixed: dict[str, float] = {}
    for item in args.fix or []:
        if "=" not in item:
            raise InvalidParameterError(f"--fix expects NAME=VALUE, got {item!r}")
        name, _, raw = item.partition("=")
        name = name.strip()
        if name not in ("mu", "sigma", "mu_c", "sigma_c"):
            raise InvalidParameterError(f"--fix accepts mu, sigma, mu_c, sigma_c; got {name!r}")
        if name in fixed:
            raise InvalidParameterError(f"--fix sets {name} more than once")
        try:
            fixed[name] = float(raw)
        except ValueError:
            raise InvalidParameterError(f"--fix expects a numeric value, got {item!r}")
    param, grid = _parse_grid(args.grid)
    if param in fixed:
        raise InvalidParameterError(f"{param} cannot be both fixed and swept")
    # The swept parameter needs a placeholder value so the base config
    # validates; every study overrides it.
    base = _sim_config(args, **{"mu": 0.0, "sigma": 1.0, "mu_c": 0.0, "sigma_c": 1.0, **fixed})
    results = sweep(base, param, grid, jobs=args.jobs)
    cfg_doc = _config_dict(base)
    del cfg_doc[param]
    header = [f"# sweep: {param}", "# config: " + " ".join(f"{k}={cfg_doc[k]}" for k in sorted(cfg_doc))]
    columns = {"param": np.array([getattr(res.config, param) for res in results])}
    for name in ("mean_diff", "n_pairs", "n_degenerate"):
        columns[name] = np.array([getattr(res, name) for res in results])
    _emit(_csv(header, columns), args.output)
    return 0


# ---------------------------------------------------------------- wiring


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    """Flags of ``simulate`` and ``sweep``; ``sweep`` takes mu etc. by --fix."""
    p.add_argument("--scheme", choices=("time", "random"), default="time")
    p.add_argument("--lods", default="0.5,1,2", help="comma-separated LODs for the time scheme")
    p.add_argument("--n", type=int, default=50, help="sample size per replication")
    p.add_argument("--m", type=int, default=1000, help="replication count (default 1000)")
    p.add_argument("--seed", type=int, default=None, help="study seed (default: LODCDF_SEED or 0)")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; studies run in one process (same output for any value)")
    p.add_argument("--output", default=None, help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lodcdf",
        description="Nonparametric CDF estimation for left-censored (limit-of-detection) data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_est = sub.add_parser("estimate", help="fit an estimator to a data file")
    p_est.add_argument("input", help="CSV file of value,detected rows")
    p_est.add_argument("--method", choices=METHODS + ("all",), default="product-limit")
    p_est.add_argument("--eval-points", default=None, help="comma-separated t values to evaluate at")
    p_est.add_argument("--format", choices=("csv", "json"), default="csv")
    p_est.add_argument("--output", default=None, help="write here instead of stdout")
    p_est.set_defaults(func=cmd_estimate)

    p_cmp = sub.add_parser("compare", help="product-limit vs RHR-MLE on a data file")
    p_cmp.add_argument("input", help="CSV file of value,detected rows")
    p_cmp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cmp.add_argument("--output", default=None, help="write here instead of stdout")
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser("simulate", help="one Monte Carlo study (JSON)")
    p_sim.add_argument("--mu", type=float, default=None, help="log-normal location of the lifetimes")
    p_sim.add_argument("--sigma", type=float, default=None, help="log-normal scale of the lifetimes")
    p_sim.add_argument("--mu-c", dest="mu_c", type=float, default=0.0, help="censoring location (random scheme)")
    p_sim.add_argument("--sigma-c", dest="sigma_c", type=float, default=1.0, help="censoring scale (random scheme)")
    _add_sim_flags(p_sim)
    p_sim.add_argument("--full", action="store_true", help="include the per-replication pair list")
    p_sim.set_defaults(func=cmd_simulate)

    p_sw = sub.add_parser("sweep", help="study per grid point of mu or sigma (CSV)")
    _add_sim_flags(p_sw)
    p_sw.add_argument("--fix", action="append", default=None, metavar="NAME=VALUE",
                      help="fix a parameter (mu, sigma, mu_c, sigma_c); repeatable")
    p_sw.add_argument("--grid", required=True, metavar="NAME=START:STOP:COUNT",
                      help="inclusive grid for the swept parameter (mu or sigma)")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


# Exit code per error class, as listed in the module docstring.
_EXIT_CODES = {
    OSError: 2,
    IngestError: 3,
    AllCensoredError: 4,
    InvalidParameterError: 5,
    StudyDegenerateError: 6,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"lodcdf: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
