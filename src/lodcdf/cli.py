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

All output is assembled in memory and written in one shot, so a failing run
never leaves a partial file behind. Numbers in CSV are printed with 7
significant digits; JSON carries full precision. A NaN variance is printed
as "unstable" in CSV and null in JSON. The LODCDF_SEED environment variable
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
from pathlib import Path

import numpy as np

from .data import AllCensoredError, IngestError, ingest, tally
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
from .simulation import (
    _MAX_GRID_POINT,
    InvalidParameterError,
    SimConfig,
    StudyDegenerateError,
    run_study,
    sweep,
)

METHODS = ("product-limit", "rhr-mle", "crhf-exp")

# CSV cells are formatted this many rows at a time, so a large table never
# holds all of its cell strings at once.
_BLOCK_ROWS = 4096


def _cells(column: np.ndarray) -> list[str]:
    """CSV cells: integers as they are, floats to 7 significant digits, NaN as 'unstable'."""
    if column.dtype.kind in "biu":
        return list(map(str, column.astype(np.int64).tolist()))
    return ["unstable" if x != x else format(x, ".7g") for x in column.tolist()]


def _fmt(x: float | None) -> str:
    """One float as a CSV cell; None (a value the method does not provide) is empty."""
    return "" if x is None else _cells(np.array([float(x)]))[0]


def _csv(header: list[str], columns: dict[str, np.ndarray | None]) -> str:
    """A CSV table: ``#`` header lines, the column names, one line per row.

    The first column sets the row count; a None column (one the method
    does not provide) gives empty cells.
    """
    rows = len(next(iter(columns.values())))
    parts = [*header, ",".join(columns)]
    for start in range(0, rows, _BLOCK_ROWS):
        block = slice(start, min(start + _BLOCK_ROWS, rows))
        cells = [[""] * (block.stop - start) if c is None else _cells(c[block]) for c in columns.values()]
        parts.extend(map(",".join, zip(*cells)))
    parts.append("")  # the final newline, without copying the text again
    return "\n".join(parts)


def _json_values(column: np.ndarray) -> list:
    """A column as JSON values, non-finite floats as null."""
    if column.dtype.kind != "f":
        return column.tolist()
    return [x if math.isfinite(x) else None for x in column.tolist()]


def _json_safe(x: float | None) -> float | None:
    """One float as a JSON value; None stays null."""
    return _json_values(np.array([x], dtype=np.float64))[0]


def _json_rows(columns: dict[str, np.ndarray | None]) -> list[dict]:
    """One JSON object per row, keyed by the column names; as in ``_csv``,
    the first column sets the row count and a None column is all null."""
    rows = len(next(iter(columns.values())))
    values = [[None] * rows if c is None else _json_values(c) for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


def _fit(table, method: str) -> StepCdf:
    if method == "product-limit":
        return greenwood_variance(table, product_limit_cdf(table))
    if method == "rhr-mle":
        return rhr_variance(table, rhr_mle_cdf(table))
    if method == "crhf-exp":
        return crhf_exp_cdf(table)
    raise ValueError(f"unknown method {method!r}")


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


def _emit(text: str, output: str | None) -> None:
    """Write to stdout or to ``output``, following symlinks.

    A new file, or an existing regular file with one link that this user
    owns, is replaced in one step by a temporary file written next to it,
    keeping its mode: a failed write leaves it as it was and no partial
    file behind. Anything else (a FIFO, a device, a directory, a
    hard-linked or another user's file) is opened and written in place.
    """
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    target = Path(os.path.realpath(output))
    st = target.stat() if target.exists() else None
    if st is not None and not (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
    ):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    # Created exclusively: a file already at the temporary name is neither
    # written nor removed.
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------- estimate


def _estimate_csv(fits: dict[str, StepCdf], points: np.ndarray | None, n: int) -> str:
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


def _estimate_json(fits: dict[str, StepCdf], points: np.ndarray | None, n: int) -> str:
    doc: dict = {"n": n, "estimates": [_step_json(f) for f in fits.values()]}
    if points is not None:
        columns = {"t": points}
        for name, f in fits.items():
            columns[name], columns[f"{name}_variance"] = eval_cdf_at(f, points)
        doc["eval"] = _json_rows(columns)
    return json.dumps(doc, indent=2) + "\n"


def cmd_estimate(args: argparse.Namespace) -> int:
    dataset = ingest(args.input)
    table = tally(dataset)
    points = np.array(_parse_floats(args.eval_points, flag="--eval-points")) if args.eval_points else None
    names = METHODS if args.method == "all" else (args.method,)
    fits = {name: _fit(table, name) for name in names}
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
        text = json.dumps({"n": dataset.n, "rows": _json_rows(columns), "means": means_doc}, indent=2) + "\n"
    else:
        header = [f"# n: {dataset.n}"] + [
            f"# mean[{policy}]: product_limit={_fmt(a)} rhr_mle={_fmt(b)} diff={_fmt(a - b)}"
            for policy, (a, b) in means.items()
        ]
        text = _csv(header, columns)
    _emit(text, args.output)
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
        m=args.m if args.m is not None else 1000,
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
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
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
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise InvalidParameterError(f"--grid expects numeric START:STOP and integer COUNT, got {text!r}")
    if count < 1:
        raise InvalidParameterError(f"--grid COUNT must be at least 1, got {count}")
    if count > _MAX_GRID_POINT:
        raise InvalidParameterError(f"--grid COUNT is limited to {_MAX_GRID_POINT}, got {count}")
    return name, np.linspace(start, stop, count)


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
    p.add_argument("--m", type=int, default=None, help="replication count (default 1000)")
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
