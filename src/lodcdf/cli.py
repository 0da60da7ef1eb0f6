"""Command-line front end.

Subcommands:

* ``estimate`` -- fit one or all CDF estimators to a data file and emit the
  step function (optionally evaluated at chosen points) with standard errors;
* ``compare``  -- product-limit vs RHR-MLE side by side, per-jump ratios,
  tie flags, and both means of each fit (``mean_from_cdf``);
* ``simulate`` -- one Monte Carlo study, JSON output;
* ``sweep``    -- a parameter sweep of studies, plot-ready CSV output.

Exit codes: 0 ok, 2 I/O or usage, 3 malformed input data, 4 fully censored
dataset, 5 invalid study parameters, 6 every replication degenerate.

All output is computed in memory, then written block by block to a
temporary file that replaces the target, so a failing run never leaves a
partial file behind; a path naming an open descriptor, such as
/dev/stdout, is written to that descriptor. CSV numbers are exactly C's %.7g (7 significant
digits); JSON carries full precision. A NaN variance is printed as
"unstable" in CSV and null in JSON. The LODCDF_SEED environment variable
supplies the default seed for simulate/sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
    _integer,
    _real,
    ingest,
    tally,
)
from .estimators import (
    StepCdf,
    crhf_exp_cdf,
    eval_cdf,
    mean_from_cdf,
    product_limit_cdf,
    rhr_mle_cdf,
)
from .simulation import _MAX_GRID_POINT, SimConfig, run_study, sweep

# Each method's fit. The lambdas look the function up on this module at call
# time, so a wrapper set on ``lodcdf.cli`` sees every fit.
_FITS = {
    "product-limit": lambda table: product_limit_cdf(table),
    "rhr-mle": lambda table: rhr_mle_cdf(table),
    "crhf-exp": lambda table: crhf_exp_cdf(table),
}
METHODS = tuple(_FITS)

# CSV rows are laid out this many at a time, so a large table never holds
# more than one block of cell bytes at once.
_BLOCK_ROWS = 4096

# A block is a (rows, words) array of little-endian 64-bit words holding
# ASCII padded with NULs. Each column owns a slot of consecutive words: two
# for a float, three for an integer (20 characters at most), one for a None
# column. A slot's last byte is its separator, always a comma; the line's
# last word then swaps it for a newline, and one translate drops the NULs.
_COMMA = np.uint64(ord(",") << 56)
_TO_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 56)

# %.7g's fixed notation (decimal exponent e in -4..6) takes its 7 digits
# from m = rint(x * 10**(6 - e)), 10**6 <= m <= 10**7, as m = 1000 q + r:
# _HEAD[q] holds the digits of q in bytes 0-3, _TAIL[r] those of r in bytes
# 4-6, and bits 59-63 how many digits are left once trailing zeros go (q's
# count in bits 59-61, r's in 62-63), so that the OR of both words names
# its layout. m = 10**7 (q = 10**4) keeps no digit: x rounds up to 10**(e + 1).
_PAIR = np.arange(100, dtype=np.uint64)
_PAIR_ZEROS = (_PAIR % 10 == 0).astype(np.int64) + (_PAIR == 0)  # trailing zeros of two digits
_PAIR = 48 + _PAIR // 10 | (48 + _PAIR % 10) << 8
_QUAD = (_PAIR[:, None] | _PAIR << 16).ravel()  # the four digits of q < 10**4
_KEPT = (4 - np.where(_PAIR_ZEROS == 2, 2 + _PAIR_ZEROS[:, None], _PAIR_ZEROS)).ravel().astype(np.uint64)
_HEAD = np.append(_QUAD | _KEPT << 59, np.uint64(0))
_TAIL = (_QUAD[:1000] >> 8) << 32 | np.maximum(_KEPT[:1000], 1) - 1 << 62
del _PAIR, _PAIR_ZEROS, _QUAD, _KEPT

# k = e + 5 for e in -4..6, 0 below (zero, subnormals, negatives) and 12
# above (inf, NaN): the k of a binade's smallest double, plus one from the
# power of ten inside it, if any. A lane of k 0 or 12 is scaled by NaN.
_POW10 = np.array([float(f"1e{e}") for e in range(-4, 11)])
_BINADE_K = np.searchsorted(_POW10[:12], (np.arange(2048) << 52).view(np.float64), side="right")
_BINADE_EDGE = np.append(_POW10[:12], np.nan)[_BINADE_K]
_SCALE = np.array([np.nan, *_POW10[:3:-1], np.nan])  # 10**(6 - e), exact


def _layout(k: int, kept: int) -> tuple[int, int, int, int]:
    """Masks, shift and constant placing the kept digits of a cell of k.

    Its text is ``(D & low) | (D & high) << shift`` over the 128 bits of the
    slot, D being the digit word, with ``const`` ORed in: the leading
    "0.000" of e < 0, the point of e >= 0, or a whole rounded-up power of ten.
    """
    e = k - 5
    if kept == 0:
        return 0, 0, 8, int.from_bytes(format(10.0 ** (e + 1), ".7g").encode(), "little")
    if e < 0:
        return 0, (1 << 8 * kept) - 1, 8 * (1 - e), int.from_bytes(b"0.000"[:1 - e], "little")
    low = (1 << 8 * (e + 1)) - 1
    if kept <= e + 1:
        return low, 0, 8, 0
    return low, (1 << 8 * kept) - 1 - low, 8, ord(".") << 8 * (e + 1)


# Rows low, high, shift, const; the column is the digit word's bits 55-63
# plus k. Entries no lane of k 1..11 reaches stay 0.
_LAYOUT = np.zeros((4, 512), dtype=np.uint64)
_columns, _entries = zip(*[((head + 8 * tail) * 16 + k, _layout(k, 4 + tail if tail else head))
                           for k in range(1, 12) for head in range(5) for tail in range(4)])
_LAYOUT[:, list(_columns)] = np.array(_entries, dtype=np.uint64).T
del _columns, _entries


def _float_slot(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> None:
    """Write the cells of the floats ``x``, C's %.7g with NaN as 'unstable',
    into the two word columns ``lo`` and ``hi`` of their slot.

    The 7 digits of m = rint(x * 10**(6 - e)) are correctly rounded: the
    scaled value carries one rounding (under 2e-9), and lanes within 1e-6
    of a half are formatted one by one by ``_fmt``, like zero, negatives,
    subnormals, inf, NaN and other exponents. Every lane is laid out first;
    indices of the lanes formatted one by one are clipped into the tables.
    """
    with np.errstate(invalid="ignore"):
        binade = x.view(np.int64) >> 52
        k = _BINADE_K.take(binade, mode="clip")
        k += x >= _BINADE_EDGE.take(binade, mode="clip")
        s = _SCALE.take(k)
        s *= x
        m = np.rint(s)
        fast = np.abs(np.subtract(s, m, out=s), out=s) <= 0.5 - 1e-6
        m = m.astype(np.int64)
    q = m * 274_877_907 >> 38  # m // 1000 for 0 <= m < 2**24
    digits = _HEAD.take(q, mode="clip")
    digits |= _TAIL.take(m - q * 1000, mode="clip")
    code = (digits >> 55).view(np.int64)
    code += k
    low, high, shift, const = (table.take(code) for table in _LAYOUT)
    high &= digits
    low &= digits
    low |= const
    np.bitwise_or(low, high << shift, out=lo)
    np.right_shift(high, 64 - shift, out=high)
    np.bitwise_or(high, _COMMA, out=hi)
    if not fast.all():
        slow = np.flatnonzero(~fast)
        text = np.array([_fmt(v) for v in x[slow].tolist()], dtype="S16").view(np.uint64)
        lo[slow] = text[0::2]
        hi[slow] = text[1::2] | _COMMA


def _fmt(x: float) -> str:
    """One float as a CSV cell: C's %.7g, NaN as 'unstable'. ``_float_slot``
    writes the same text a block at a time; the lanes it cannot and the
    ``#`` header values come from here."""
    return "unstable" if x != x else format(x, ".7g")


def _csv(header: list[str], columns: dict[str, np.ndarray | None]) -> list[bytes]:
    """A CSV table as a list of ASCII blocks: ``#`` header lines and the
    column names, then one line per row, ``_BLOCK_ROWS`` rows a block.

    The first column sets the row count; a None column gives empty cells.
    """
    rows = len(next(iter(columns.values())))
    parts = [("\n".join([*header, ",".join(columns)]) + "\n").encode()]
    for first in range(0, rows, _BLOCK_ROWS):
        blocks = [c if c is None else c[first:first + _BLOCK_ROWS] for c in columns.values()]
        parts.append(_lines(blocks).tobytes().translate(None, b"\0"))
    return parts


def _lines(blocks: list[np.ndarray | None]) -> np.ndarray:
    """One block of rows as a (rows, words) array, a slot per column. The
    copies of the blocks' bytes that pick shared slots die with this call,
    before the caller translates the words."""
    widths = [1 if b is None else 3 if b.dtype.kind in "biu" else 2 for b in blocks]
    starts = np.cumsum([0, *widths]).tolist()
    n = len(blocks[0])
    words = np.empty((n, starts[-1]), dtype=np.uint64)
    # A block with the dtype and bytes of an earlier one copies its slot;
    # equal values are not enough (-0.0 == 0.0, 10**7 == 1e7).
    keys = [b if b is None else (b.dtype, b.tobytes()) for b in blocks]
    for i, (b, key) in enumerate(zip(blocks, keys)):
        j = keys.index(key)
        slot = words[:, starts[i]:starts[i + 1]]
        if j < i:
            for w in range(widths[i]):
                slot[:, w] = words[:, starts[j] + w]
        elif b is None:
            slot[:, 0] = _COMMA
        elif b.dtype.kind in "biu":
            slot[:] = b.astype(np.int64).astype("S24").view(np.uint64).reshape(n, 3)
            slot[:, 2] |= _COMMA
        else:
            _float_slot(slot[:, 0], slot[:, 1], b.astype(np.float64, copy=False))
    words[:, -1] ^= _TO_NEWLINE
    return words


def _json(doc: dict) -> list[bytes]:
    """``json.dumps(doc, indent=2)`` plus a newline, as the one block ``_emit``
    writes, a 1-D numpy array being the list ``_json_values`` makes of it."""
    parts: list[str] = []
    _indented(doc, "\n", parts, {})
    parts.append("\n")
    return ["".join(parts).encode()]


_SCALARS = {str, int, float, bool, type(None)}


def _indented(obj, nl: str, parts: list[str], encoded: dict) -> None:
    """Append ``json.dumps(obj, indent=2)`` for a value whose lines start with ``nl``.

    The indented encoder is pure Python. 1-D numpy arrays and lists of
    flat dicts or lists (row tables) therefore go through the C encoder,
    whose item separator carries the line break and indent. A raw line
    break never occurs inside an encoded string, so the separators between
    the rows of a table can be found and re-indented with one replace.
    Dict keys are strings, as in every document the commands write.
    ``encoded`` keeps each array's text by dtype, bytes and indent, the key
    ``_csv`` uses, so an array occurring more than once is encoded once.
    Arrays are never empty.
    """
    inner = nl + "  "
    if isinstance(obj, dict) and obj:
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(("," if i else "") + inner + json.dumps(key) + ": ")
            _indented(value, inner, parts, encoded)
        parts.append(nl + "}")
        return
    if isinstance(obj, np.ndarray):
        key = obj.dtype, obj.tobytes(), inner
        if key not in encoded:
            encoded[key] = _c_encoded(_json_values(obj), inner)[1:-1]
        parts += ("[" + inner, encoded[key], nl + "]")
        return
    if not (isinstance(obj, (list, tuple)) and obj):
        parts.append(json.dumps(obj))
        return
    kinds = set(map(type, obj))
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
        _indented(value, inner, parts, encoded)
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


def _json_rows(columns: dict[str, np.ndarray | None]) -> list[dict]:
    """One JSON object per row, keyed by the column names; as in ``_csv``,
    the first column sets the row count and a None column is all null."""
    rows = len(next(iter(columns.values())))
    values = [[None] * rows if c is None else _json_values(c) for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


def _parsed(convert, text: str, message: str):
    """``convert(text)``, or InvalidParameterError(message) if it raises ValueError."""
    try:
        return convert(text)
    except ValueError:
        raise InvalidParameterError(message) from None


def _parse_floats(text: str, *, flag: str) -> list[float]:
    message = f"{flag} expects comma-separated numbers, got {text!r}"
    values = [_parsed(float, part, message) for part in text.split(",") if part.strip()]
    if not values:
        raise InvalidParameterError(f"{flag} expects at least one number")
    return [_real(flag, v) for v in values]


def _emit(parts: list[bytes], output: str | None) -> None:
    """Write the blocks ``parts`` in turn to stdout or to ``output``, following symlinks.

    A path naming an open descriptor (``/dev/stdout``, ``/dev/stderr``,
    ``/dev/fd/N``, ``/proc/self/fd/N``) is written to that descriptor as it
    is, so a pipe works and a file the shell opened for appending keeps what
    it holds. A new file, or an existing regular file with one link that
    this user owns, is replaced in one step by a temporary file written next
    to it, keeping its mode: a failed write leaves it as it was and no
    partial file behind. Anything else (a FIFO, a device, a directory, a
    hard-linked or another user's file) is opened and written in place.
    """
    if output is None or output == "-":
        sys.stdout.writelines(part.decode() for part in parts)
        return
    named = re.fullmatch(r"/dev/(stdout|stderr)|/(?:dev|proc/self)/fd/([0-9]+)", output)
    if named is not None:
        std, number = named.groups()
        with open(int(number) if std is None else 1 + (std == "stderr"), "wb", closefd=False) as fh:
            fh.writelines(parts)
        return
    target = Path(os.path.realpath(output))
    st = target.stat() if target.exists() else None
    if st is not None and not (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
    ):
        with open(target, "wb") as fh:
            fh.writelines(parts)
        return
    # Created exclusively, under a random name that a killed run's leftover
    # cannot block: a file already at that name is neither written nor removed.
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise OSError(exc.errno, f"{exc.strerror}; no temporary file could be created next to it",
                      output) from exc
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
    curves = [(f.values, f.variances) if points is None else eval_cdf(f, points) for f in fits.values()]
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
        "lower_variance": _json_values(np.array([f.lower_variance], dtype=np.float64))[0],
        "support": f.support,
        "values": f.values,
    }
    if f.variances is not None:
        out["variances"] = f.variances
        out["stderr"] = np.sqrt(f.variances)
    return out


def _estimate_json(fits: dict[str, StepCdf], points: np.ndarray | None, n: int) -> list[bytes]:
    # _json encodes each distinct array once: the fits share a support, and
    # on tie-free data the product-limit and RHR-MLE values are equal.
    doc: dict = {"n": n, "estimates": [_step_json(f) for f in fits.values()]}
    if points is not None:
        columns = {"t": points}
        for name, f in fits.items():
            columns[name], columns[f"{name}_variance"] = eval_cdf(f, points)
        doc["eval"] = _json_rows(columns)
    return _json(doc)


def cmd_estimate(args: argparse.Namespace) -> list[bytes]:
    dataset = ingest(args.input)
    table = tally(dataset)
    points = None
    if args.eval_points is not None:
        points = np.array(_parse_floats(args.eval_points, flag="--eval-points"))
    names = METHODS if args.method == "all" else (args.method,)
    fits = {name: _FITS[name](table) for name in names}
    render = _estimate_json if args.format == "json" else _estimate_csv
    return render(fits, points, dataset.n)


# ---------------------------------------------------------------- compare


def cmd_compare(args: argparse.Namespace) -> list[bytes]:
    dataset = ingest(args.input)
    table = tally(dataset)
    pl = product_limit_cdf(table)
    rhr = rhr_mle_cdf(table)
    # A jump is flagged when censored observations share its value; those
    # are exactly the points where the two estimators can disagree.
    _, _, censored, _ = table.jumps()
    columns = {"t": pl.support, "product_limit": pl.values, "rhr_mle": rhr.values,
               "ratio": rhr.values / pl.values, "tie": censored >= 1}
    pl_means, rhr_means = mean_from_cdf(pl), mean_from_cdf(rhr)
    means = {policy: (pl_means[policy], rhr_means[policy]) for policy in pl_means}
    if args.format == "json":
        means_doc = {policy: {"product_limit": a, "rhr_mle": b, "diff": a - b}
                     for policy, (a, b) in means.items()}
        return _json({"n": dataset.n, "rows": _json_rows(columns), "means": means_doc})
    header = [f"# n: {dataset.n}"] + [
        f"# mean[{policy}]: product_limit={_fmt(a)} rhr_mle={_fmt(b)} diff={_fmt(a - b)}"
        for policy, (a, b) in means.items()
    ]
    return _csv(header, columns)


# ---------------------------------------------------------------- simulate


def _config_dict(cfg: SimConfig) -> dict:
    doc = asdict(cfg)
    doc["lods"] = list(cfg.lods)
    return doc


def _sim_config(args: argparse.Namespace, **params: float) -> SimConfig:
    """SimConfig from mu, sigma, mu_c, sigma_c and the shared study flags."""
    lods = tuple(_parse_floats(args.lods, flag="--lods"))  # read before LODCDF_SEED
    raw = os.environ.get("LODCDF_SEED", "0")
    seed = args.seed if args.seed is not None else _parsed(
        int, raw, f"LODCDF_SEED must be an integer, got {raw!r}")
    return SimConfig(**params, scheme=args.scheme, lods=lods, n=args.n, m=args.m, seed=seed)


def cmd_simulate(args: argparse.Namespace) -> list[bytes]:
    if args.mu is None or args.sigma is None:
        raise InvalidParameterError("simulate requires --mu and --sigma")
    cfg = _sim_config(args, mu=args.mu, sigma=args.sigma, mu_c=args.mu_c, sigma_c=args.sigma_c)
    result = run_study(cfg, jobs=args.jobs)
    doc = {
        "config": _config_dict(cfg),
        "n_pairs": result.n_pairs,
        "n_degenerate": result.n_degenerate,
        "mean_diff": result.mean_diff,
        "se_diff": _json_values(np.array([result.se_diff], dtype=np.float64))[0],
    }
    if args.full:
        doc["pairs"] = [list(pair) for pair in zip(
            result.indices.tolist(), result.ks_product_limit.tolist(), result.ks_rhr_mle.tolist())]
    return _json(doc)


# ---------------------------------------------------------------- sweep


def _parse_grid(text: str) -> tuple[str, np.ndarray]:
    """Parse NAME=START:STOP:COUNT into (name, inclusive grid)."""
    name, _, spec = text.partition("=")
    name = name.strip()
    parts = spec.split(":")  # [""] when text has no "="
    if len(parts) != 3:
        raise InvalidParameterError(f"--grid expects NAME=START:STOP:COUNT, got {text!r}")
    message = f"--grid expects numeric START:STOP and integer COUNT, got {text!r}"
    start, stop, count = (_parsed(kind, part, message) for kind, part in zip((float, float, int), parts))
    # np.linspace takes STOP - START first, so it too must be finite.
    for what, value in (("START", start), ("STOP", stop), ("STOP - START", stop - start)):
        _real(f"--grid {what}", value)
    return name, np.linspace(start, stop, _integer("--grid COUNT", count, 1, _MAX_GRID_POINT))


def cmd_sweep(args: argparse.Namespace) -> list[bytes]:
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
        fixed[name] = _parsed(float, raw, f"--fix expects a numeric value, got {item!r}")
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
    return _csv(header, columns)


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
        _emit(args.func(args), args.output)
    except tuple(_EXIT_CODES) as exc:
        print(f"lodcdf: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
