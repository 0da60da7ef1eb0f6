"""Left-censored observations and their tally tables.

An observation is a measured value together with a detection flag: detected
means the value is the measurement itself, not detected means the measurement
lies below the reported limit of detection and the value *is* that limit.
Estimation never needs the raw sample order, only the per-distinct-value
tallies built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np


class IngestError(ValueError):
    """Raised for unreadable input rows; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AllCensoredError(ValueError):
    """No detected value anywhere: no distribution estimate can be proposed."""


class InvalidParameterError(ValueError):
    """A study parameter is outside its allowed range."""


class StudyDegenerateError(RuntimeError):
    """Every replication of a study came out fully censored."""


_ALL_CENSORED = "every value is censored; no distribution estimate can be proposed"


class Dataset:
    """A sample in input order: values and detection flags, two read-only arrays.

    A value is the measurement itself when detected and the limit of
    detection L otherwise. A nondetect means X < L to the product-limit
    estimator and X <= L to the RHR-MLE, which differ only at such ties.
    Values are compared for tie purposes by exact equality; no tolerance
    is ever applied. Every value must be finite and
    >= 0, and at least one must be detected.
    """

    __slots__ = ("_values", "_detected")

    def __init__(self, values: np.ndarray, detected: np.ndarray):
        values, detected = np.asarray(values), np.asarray(detected)
        if values.dtype.kind not in "biuf" or detected.dtype.kind not in "biuf":
            raise ValueError("dataset values and flags must be numbers")
        if values.ndim != 1 or values.shape != detected.shape:
            raise ValueError("dataset values and flags must be 1-D arrays of equal length")
        if detected.dtype.kind != "b":
            odd = (detected != 0) & (detected != 1)  # NaN is neither
            if odd.any():
                raise ValueError(f"detection flag must be 0 or 1, got {detected[odd][0].item()!r}")
        if not values.size:
            raise ValueError("dataset needs at least one observation")
        values = _frozen(values.astype(np.float64))
        bad = ~(values >= 0) | np.isinf(values)  # NaN fails the comparison
        if bad.any():
            raise ValueError(f"observation value must be finite and >= 0, got {float(values[bad][0])!r}")
        if not detected.any():
            raise AllCensoredError(_ALL_CENSORED)
        self._values = values
        self._detected = _frozen(detected.astype(bool))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, bool]]) -> "Dataset":
        pairs = list(pairs)
        return cls([v for v, _ in pairs], [d for _, d in pairs])

    @property
    def n(self) -> int:
        return self._values.size

    def values(self) -> np.ndarray:
        return self._values

    def detected(self) -> np.ndarray:
        return self._detected


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TallyTable:
    """Per-distinct-value counts, ascending by value.

    For each distinct observed value: how many observations were exact
    (detected) there, how many censored there, and the running total of
    observations at or below it.
    """

    values: np.ndarray     # distinct observed values, strictly increasing
    exact: np.ndarray      # detected count at each value
    censored: np.ndarray   # censored count at each value
    at_or_below: np.ndarray  # cumulative count <= value

    def __post_init__(self):
        for name, dtype in (("values", np.float64), ("exact", np.int64), ("censored", np.int64),
                            ("at_or_below", np.int64)):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=dtype)))
        values, exact, censored, cum = self.values, self.exact, self.censored, self.at_or_below
        if not (values.size == exact.size == censored.size == cum.size >= 1):
            raise ValueError("tally arrays must share a positive length")
        if values.size > 1 and not np.all(np.diff(values) > 0):
            raise ValueError("tally values must be strictly increasing")
        if np.any(exact < 0) or np.any(censored < 0) or np.any(exact + censored < 1):
            raise ValueError("each tally row needs nonnegative counts summing to >= 1")
        if np.any(cum != np.cumsum(exact + censored)):
            raise ValueError("at_or_below must be the cumulative row totals")

    @property
    def m(self) -> int:
        return int(self.values.size)

    @property
    def n(self) -> int:
        return int(self.at_or_below[-1])

    def jumps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows where an estimate can jump: values with an exact count >= 1.

        Returns (values, exact, censored, at_or_below) restricted to those
        rows; ``censored`` is then the count tied to each jump value and
        ``at_or_below`` still counts the full sample. Raises AllCensoredError
        when no row has an exact observation.
        """
        keep = self.exact >= 1
        if not np.any(keep):
            raise AllCensoredError(_ALL_CENSORED)
        return (self.values[keep], self.exact[keep],
                self.censored[keep], self.at_or_below[keep])


_HEADER = ("value", "detected")
# Text is parsed in blocks of whole lines about this many characters long
# (65,536 short rows), so the per-row strings of a large file never all exist
# at once. Lines end at "\n" only, as when iterating a text-mode file.
_BLOCK_CHARS = 1 << 19


def _read(source: str | Path | IO[str]) -> str:
    """The whole text without one leading byte-order mark. A file is decoded
    as UTF-8 with its newlines translated as a text-mode file's are."""
    if not isinstance(source, (str, Path)):
        text = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            raise IngestError(f"cannot decode byte 0x{data[exc.start]:02x} as UTF-8",
                              head.count(b"\n") + 1) from None
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    # Spreadsheet "CSV UTF-8" exports put a byte-order mark first.
    return text[1:] if text.startswith("\ufeff") else text


def _fast(block: str, no_rows: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of a block whose every data line is ``<number>,0`` or
    ``<number>,1`` with a finite number >= 0; None leaves the block to _scan."""
    if "#" in block or "\n\n" in block or block.startswith("\n"):
        block = "\n".join(line for line in block.split("\n") if line and line[0] != "#")
    if block and not block.endswith("\n"):
        block += "\n"
    header = ",".join(_HEADER) + "\n"
    if no_rows and block[:len(header)].lower() == header:
        block = block[len(header):]
    n = block.count("\n")
    # Every line ends in ",0" or ",1", and 2n + 1 cells (commas + newlines
    # + 1) leave one comma a line: the cells alternate value, flag.
    if block.count(",0\n") + block.count(",1\n") != n:
        return None
    cells = block.replace("\n", ",").split(",")
    if len(cells) != 2 * n + 1:
        return None
    try:
        values = np.fromiter(map(float, cells[0:-1:2]), np.float64, n)
    except ValueError:
        return None
    if not np.isfinite(values).all() or (values < 0).any():
        return None
    return values, np.frombuffer("".join(cells[1::2]).encode(), np.uint8) == ord("1")


def _scan(lines: list[str], first: int, no_rows: bool) -> tuple[np.ndarray, np.ndarray]:
    """Parse a block line by line, ``first`` being its first line's number;
    raises IngestError at the first line that is not a row."""
    values: list[float] = []
    flags: list[bool] = []
    for lineno, line in enumerate(lines, start=first):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if no_rows and not values and tuple(f.lower() for f in fields) == _HEADER:
            continue
        if len(fields) != 2:
            raise IngestError(f"expected 2 fields, got {len(fields)}: {line!r}", lineno)
        try:
            value = float(fields[0])
        except ValueError:
            raise IngestError(f"unreadable value {fields[0]!r}", lineno) from None
        if not math.isfinite(value):
            raise IngestError(f"value must be finite, got {fields[0]!r}", lineno)
        if value < 0:
            raise IngestError(f"value must be >= 0, got {fields[0]!r}", lineno)
        if fields[1] not in ("0", "1"):
            raise IngestError(f"detected flag must be 0 or 1, got {fields[1]!r}", lineno)
        values.append(value)
        flags.append(fields[1] == "1")
    return np.array(values, dtype=np.float64), np.array(flags, dtype=bool)


def ingest(source: str | Path | IO[str]) -> Dataset:
    """Read observations from CSV text: ``value,detected`` with detected in {0,1}.

    The header line ``value,detected`` is optional; ``#`` lines and blank
    lines are skipped. Raises IngestError (with the offending line number)
    for anything unreadable, and AllCensoredError when no row is detected.
    """
    text = _read(source)
    values: list[np.ndarray] = []
    detected: list[np.ndarray] = []
    start, no_rows = 0, True
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        block = text[start:end]
        # Only a block left to _scan needs its first line's number.
        v, d = _fast(block, no_rows) or _scan(block.split("\n"), text.count("\n", 0, start) + 1, no_rows)
        values.append(v)
        detected.append(d)
        no_rows = no_rows and not v.size
        start = end
    if no_rows:
        raise IngestError("no observations found")
    return Dataset(np.concatenate(values), np.concatenate(detected))


def _runs(values: np.ndarray, detected: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort float64 values >= 0 along the last axis and count each run of equal values.

    Returns (ends, value, exact, total) per run, in sorted order and row
    after row: the flat position of the run's last element, the run's
    value, its detected count and its length. Runs never cross rows.

    One sort orders packed keys ``bits << 1 | detected``: doubles >= 0
    order as their bit patterns, the low bit carries the flag, and the
    shift drops the sign bit, so -0.0 and 0.0 share a run. That run is
    named by the zero an argsort puts first, as ``np.unique`` names it.
    """
    key = values.view(np.uint64) << 1
    key |= detected
    key.sort(axis=-1)
    bits = key >> 1
    last = np.ones(values.shape, dtype=bool)
    last[..., :-1] = bits[..., 1:] != bits[..., :-1]
    ends = np.flatnonzero(last)
    exact = np.diff(np.cumsum((key & 1).view(np.int64))[ends], prepend=0)
    total = np.diff(ends, prepend=-1)
    value = bits.ravel()[ends].view(np.float64)
    if np.signbit(values).any():
        first = np.take_along_axis(values, np.argsort(values, axis=-1)[..., :1], axis=-1)
        value[(ends - total + 1) % values.shape[-1] == 0] = first.ravel()
    return ends, value, exact, total


def tally(dataset: Dataset) -> TallyTable:
    """Group a dataset by distinct value into ascending count rows."""
    ends, value, exact, total = _runs(dataset.values(), dataset.detected())
    return TallyTable(value, exact, total - exact, ends + 1)
