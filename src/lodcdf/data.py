"""Left-censored observations and their tally tables.

An observation is a measured value together with a detection flag: detected
means the value is the measurement itself, not detected means the measurement
fell below the reported limit of detection and the value *is* that limit.
Estimation never needs the raw sample order, only the per-distinct-value
tallies built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

__all__ = [
    "Observation",
    "Dataset",
    "TallyTable",
    "IngestError",
    "AllCensoredError",
    "ingest",
    "tally",
]


class IngestError(ValueError):
    """Raised for unreadable input rows; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AllCensoredError(ValueError):
    """No detected value anywhere: no distribution estimate can be proposed."""


_ALL_CENSORED = "every value is censored; no distribution estimate can be proposed"


@dataclass(frozen=True, slots=True)
class Observation:
    """One measurement.

    value is the observed number: the measurement itself when detected, the
    limit of detection otherwise. Values are compared for tie purposes by
    exact equality of the parsed numbers; no tolerance is ever applied.
    """

    value: float
    detected: bool

    def __post_init__(self):
        if not (isinstance(self.value, (int, float)) and math.isfinite(self.value)):
            raise ValueError(f"observation value must be finite, got {self.value!r}")
        if self.value < 0:
            raise ValueError(f"observation value must be >= 0, got {self.value!r}")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "detected", bool(self.detected))


@dataclass(frozen=True, slots=True)
class Dataset:
    """Ordered collection of observations; at least one must be detected."""

    observations: tuple[Observation, ...]

    def __post_init__(self):
        obs = tuple(self.observations)
        if not obs:
            raise ValueError("dataset needs at least one observation")
        if not any(o.detected for o in obs):
            raise AllCensoredError(_ALL_CENSORED)
        object.__setattr__(self, "observations", obs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, bool]]) -> "Dataset":
        return cls(tuple(Observation(v, d) for v, d in pairs))

    @classmethod
    def from_arrays(cls, values: np.ndarray, detected: np.ndarray) -> "Dataset":
        return cls.from_pairs(zip(values.tolist(), detected.tolist()))

    @property
    def n(self) -> int:
        return len(self.observations)

    def values(self) -> np.ndarray:
        return np.array([o.value for o in self.observations], dtype=np.float64)

    def detected(self) -> np.ndarray:
        return np.array([o.detected for o in self.observations], dtype=bool)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
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
        values = _frozen(np.asarray(self.values, dtype=np.float64))
        exact = _frozen(np.asarray(self.exact, dtype=np.int64))
        censored = _frozen(np.asarray(self.censored, dtype=np.int64))
        cum = _frozen(np.asarray(self.at_or_below, dtype=np.int64))
        if not (values.size == exact.size == censored.size == cum.size >= 1):
            raise ValueError("tally arrays must share a positive length")
        if values.size > 1 and not np.all(np.diff(values) > 0):
            raise ValueError("tally values must be strictly increasing")
        if np.any(exact < 0) or np.any(censored < 0) or np.any(exact + censored < 1):
            raise ValueError("each tally row needs nonnegative counts summing to >= 1")
        if np.any(cum != np.cumsum(exact + censored)):
            raise ValueError("at_or_below must be the cumulative row totals")
        for name, a in (("values", values), ("exact", exact),
                        ("censored", censored), ("at_or_below", cum)):
            object.__setattr__(self, name, a)

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


def _rows(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def ingest(source: str | Path | IO[str]) -> Dataset:
    """Read observations from CSV text: ``value,detected`` with detected in {0,1}.

    The header line ``value,detected`` is optional; ``#`` lines and blank
    lines are skipped. Raises IngestError (with the offending line number)
    for anything unreadable, and AllCensoredError when no row is detected.
    """
    if isinstance(source, (str, Path)):
        # utf-8-sig drops the byte-order mark spreadsheet exports put first.
        with open(source, "r", encoding="utf-8-sig") as fh:
            return ingest(fh)

    pairs: list[tuple[float, bool]] = []
    for lineno, line in _rows(source):
        fields = [f.strip() for f in line.split(",")]
        if not pairs and tuple(f.lower() for f in fields) == _HEADER:
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
        pairs.append((value, fields[1] == "1"))

    if not pairs:
        raise IngestError("no observations found")
    return Dataset.from_pairs(pairs)


def tally(dataset: Dataset) -> TallyTable:
    """Group a dataset by distinct value into ascending count rows."""
    values = dataset.values()
    detected = dataset.detected()
    uniq, inverse = np.unique(values, return_inverse=True)
    exact = np.bincount(inverse[detected], minlength=uniq.size)
    censored = np.bincount(inverse[~detected], minlength=uniq.size)
    return TallyTable(uniq, exact, censored, np.cumsum(exact + censored))
