"""Left-censored observations and their tally tables.

An observation is a measured value together with a detection flag: detected
means the value is the measurement itself, not detected means the measurement
lies below the reported limit of detection and the value *is* that limit.
Estimation never needs the raw sample order, only the per-distinct-value
tallies built here.

``ingest`` reads CSV text in blocks. A block of plain ``<number>,0|1`` rows
is read as bytes by ``_fast``; any other block by ``_scan``, line by line.
``_fast`` drops blank and ``#`` lines by a mask over the line starts and
reads a digits[.digits] number of at most 19 digits in numpy, exactly: by
one division when its integer is below 2**53 (Clinger 1990), else by a
128-bit product (``_decimal``, Lemire 2021). A sign, an exponent, spaces,
``_``, more digits or an exact tie go through ``float()``, so each value is
``float()`` of its text, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

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


@dataclass(frozen=True, eq=False)
class Dataset:
    """A sample in input order: values and detection flags, two read-only arrays.

    A value is the measurement itself when detected and the limit of
    detection L otherwise. A nondetect means X < L to the product-limit
    estimator and X <= L to the RHR-MLE, which differ only at such ties.
    Values are compared for tie purposes by exact equality; no tolerance
    is ever applied. Every value must be finite and
    >= 0, and at least one must be detected.
    """

    values: np.ndarray    # float64
    detected: np.ndarray  # bool

    def __post_init__(self):
        values, detected = np.asarray(self.values), np.asarray(self.detected)
        if values.ndim != 1 or values.shape != detected.shape:
            raise ValueError("dataset values and flags must be 1-D arrays of equal length")
        if detected.dtype.kind != "b":
            odd = np.isin(_frozen(detected, np.float64), (0, 1), invert=True)  # NaN is neither
            if odd.any():
                raise ValueError(f"detection flag must be 0 or 1, got {detected[odd][0].item()!r}")
        if not values.size:
            raise ValueError("dataset needs at least one observation")
        object.__setattr__(self, "values", _observed(_frozen(values, np.float64)))
        if not detected.any():
            raise AllCensoredError(_ALL_CENSORED)
        object.__setattr__(self, "detected", _frozen(detected, bool))

    @property
    def n(self) -> int:
        return self.values.size


def _frozen(a, dtype) -> np.ndarray:
    """A read-only ``dtype`` copy of the numbers ``a``, none changed by an integer cast.
    Every column of ``Dataset``, ``TallyTable``, ``StepCdf`` and ``StudyResult`` is
    made by it, so no record shares memory with its caller or can be written through."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"record columns must be numbers, got {a.dtype} values")
    with np.errstate(invalid="ignore"):  # NaN and inf cast to int64 with a warning
        out = np.array(a, dtype=dtype)
    if out.dtype.kind == "i" and a.dtype.kind != "i" and np.any(out != a):
        raise ValueError(f"{a[out != a][0].item()!r} is not an {out.dtype} value")
    out.setflags(write=False)
    return out


def _observed(values: np.ndarray) -> np.ndarray:
    """``values`` as given if each is finite and >= 0, else ValueError naming the first that is not."""
    bad = ~(values >= 0) | np.isinf(values)  # NaN fails the comparison
    if bad.any():
        raise ValueError(f"observation value must be finite and >= 0, got {float(values[bad][0])!r}")
    return values


def _integer(name: str, value, lo: int, hi: float) -> int:
    """``value`` as an int in [lo, hi], else InvalidParameterError naming ``name``. Refuses
    bools, non-numbers, NaN, inf and fractions; the range is tested before ``float()``."""
    problem = "an integer"
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        value = value.item() if isinstance(value, np.generic) else value  # compared without numpy casts
        if value < lo:
            problem = f"at least {lo}"
        elif value > hi:  # a power of two reads 2**k
            problem = f"at most {hi if hi & (hi - 1) else f'2**{hi.bit_length() - 1}'}"
        elif isinstance(value, numbers.Integral) or float(value).is_integer():  # NaN is not
            return int(value)
    raise InvalidParameterError(f"{name} must be {problem}, got {value!r}")


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite float, above 0 when ``positive``, else InvalidParameterError
    naming ``name``. Refuses bools, non-numbers and ints beyond the float range."""
    value = value.item() if isinstance(value, np.generic) else value  # named without numpy's repr
    try:
        real = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int or fraction beyond the float range
        real = math.inf
    if not (math.isfinite(real) and (real > 0 or not positive)):
        raise InvalidParameterError(f"{name} must be a {'positive ' * positive}finite number, got {value!r}")
    return real


@dataclass(frozen=True, eq=False)
class TallyTable:
    """Per-distinct-value counts, ascending by value.

    For each distinct observed value (finite and >= 0, as in ``Dataset``):
    how many observations were exact (detected) there and how many
    censored there. ``at_or_below``, the running total of observations at
    or below each value, is derived from those two, never passed in.
    """

    values: np.ndarray     # distinct observed values, strictly increasing
    exact: np.ndarray      # detected count at each value
    censored: np.ndarray   # censored count at each value
    at_or_below: np.ndarray = field(init=False)  # cumulative count <= value

    def __post_init__(self):
        for name, dtype in (("values", np.float64), ("exact", np.int64), ("censored", np.int64)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        values, exact, censored = self.values, self.exact, self.censored
        if not (values.size == exact.size == censored.size >= 1):
            raise ValueError("tally arrays must share a positive length")
        _observed(values)
        if values.size > 1 and not np.all(np.diff(values) > 0):
            raise ValueError("tally values must be strictly increasing")
        if np.any(exact < 0) or np.any(censored < 0) or np.any(exact + censored < 1):
            raise ValueError("each tally row needs nonnegative counts summing to >= 1")
        object.__setattr__(self, "at_or_below", _frozen(np.cumsum(exact + censored), np.int64))

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
# (16,384 short rows), so the per-row strings of a large file never all exist
# at once, and a block's numpy temporaries (about 16 bytes a character) are
# reused from the heap, not page-faulted in afresh for every block. Lines end
# at "\n" only, as when iterating a text-mode file.
_BLOCK_CHARS = 1 << 17


def _read(source: str | Path | IO[str] | IO[bytes]) -> str:
    """The whole text without one leading byte-order mark. The bytes of a
    file or a binary stream are decoded as UTF-8 with their newlines
    translated as a text-mode file's are."""
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()
    text = data
    if isinstance(data, bytes):
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


_LOW32 = 0xFFFFFFFF


def _mulhilo(a: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * m, elementwise,
    for a uint64 array ``a`` and an int or uint64 array ``m``.

    numpy has no 64x64 -> 128-bit multiply, so the high word is assembled
    from the four products of 32-bit halves.
    """
    a0, a1 = a & _LOW32, a >> 32
    m0, m1 = m & _LOW32, m >> 32
    cross0, cross1 = a0 * m1, a1 * m0
    carry = ((a0 * m0) >> 32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return a1 * m1 + (cross0 >> 32) + (cross1 >> 32) + (carry >> 32), a * m


# 10**k and 5**-k for the k <= 19 fraction digits a plain value can have.
# 5**-k is held as the 128-bit ceil(2**(z + 127) / 5**k), 2**z being the
# least power of two >= 5**k, and 11 - z - k is the binary exponent that
# scales a product by it back to w / 10**k.
_TENS = np.array([float(10**k) for k in range(20)])
_FIVES = [-(-(1 << (5**k - 1).bit_length() + 127) // 5**k) for k in range(20)]
_FIVES_HI = np.array([t >> 64 for t in _FIVES], np.uint64)
_FIVES_LO = np.array([t & (1 << 64) - 1 for t in _FIVES], np.uint64)
_FIVES_EXP = np.array([11 - (5**k - 1).bit_length() - k for k in range(20)])


def _decimal(w: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w / 10**k rounded to nearest for uint64 w >= 2**53 and 0 <= k <= 19,
    and the lanes it leaves undecided: exact ties, to be read by float().

    Eisel-Lemire (Lemire 2021, "Number parsing at a gigabyte per second"):
    w, shifted to fill 64 bits, times the table's 128-bit 5**-k. Its high
    word holds the 53 bits of the double and a rounding bit, and the low
    table word is added only where the bits below those could carry.
    """
    # Shift the leading 1 of w to bit 63; float(w) may round up a bit length.
    lz = 64 - np.minimum(np.frexp(w.astype(np.float64))[1], 64).astype(np.uint64)
    lz += (w << lz) >> 63 ^ 1
    w = w << lz
    hi, lo = _mulhilo(w, _FIVES_HI[k])
    near = np.flatnonzero(hi & 0x1FF == 0x1FF)  # the 9 bits below the 55 kept are all ones
    top = _mulhilo(w[near], _FIVES_LO[k[near]])[0]
    lo[near] += top
    hi[near] += lo[near] < top
    upper = hi >> 63
    mantissa = hi >> upper + 9
    # Halfway between two doubles: the rounding bit set and every bit below
    # it clear, which w < 2**64 allows only for k <= 4.
    tie = (k <= 4) & (lo <= 1) & (mantissa & 1 == 1) & (mantissa << upper + 9 == hi)
    values = np.ldexp(((mantissa + 1) >> 1).astype(np.float64),
                      (upper - lz).view(np.int64) + _FIVES_EXP[k])
    return values, tie


def _float_cells(raw: bytes, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """float() of each cell raw[start:stop]; ValueError if one is no number.

    When the cells are those of every line after raw's first, one split of
    raw (a comma a line) reads them faster than a slice each.
    """
    if starts.size == raw.count(b"\n") - 1:
        cells = raw.replace(b"\n", b",").split(b",")[1:-1:2]
    else:
        cells = [raw[i:j] for i, j in zip(starts.tolist(), stops.tolist())]
    return np.fromiter(map(float, cells), np.float64, starts.size)


def _fast(block: str, no_rows: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of a block whose every data line is ``<number>,0`` or
    ``<number>,1`` with a finite number >= 0; None leaves the block to _scan.

    The block's bytes are checked and decoded in numpy. Blank and ``#``
    lines, and a header before the first row, are dropped by a mask over
    the line starts. A value of the form digits[.digits] with at most 19
    digits is read exactly from its integer w (point dropped) and its k
    fraction digits. When w < 2**53, w and 10**k are both exact doubles, so
    one division w / 10**k rounds correctly (Clinger 1990, "How to read
    floating point numbers accurately"); a larger w goes to _decimal. A
    value with a sign, an exponent, spaces or '_', more than 19 digits, or
    an exact tie is read by float() of its bytes, so every value equals
    float(text).
    """
    if block and not block.endswith("\n"):
        block += "\n"
    # 24 digits of padding let every digit word be read below a line's comma.
    # UTF-8 puts no ASCII byte inside a multi-byte character.
    raw = ("0" * 24 + "\n" + block).encode("utf-8", "surrogatepass")
    b = np.frombuffer(raw, np.uint8)
    marks = np.flatnonzero((b == 10) | (b == 46))  # newlines and dots
    lines = np.flatnonzero(b[marks] == 10)
    tail = lines[1:]  # each line's newline among the marks
    starts, ends = marks[lines[:-1]] + 1, marks[tail]
    points = np.diff(lines) - 1  # dots in each line
    dots = tail - np.arange(1, tail.size + 1)  # dots before each line's end
    skip = (starts == ends) | (b[starts] == 35)  # blank and '#' lines
    if no_rows and not skip.all():
        first = int(skip.argmin())
        skip[first] = raw[starts[first]:ends[first]].lower() == ",".join(_HEADER).encode()
    stray = 0  # commas on skipped lines
    if skip.any():
        at = np.flatnonzero(b == 44)
        stray = int((at.searchsorted(ends[skip]) - at.searchsorted(starts[skip])).sum())
        keep = ~skip
        tail, starts, ends, points, dots = tail[keep], starts[keep], ends[keep], points[keep], dots[keep]
    commas = ends - 2
    # Every line ends in ",0" or ",1" and has no other comma.
    if ((b[ends - 1] | 1) != 49).any() or (b[commas] != 44).any() \
            or np.count_nonzero(b == 44) != ends.size + stray:
        return None
    size = commas - starts - points  # digits, if the value is digits[.digits]
    frac = np.where(points > 0, commas - 1 - marks[tail - 1], 0)  # digits after the dot
    plain = (points <= 1) & (size >= 1) & (size <= 19)
    size[~plain] = 0
    # Read each value's digits, dots dropped, as 8-byte words ending at its comma.
    packed = b[b != 46]
    words = np.ndarray((packed.size - 7,), "<u8", packed, 0, (1,))
    last = commas - dots  # the comma in packed
    top = np.array([(1 << 64) - (1 << 64 - 8 * j) for j in range(9)], np.uint64)  # top j bytes
    w = np.zeros(ends.size, np.uint64)
    for j in reversed(range(-(-int(size.max(initial=0)) // 8))):
        cell = top[np.clip(size - 8 * j, 0, 8)]  # the value's bytes; others read as "0"
        v = words[last - 8 * j - 8] & cell | 0x3030303030303030 & ~cell
        # A byte outside "0"-"9" sets its top bit in one of the two terms.
        plain &= ((v + 0x4646464646464646) | (v - 0x3030303030303030)) & 0x8080808080808080 == 0
        v &= 0x0F0F0F0F0F0F0F0F  # eight digits, first in the low byte, to one number
        v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FF
        v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFF
        w = w * 100_000_000 + ((v * 10_000 + (v >> 32)) & _LOW32)
    values = w.astype(np.float64) / _TENS[np.minimum(frac, 19)]
    long = np.flatnonzero(plain & (w >= 1 << 53))
    if long.size:
        values[long], tie = _decimal(w[long], frac[long])
        plain[long[tie]] = False
    rest = np.flatnonzero(~plain)
    if rest.size:
        try:
            values[rest] = _float_cells(raw, starts[rest], commas[rest])
        except ValueError:
            return None
    if not np.isfinite(values).all() or (values < 0).any():
        return None
    return values, b[ends - 1] == 49


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


def ingest(source: str | Path | IO[str] | IO[bytes]) -> Dataset:
    """Read observations from CSV text: ``value,detected`` with detected in {0,1}.

    ``source`` is a path, a text stream or a binary stream of UTF-8 bytes.
    The header line ``value,detected`` is optional; ``#`` lines and blank
    lines are skipped. Each value equals ``float()`` of its text. Blocks of
    plain rows are decoded in numpy (``_fast``), any other block line by
    line (``_scan``). Raises IngestError (with the offending line number)
    for anything unreadable, and AllCensoredError when no row is detected.
    """
    text = _read(source)
    values: list[np.ndarray] = []
    detected: list[np.ndarray] = []
    start, no_rows, line, counted = 0, True, 1, 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        block = text[start:end]
        rows = _fast(block, no_rows)
        if rows is None:
            # Only a block left to _scan needs its first line's number,
            # counted on from the last block that needed one.
            line += text.count("\n", counted, start)
            counted = start
            rows = _scan(block.split("\n"), line, no_rows)
        v, d = rows
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
    _, value, exact, total = _runs(dataset.values, dataset.detected)
    return TallyTable(value, exact, total - exact)
