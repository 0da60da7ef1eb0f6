import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodcdf import (
    AllCensoredError,
    Dataset,
    IngestError,
    TallyTable,
    data,
    ingest,
    tally,
)

from conftest import FIXTURES


def test_dataset_validates():
    Dataset.from_pairs([(1.5, True)])
    Dataset.from_pairs([(0.0, False), (1.5, True)])
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Dataset.from_pairs([(bad, True)])
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, bad]), np.array([True, False]))
    with pytest.raises(ValueError):  # text is not a number
        Dataset.from_pairs([("1.5", True)])
    with pytest.raises(ValueError):
        Dataset.from_pairs([])
    with pytest.raises(ValueError):  # one flag per value
        Dataset(np.ones(3), np.ones(2, dtype=bool))
    with pytest.raises(ValueError):  # two columns, not a table
        Dataset(np.ones((2, 2)), np.ones((2, 2), dtype=bool))
    for flags in ([np.nan], [2], [0.5], [-1]):  # a flag is 0 or 1, nothing else
        with pytest.raises(ValueError, match="flag must be 0 or 1"):
            Dataset(np.array([1.0]), np.array(flags))
    with pytest.raises(ValueError, match="flag must be 0 or 1"):
        Dataset.from_pairs([(1.0, 2), (2.0, 0.5)])


def test_dataset_coerces_types():
    d = Dataset.from_pairs([(np.float64(2.0), np.bool_(True)),
                            (np.float32(0.5), np.int64(0)), (3, 1)])
    assert d.values().dtype == np.float64 and d.detected().dtype == bool
    assert d.values().tolist() == [2.0, 0.5, 3.0]
    assert d.detected().tolist() == [True, False, True]
    # the stored arrays are read-only copies, handed out without copying
    values = np.array([1.0, 2.0])
    d = Dataset(values, np.array([True, False]))
    assert d.values() is d.values() and d.detected() is d.detected()
    with pytest.raises(ValueError):
        d.values()[0] = 5.0
    with pytest.raises(ValueError):
        d.detected()[0] = False
    values[0] = 9.0
    assert d.values().tolist() == [1.0, 2.0]


def test_dataset_requires_a_detection():
    with pytest.raises(AllCensoredError):
        Dataset.from_pairs([(1.0, False), (2.0, False)])


def test_dataset_arrays_round_trip():
    d = Dataset(np.array([3.0, 1.0, 2.0]), np.array([True, False, True]))
    assert d.n == 3
    assert d.values().tolist() == [3.0, 1.0, 2.0]
    assert d.detected().tolist() == [True, False, True]


def test_ingest_with_header_comments_and_blanks():
    text = "# a comment\n\nvalue,detected\n1.5,1\n\n# another\n0.5,0\n2,1\n"
    d = ingest(io.StringIO(text))
    assert d.n == 3
    assert d.values().tolist() == [1.5, 0.5, 2.0]
    assert d.detected().tolist() == [True, False, True]


def test_ingest_without_header():
    d = ingest(io.StringIO("1,1\n2,0\n"))
    assert d.n == 2


def test_ingest_from_path(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("value,detected\n4,1\n")
    assert ingest(p).n == 1
    assert ingest(str(p)).n == 1


def test_ingest_accepts_utf8_bom(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark
    p = tmp_path / "excel.csv"
    p.write_bytes(b"\xef\xbb\xbfvalue,detected\r\n1.5,1\r\n0.5,0\r\n")
    d = ingest(p)
    assert d.values().tolist() == [1.5, 0.5]
    assert d.detected().tolist() == [True, False]
    headerless = tmp_path / "bare.csv"
    headerless.write_bytes(b"\xef\xbb\xbf2,1\n")
    assert ingest(headerless).values().tolist() == [2.0]


def test_ingest_strips_one_bom_from_any_source():
    d = ingest(io.StringIO("\ufeffvalue,detected\n1,1\n"))
    assert d.values().tolist() == [1.0]
    assert d.detected().tolist() == [True]
    with pytest.raises(IngestError, match="line 1: unreadable value"):
        ingest(io.StringIO("\ufeff\ufeff1,1\n"))


def test_ingest_reports_undecodable_bytes_by_line(tmp_path):
    p = tmp_path / "latin1.csv"
    # lone CR, CRLF and LF all end a line, as in a text-mode file
    p.write_bytes(b"value,detected\r1,1\r\n2,0\n# 5 \xb5g/L\n")
    with pytest.raises(IngestError, match="line 4: cannot decode byte 0xb5 as UTF-8"):
        ingest(p)


def test_ingest_reports_line_numbers():
    with pytest.raises(IngestError) as exc:
        ingest(io.StringIO("value,detected\n1,1\n2,7\n"))
    assert "line 3" in str(exc.value)
    with pytest.raises(IngestError) as exc:
        ingest(io.StringIO("abc,1\n"))
    assert "line 1" in str(exc.value)
    with pytest.raises(IngestError) as exc:
        ingest(io.StringIO("value,detected\n1,1\n-2,1\n"))
    assert "line 3" in str(exc.value)


def test_ingest_rejects_wrong_shape_rows():
    with pytest.raises(IngestError):
        ingest(io.StringIO("1,1,1\n"))
    with pytest.raises(IngestError):
        ingest(io.StringIO("1\n"))


def test_ingest_empty_is_an_error():
    with pytest.raises(IngestError):
        ingest(io.StringIO(""))
    with pytest.raises(IngestError):
        ingest(io.StringIO("value,detected\n# nothing\n"))


def test_ingest_all_censored_raises():
    with pytest.raises(AllCensoredError):
        ingest(io.StringIO("1,0\n2,0\n"))


# ------------------------------------------- fast path against per-line scan

_VALUES = st.one_of(
    st.floats(0, 1e300).map(repr), st.integers(0, 10**6).map(str),
    st.sampled_from(["-0", "-0.0", "1_0", ".5", "5.", "4.9e-324", "2.2250738585072011e-308",
                     "0.1000000000000000055511151231257827"]))
_CLEAN_LINES = st.one_of(st.builds("{},{}".format, _VALUES, st.sampled_from("01")),
                         st.sampled_from(["", "# note", "#", "#1,1", "#\u00b5g/L"]))
_PADS = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000", "\ufeff"]
# A row with each of its three parts replaced by an odd one half the time.
_ODD_ROWS = st.builds(
    "{}{}{}".format,
    st.one_of(_VALUES, st.sampled_from(["nan", "-inf", "1e400", "-1", "-1e-400", " 2 ", "\u0661",
                                        "abc", "", '"1.5"', "value", "1.2.3", "..5", "."])),
    st.one_of(st.just(","), st.sampled_from([", ", ";", ",,", " ,"])),
    st.one_of(st.sampled_from("01"), st.sampled_from(["1 ", " 1", "1.0", "2", "", "01", '"1"'])))
_ANY_LINES = st.one_of(
    _CLEAN_LINES,
    _ODD_ROWS,
    st.builds("{}{}{}".format, st.sampled_from(_PADS), st.one_of(_CLEAN_LINES, _ODD_ROWS),
              st.sampled_from(_PADS + [" # note", "#", ",1", ",", ";1"])),
    st.sampled_from(["value,detected", "Value, Detected", "VALUE,DETECTED", "value;detected",
                     "  ", "\t", "  # indented comment"]),
)


@st.composite
def _csv_texts(draw, lines=_ANY_LINES, ends=("\n", "\r\n", "\r"),
               heads=("", "\ufeff", "value,detected\n", "\ufeffvalue,detected\r\n")):
    body = draw(st.lists(st.tuples(lines, st.sampled_from(ends)), max_size=12))
    text = "".join(line + end for line, end in body)
    if body and draw(st.booleans()):
        text = text[:-len(body[-1][1])]  # no newline after the last line
    head = draw(st.sampled_from(heads))
    return head + text


def _per_line_scan(lines):
    """What ingest gives when every block is read line by line."""
    values, detected = data._scan(list(lines), 1, True)
    if not values.size:
        raise IngestError("no observations found")
    return Dataset(values, detected)


def _outcome(read):
    try:
        d = read()
    except (IngestError, AllCensoredError) as exc:
        return type(exc).__name__, str(exc)
    # tobytes tells -0.0 from 0.0
    return d.values().tobytes(), d.detected().tobytes()


@settings(max_examples=1000, deadline=None)
@given(_csv_texts(), st.sampled_from([8, 40, 1 << 19]))
def test_fast_path_matches_per_line_scan(text, block_chars):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(data, "_BLOCK_CHARS", block_chars):
            got = [_outcome(lambda: ingest(path)), _outcome(lambda: ingest(io.StringIO(text)))]
        # Reference: a text-mode file's lines, and a string's lines after one BOM.
        with open(path, encoding="utf-8-sig") as fh:
            expected = [_outcome(lambda: _per_line_scan(fh))]
        stream = io.StringIO(text.removeprefix("\ufeff"))
        expected.append(_outcome(lambda: _per_line_scan(stream)))
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(_csv_texts(_CLEAN_LINES, ends=("\n",), heads=("", "\ufeff", "Value,Detected\n")),
       st.sampled_from([8, 40, 1 << 19]))
def test_plain_rows_take_the_fast_path(text, block_chars):
    with mock.patch.object(data, "_BLOCK_CHARS", block_chars), \
            mock.patch.object(data, "_scan", side_effect=AssertionError("per-line scan")):
        _outcome(lambda: ingest(io.StringIO(text)))


@pytest.mark.parametrize("bad, message", [("1,2,1\n", "expected 2 fields, got 3"),
                                          ("0\n1,0,1\n", "expected 2 fields, got 1")])
def test_misaligned_rows_in_a_later_block_name_their_line(bad, message):
    """One comma per row and a 0/1 flag at each line end keep the fast
    path's cells aligned; a block failing either is scanned line by line,
    and the error names the line counted over the whole text."""
    assert data._fast(bad, False) is None
    text = "value,detected\n1,1\n2,0\n" + bad
    with mock.patch.object(data, "_BLOCK_CHARS", 4):
        with pytest.raises(IngestError, match=f"^line 4: {message}"):
            ingest(io.StringIO(text))


# ------------------------------------------------ exact decimal reader

def _mantissas(digits):
    """Digit strings with a point anywhere in them, or none."""
    return st.builds(lambda d, at, point: d[:at] + "." + d[at:] if point else d,
                     digits, st.integers(0, 30), st.booleans())


def _halfway(m: int, k: int) -> str:
    """(2m + 1) / 2**k written with k fraction digits: for m in [2**52, 2**53)
    it lies halfway between two neighbouring doubles."""
    s = str((2 * m + 1) * 5**k).rjust(k + 1, "0")
    return s[:-k] + "." + s[-k:] if k else s


_READER_CELLS = st.one_of(
    # 16-19 digit mantissas, on both sides of w = 2**53
    _mantissas(st.integers(10**15, 10**19 - 1).map(str)),
    _mantissas(st.builds(lambda e, d: str(2**e + d), st.integers(52, 54), st.integers(-1024, 1024))),
    # 0-16 fraction digits after a short integer part
    st.builds("{}.{}".format, st.integers(0, 10**6), st.text("0123456789", max_size=16)),
    # exact halfway cases, which round to even
    st.builds(_halfway, st.integers(2**52, 2**53 - 1), st.integers(0, 4)),
    st.sampled_from(["9007199254740993", "9007199254740993.0", "9007199254740992.5",
                     "9007199254740991", "900719925474099.1", "0.0000000000000000001",
                     "0000000000000000000", ".5", "5.", "0"]),
    # more than 19 digits: too long for the reader's three words
    st.sampled_from(["10000000000000000000", "100000000.00000000000", "0" * 30 + "7",
                     "18446744073709551615", "0.000000000000000000000001"]),
    # values the reader leaves to float()
    st.sampled_from(["+1", "-0.0", "-0", "1e-5", "4.9e-324", "1_0", " 7 ", "2.5E3", "1.7976931348623157e308"]),
    st.integers(10**19, 10**30).map(str),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_READER_CELLS, min_size=1, max_size=30), st.sampled_from([8, 40, 1 << 19]))
def test_reader_equals_float_bit_for_bit(cells, block_chars):
    text = "".join(f"{c},1\n" for c in cells)
    with mock.patch.object(data, "_BLOCK_CHARS", block_chars), \
            mock.patch.object(data, "_scan", side_effect=AssertionError("per-line scan")):
        got = ingest(io.StringIO(text)).values()
    assert got.tobytes() == np.array([float(c) for c in cells]).tobytes()


@pytest.mark.parametrize("cell", ["{!r}".format, "{:.1f}".format])
def test_reader_reads_benchmark_sized_files_exactly(cell):
    """200k log-normal rows written as the fit benchmark writes them:
    full-precision reprs, and the same values rounded to 0.1."""
    rng = np.random.default_rng(5)
    cells = [cell(v) for v in np.exp(rng.standard_normal(200_000)).tolist()]
    text = "value,detected\n" + "".join(f"{c},1\n" for c in cells)
    with mock.patch.object(data, "_scan", side_effect=AssertionError("per-line scan")):
        got = ingest(io.StringIO(text)).values()
    assert got.tobytes() == np.fromiter(map(float, cells), np.float64, len(cells)).tobytes()


def test_ingest_fixture():
    d = ingest(FIXTURES / "six_obs.csv")
    assert d.n == 6
    assert int(np.sum(d.detected())) == 4


def test_tally_hand_counts():
    d = ingest(FIXTURES / "six_obs.csv")
    t = tally(d)
    assert t.values.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert t.exact.tolist() == [1, 1, 1, 1]
    assert t.censored.tolist() == [1, 0, 1, 0]
    assert t.at_or_below.tolist() == [2, 3, 5, 6]
    assert t.m == 4 and t.n == 6


def test_tally_table_validation():
    bad = [
        (([], [], [], []), "share a positive length"),
        (([1.0, 2.0], [1], [0, 0], [1, 2]), "share a positive length"),
        (([2.0, 1.0], [1, 1], [0, 0], [1, 2]), "strictly increasing"),
        (([1.0], [-1], [2], [1]), "nonnegative counts"),
        (([1.0], [0], [0], [0]), "nonnegative counts"),
        (([1.0, 2.0], [1, 1], [0, 0], [1, 3]), "cumulative row totals"),
    ]
    for arrays, message in bad:
        with pytest.raises(ValueError, match=message):
            TallyTable(*arrays)


def test_exact_tally_drops_censored_only_rows():
    d = Dataset.from_pairs([(1, False), (2, True), (3, False), (4, True)])
    values, exact, censored, at_or_below = tally(d).jumps()
    assert values.tolist() == [2.0, 4.0]
    assert at_or_below.tolist() == [2, 4]
    assert (exact + censored).tolist() == [1, 1]
    assert (at_or_below - exact - censored).tolist() == [1, 3]
    assert values.size == 2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tally_is_a_partition(data):
    n = data.draw(st.integers(2, 60))
    values = data.draw(
        st.lists(st.integers(1, 12), min_size=n, max_size=n).map(
            lambda xs: [x / 2 for x in xs]
        )
    )
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flags[data.draw(st.integers(0, n - 1))] = True
    d = Dataset.from_pairs(list(zip(values, flags)))
    t = tally(d)
    assert int(t.exact.sum() + t.censored.sum()) == n
    assert int(t.at_or_below[-1]) == n
    assert np.all(np.diff(t.values) > 0)
    assert np.array_equal(np.cumsum(t.exact + t.censored), t.at_or_below)
    values, exact, censored, at_or_below = t.jumps()
    assert np.all(exact >= 1)
    assert int(exact.sum()) == int(np.sum(d.detected()))
    # every jump row's counts match the dataset directly
    for v, e, c, y in zip(values, exact, censored, at_or_below):
        assert int(np.sum(d.detected() & (d.values() == v))) == e
        assert int(np.sum(~d.detected() & (d.values() == v))) == c
        assert int(np.sum(d.values() <= v)) == y


def _dict_tally(values, detected):
    """Distinct values ascending with their exact and censored counts, by
    plain dict grouping; -0.0 and 0.0 are one key, as they compare equal."""
    counts: dict[float, list[int]] = {}
    for v, d in zip(values, detected):
        counts.setdefault(v, [0, 0])[0 if d else 1] += 1
    keys = sorted(counts)
    return keys, [counts[k][0] for k in keys], [counts[k][1] for k in keys]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, 1e-300, 5e-324, 1e300])
                          | st.floats(0.0, 10.0), st.booleans()), min_size=1, max_size=40),
       st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0]), max_size=6))
def test_tally_groups_like_a_dict_count(pairs, censored_only):
    """Repeated values, -0.0 next to 0.0 and values tied only among
    censored rows group exactly as a dict count does."""
    pairs = pairs + [(v, False) for v in censored_only for _ in range(2)]
    if not any(d for _, d in pairs):
        pairs.append((1.0, True))
    values, detected = zip(*pairs)
    t = tally(Dataset.from_pairs(pairs))
    keys, exact, censored = _dict_tally(values, detected)
    assert t.values.tolist() == keys
    assert t.exact.tolist() == exact
    assert t.censored.tolist() == censored
    assert t.at_or_below.tolist() == np.cumsum(np.add(exact, censored)).tolist()


def test_tally_groups_neighbouring_doubles_apart():
    """Values one ulp apart, the smallest subnormal beside zero and the
    largest finite double each keep their own row."""
    big = np.finfo(np.float64).max
    values = np.array([1.0, np.nextafter(1.0, 2.0), 5e-324, 0.0, big, np.nextafter(big, 0.0),
                       1.0, 0.0, big, 5e-324])
    detected = np.array([True, False, True, False, True, True, False, True, False, False])
    t = tally(Dataset(values, detected))
    keys, exact, censored = _dict_tally(values.tolist(), detected.tolist())
    assert t.values.tobytes() == np.array(keys).tobytes()
    assert t.exact.tolist() == exact == [1, 1, 1, 0, 1, 1]
    assert t.censored.tolist() == censored == [1, 1, 1, 1, 0, 1]


@pytest.mark.parametrize("values", [[-0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [0.0] * 5 + [-0.0] * 5 + [1.0],
                                    [-0.0] * 20 + [0.0] * 20, [0.0, -0.0] * 50])
def test_tally_names_a_signed_zero_run_as_np_unique_does(values):
    """-0.0 and 0.0 are one row; the zero that names it (and prints as
    "0" or "-0") is the one np.unique(..., return_inverse=True) picks."""
    t = tally(Dataset(np.array(values), np.ones(len(values), dtype=bool)))
    assert t.values.tobytes() == np.unique(np.array(values), return_inverse=True)[0].tobytes()
