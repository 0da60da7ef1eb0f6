import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodcdf import (
    AllCensoredError,
    Dataset,
    IngestError,
    Observation,
    ingest,
    tally,
)

from conftest import FIXTURES


def test_observation_validates():
    Observation(1.5, True)
    Observation(0.0, False)
    with pytest.raises(ValueError):
        Observation(-1.0, True)
    with pytest.raises(ValueError):
        Observation(float("nan"), True)
    with pytest.raises(ValueError):
        Observation(float("inf"), False)


def test_observation_coerces_types():
    obs = Observation(np.float64(2.0), np.bool_(True))
    assert isinstance(obs.value, float) and isinstance(obs.detected, bool)


def test_dataset_requires_a_detection():
    with pytest.raises(AllCensoredError):
        Dataset.from_pairs([(1.0, False), (2.0, False)])


def test_dataset_arrays_round_trip():
    d = Dataset.from_arrays(np.array([3.0, 1.0, 2.0]), np.array([True, False, True]))
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
