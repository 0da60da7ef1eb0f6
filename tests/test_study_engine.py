"""The batched study engine against the scalar reference, bit for bit.

`run_study` fills chunks of replications as rows and fits them row-wise;
`_oracles._replicate` builds one Dataset per replication and runs the
package's tally and estimators and `_oracles.ks_distance` on it. The two
must agree exactly, on every replication and on which replications are
degenerate.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodcdf import (
    AllCensoredError,
    Dataset,
    SimConfig,
    StudyDegenerateError,
    product_limit_cdf,
    rhr_mle_cdf,
    run_study,
    substream,
    tally,
)
from lodcdf import simulation

from _oracles import _replicate, ks_distance

SIGMAS = st.one_of(st.sampled_from([1e-300, 1e-12, 0.5, 1.0, 15.0]),
                   st.floats(0.01, 20.0))
LODS = st.lists(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 1e300]), st.floats(1e-3, 1e3)),
                min_size=1, max_size=4)

configs = st.builds(
    SimConfig,
    mu=st.floats(-5.0, 5.0),
    sigma=SIGMAS,
    scheme=st.sampled_from(["time", "random"]),
    lods=LODS.map(tuple),
    # mu_c = 600 censors every lifetime without overflowing a threshold
    mu_c=st.one_of(st.sampled_from([600.0]), st.floats(-5.0, 5.0)),
    sigma_c=st.one_of(st.sampled_from([1e-300]), st.floats(0.01, 5.0)),
    n=st.integers(2, 60),
    m=st.integers(1, 40),
    seed=st.integers(0, (1 << 64) - 1),
)


def assert_matches_scalar(cfg: SimConfig, grid_point: int) -> None:
    pairs = [_replicate(cfg, grid_point, rep) for rep in range(cfg.m)]
    kept = [rep for rep, pair in enumerate(pairs) if pair is not None]
    if not kept:
        with pytest.raises(StudyDegenerateError):
            run_study(cfg, grid_point=grid_point)
        return
    res = run_study(cfg, grid_point=grid_point)
    assert res.indices.tolist() == kept
    kpl = np.array([pairs[rep][0] for rep in kept])
    krh = np.array([pairs[rep][1] for rep in kept])
    assert res.ks_product_limit.tobytes() == kpl.tobytes()
    assert res.ks_rhr_mle.tobytes() == krh.tobytes()
    assert res.n_degenerate == cfg.m - len(kept)


@settings(max_examples=80, deadline=None)
@given(cfg=configs, grid_point=st.integers(0, (1 << 16) - 1))
def test_run_study_equals_the_scalar_reference(cfg, grid_point):
    assert_matches_scalar(cfg, grid_point)


@pytest.mark.parametrize("cfg", [
    SimConfig(mu=0.0, sigma=1.0, scheme="time", lods=(1e300,), n=5, m=7, seed=3),
    SimConfig(mu=0.0, sigma=1.0, scheme="random", mu_c=600.0, n=60, m=3, seed=4),
    SimConfig(mu=0.0, sigma=1e-300, scheme="time", n=2, m=40, seed=(1 << 64) - 1),
    SimConfig(mu=0.0, sigma=1e-300, scheme="random", sigma_c=1e-300, n=9, m=5, seed=8),
    SimConfig(mu=0.0, sigma=1.0, scheme="time", n=50, m=200, seed=5),
])
def test_edge_configs_equal_the_scalar_reference(cfg):
    assert_matches_scalar(cfg, (1 << 16) - 1)


def test_chunk_boundaries_do_not_change_results():
    """m spans two full chunks and a short third one."""
    rows_per_chunk = simulation._CHUNK_CELLS // 2
    cfg = SimConfig(mu=0.0, sigma=1.0, scheme="random", n=2, m=2 * rows_per_chunk + 3, seed=6)
    assert_matches_scalar(cfg, 0)


# ------------------------------------------------------------- row kernel


def scalar_rows(values, detected, mu, sigma):
    """Per-row ks distances the scalar way; None for a row with no detection."""
    out = []
    for v, d in zip(values, detected):
        try:
            table = tally(Dataset(v, d))
        except AllCensoredError:
            out.append(None)
            continue
        out.append((ks_distance(product_limit_cdf(table), mu, sigma),
                    ks_distance(rhr_mle_cdf(table), mu, sigma)))
    return out


def assert_kernel_matches(values, detected, mu, sigma):
    kpl, krh, kept = simulation._ks_rows(values, detected, mu, sigma)
    expected = scalar_rows(values, detected, mu, sigma)
    assert kept.tolist() == [e is not None for e in expected]
    for row, e in enumerate(expected):
        if e is not None:
            assert (kpl[row], krh[row]) == e, row
    return kpl[kept], krh[kept]


def rounded_rows(seed, rows, n, resolution, censored):
    """Log-normal values rounded to ``resolution`` (zeros included), so
    exact and censored values tie."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.lognormal(0.0, 1.0, (rows, n)) / resolution) * resolution
    return values, rng.random((rows, n)) >= censored


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30), n=st.integers(2, 60),
       resolution=st.sampled_from([0.1, 0.5, 1.0, 3.0]), censored=st.floats(0.0, 1.0),
       mu=st.floats(-2.0, 2.0), sigma=st.floats(0.1, 5.0))
def test_row_kernel_equals_the_estimators_on_tied_rows(seed, rows, n, resolution, censored, mu, sigma):
    assert_kernel_matches(*rounded_rows(seed, rows, n, resolution, censored), mu, sigma)


def test_row_kernel_separates_the_estimators_like_the_scalar_path():
    """Tied rows where product-limit and RHR-MLE differ match too."""
    differing = 0
    for seed, (n, resolution) in enumerate(product((5, 20, 50), (0.1, 0.5, 1.0))):
        kpl, krh = assert_kernel_matches(*rounded_rows(seed, 300, n, resolution, 0.4), 0.0, 1.0)
        differing += int(np.sum(kpl != krh))
    assert differing >= 500


# --------------------------------------------------------- raw Philox words


EDGE_KEYS = list(product((0, (1 << 64) - 1), (0, (1 << 16) - 1), (0, 15)))
EDGE_REPS = (range(0, 3), range((1 << 44) - 3, 1 << 44))


@pytest.mark.parametrize("seed,grid_point,purpose", EDGE_KEYS)
def test_philox_words_equal_substream_raw_words(seed, grid_point, purpose):
    for reps in EDGE_REPS:
        for words in (1, 4, 5, 13):
            raw = simulation._philox_words(seed, grid_point, reps, (purpose,), words)
            assert raw.shape == (1, len(reps), words) and raw.dtype == np.uint64
            for row, rep in zip(raw[0], reps):
                expected = substream(seed, rep, purpose, grid_point).bit_generator.random_raw(words)
                assert np.array_equal(row, expected)


@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("n", [5, 21, 50])
def test_chunk_draws_equal_substream_integers(k, n):
    """53-bit and k-LOD draws; an odd n leaves half a word over."""
    purposes = (simulation.LIFETIME_DRAWS, simulation.CENSORING_DRAWS)
    for seed, grid_point in [(0, 0), ((1 << 64) - 1, (1 << 16) - 1), (12345, 7)]:
        for reps in EDGE_REPS:
            lifetime_raw, censoring_raw = simulation._philox_words(seed, grid_point, reps, purposes, n)
            lods = simulation._bounded_rows(censoring_raw, k, n, seed, grid_point, reps)
            for rep, top, lod in zip(reps, lifetime_raw >> 11, lods):
                lifetime = substream(seed, rep, purposes[0], grid_point)
                censoring = substream(seed, rep, purposes[1], grid_point)
                assert np.array_equal(top, lifetime.integers(0, 1 << 53, size=n, dtype=np.int64))
                assert np.array_equal(lod, censoring.integers(0, k, size=n))


def test_rejecting_rows_are_drawn_through_substream(monkeypatch):
    """A real rejection is about one draw in 2**32, so the threshold is
    patched to reject about half of all draws; every row still equals
    ``substream``'s."""
    calls = []

    def counted(*key):
        calls.append(key)
        return substream(*key)

    monkeypatch.setattr(simulation, "_lemire_threshold", lambda k: 1 << 31)
    monkeypatch.setattr(simulation, "substream", counted)
    for k in (1, 3):
        reps = range(5, 25)
        raw = simulation._philox_words(9, 4, reps, (simulation.CENSORING_DRAWS,), 11)[0]
        lods = simulation._bounded_rows(raw, k, 11, 9, 4, reps)
        for rep, row in zip(reps, lods):
            assert np.array_equal(row, substream(9, rep, simulation.CENSORING_DRAWS, 4).integers(0, k, size=11))
    assert len(calls) == 2 * len(reps)
    assert_matches_scalar(SimConfig(mu=0.0, sigma=1.0, scheme="time", n=7, m=30, seed=2), 3)
    assert len(calls) > 2 * len(reps)


@pytest.mark.parametrize("cells", [7, 64])
@pytest.mark.parametrize("scheme", ["time", "random"])
def test_small_chunks_do_not_change_results(monkeypatch, cells, scheme):
    """Chunks of a few rows cross many boundaries and end in a partial chunk."""
    monkeypatch.setattr(simulation, "_CHUNK_CELLS", cells)
    for n in (3, 9):
        assert_matches_scalar(SimConfig(mu=0.2, sigma=1.1, scheme=scheme, n=n, m=45, seed=11), 2)
