import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from lodcdf import (
    InvalidParameterError,
    SimConfig,
    StepCdf,
    StudyDegenerateError,
    StudyResult,
    product_limit_cdf,
    rhr_mle_cdf,
    run_study,
    substream,
    sweep,
    tally,
)
from lodcdf.simulation import (
    _PHILOX_M0,
    _PHILOX_M1,
    CENSORING_DRAWS,
    LIFETIME_DRAWS,
    _lognormal,
    _mulhilo,
)

from _oracles import (
    _replicate,
    apply_random_censoring,
    apply_time_censoring,
    ks_distance,
    sample_lognormal,
)


# ------------------------------------------------------------- substreams


def test_substream_is_deterministic():
    a = substream(7, 3, LIFETIME_DRAWS).integers(0, 1 << 30, 8)
    b = substream(7, 3, LIFETIME_DRAWS).integers(0, 1 << 30, 8)
    assert np.array_equal(a, b)


def test_substreams_are_distinct_across_fields():
    base = substream(7, 3, LIFETIME_DRAWS, grid_point=2).integers(0, 1 << 30, 8)
    for seed, rep, purpose, gp in [
        (8, 3, LIFETIME_DRAWS, 2),
        (7, 4, LIFETIME_DRAWS, 2),
        (7, 3, CENSORING_DRAWS, 2),
        (7, 3, LIFETIME_DRAWS, 1),
    ]:
        other = substream(seed, rep, purpose, grid_point=gp).integers(0, 1 << 30, 8)
        assert not np.array_equal(base, other)


def test_substream_validates_ranges():
    nan = float("nan")
    for bad in [(-1, 0, 0, 0), (1 << 64, 0, 0, 0), (1 << 2000, 0, 0, 0), (0, -1, 0, 0),
                (0, 0, 16, 0), (0, 0, 0, 1 << 16),
                (0, 2.7, 0, 0), (0.5, 0, 0, 0), (nan, 0, 0, 0), (0, 0, 0.5, 0),
                (0, 0, 0, 1.5), (0, 0, 0, nan), (0, 0, 0, float("inf")),
                (True, 0, 0, 0), (0, np.True_, 0, 0), (0, 0, True, 0), (0, 0, 0, np.True_)]:
        with pytest.raises(InvalidParameterError):
            substream(*bad)
    for grid_point in (1.5, 1 << 16, True):
        with pytest.raises(InvalidParameterError):
            run_study(SimConfig(mu=0.0, sigma=1.0, n=5, m=3), grid_point=grid_point)


def same_pairs(a: StudyResult, b: StudyResult) -> bool:
    """Whether two studies kept the same replications with bit-identical distances."""
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("indices", "ks_product_limit", "ks_rhr_mle"))


def test_run_study_takes_integral_grid_points():
    cfg = SimConfig(mu=0.0, sigma=1.0, n=5, m=3)
    two = run_study(cfg, grid_point=2)
    for grid_point in (2.0, np.int64(2)):
        assert same_pairs(run_study(cfg, grid_point=grid_point), two)
    assert not same_pairs(run_study(cfg, grid_point=0), two)


# ---------------------------------------------------------------- samplers
# sample_lognormal, the censoring schemes and ks_distance are the scalar
# references in _oracles; the study engine draws through _lognormal.


def test_lattice_top_stays_finite_and_other_keys_unchanged():
    top = (1 << 53) - 1
    assert np.isfinite(_lognormal(0.0, 1.0, np.array([top], dtype=np.int64))).all()
    keys = np.concatenate([np.array([0, 1, 1 << 52, top - 1], dtype=np.int64),
                           np.random.default_rng(3).integers(0, top, 64, dtype=np.int64)])
    unclamped = np.exp(0.5 + 2.0 * ndtri((keys.astype(np.float64) + 0.5) / float(1 << 53)))
    assert _lognormal(0.5, 2.0, keys).tobytes() == unclamped.tobytes()


def test_lognormal_degenerate_scale():
    rng = substream(0, 0, LIFETIME_DRAWS)
    x = sample_lognormal(0.0, 1e-12, 100, rng)
    assert np.all(np.abs(x - 1.0) < 1e-9)


def test_lognormal_mean_matches_theory():
    rng = substream(11, 0, LIFETIME_DRAWS)
    x = sample_lognormal(0.0, 1.0, 100_000, rng)
    se = float(np.std(x, ddof=1) / math.sqrt(x.size))
    assert abs(float(np.mean(x)) - math.exp(0.5)) < 3 * se


def test_lognormal_same_stream_same_values():
    a = sample_lognormal(1.0, 2.0, 50, substream(5, 9, LIFETIME_DRAWS))
    b = sample_lognormal(1.0, 2.0, 50, substream(5, 9, LIFETIME_DRAWS))
    assert np.array_equal(a, b)
    assert np.all(a > 0)


def test_lognormal_rejects_bad_sigma():
    with pytest.raises(InvalidParameterError):
        sample_lognormal(0.0, 0.0, 5, substream(0, 0, 0))


# ---------------------------------------------------------------- censoring


def test_time_censoring_forced_outcomes():
    rng = substream(0, 0, CENSORING_DRAWS)
    d = apply_time_censoring(np.array([0.3, 1.5]), (0.5,), rng)
    assert d.values().tolist() == [0.5, 1.5]
    assert d.detected().tolist() == [False, True]


def test_time_censoring_boundary_is_detected():
    rng = substream(0, 0, CENSORING_DRAWS)
    d = apply_time_censoring(np.array([0.5, 9.9]), (0.5,), rng)
    assert d.detected().tolist() == [True, True]


def test_time_censoring_lod_frequencies():
    # lifetimes far below every LOD, so each censored value reveals its draw
    n = 30_000
    lifetimes = np.full(n, 1e-4)
    lifetimes[-1] = 100.0  # keep one detection so the Dataset is valid
    lods = (0.5, 1.0, 2.0)
    d = apply_time_censoring(lifetimes, lods, substream(3, 1, CENSORING_DRAWS))
    values = d.values()[:-1]
    se = math.sqrt((1 / 3) * (2 / 3) / (n - 1))
    for lod in lods:
        freq = float(np.mean(values == lod))
        assert abs(freq - 1 / 3) < 3 * se


def test_time_censoring_requires_lods():
    with pytest.raises(InvalidParameterError):
        apply_time_censoring(np.array([1.0]), (), substream(0, 0, 1))


def test_random_censoring_equal_draws_count_as_detected():
    # identical stream for lifetimes and thresholds: T == C exactly
    t = sample_lognormal(0.0, 1.0, 40, substream(2, 5, LIFETIME_DRAWS))
    d = apply_random_censoring(t, 0.0, 1.0, substream(2, 5, LIFETIME_DRAWS))
    assert np.all(d.detected())
    assert np.array_equal(d.values(), t)


def test_random_censoring_tiny_threshold_detects_everything():
    t = sample_lognormal(0.0, 1.0, 200, substream(2, 6, LIFETIME_DRAWS))
    d = apply_random_censoring(t, -100.0, 1.0, substream(2, 6, CENSORING_DRAWS))
    assert np.all(d.detected())


def test_random_censoring_symmetric_half_detected():
    n = 30_000
    t = sample_lognormal(0.0, 1.0, n, substream(9, 0, LIFETIME_DRAWS))
    d = apply_random_censoring(t, 0.0, 1.0, substream(9, 0, CENSORING_DRAWS))
    frac = float(np.mean(d.detected()))
    se = math.sqrt(0.25 / n)
    assert abs(frac - 0.5) < 3 * se


# ---------------------------------------------------------------- distance


def test_ks_distance_zero_on_truth():
    support = np.array([0.5, 1.0, 2.0, 3.0])
    values = ndtr(np.log(support))
    f = StepCdf(support, values, 0.0, "truth")
    assert ks_distance(f, 0.0, 1.0) == 0.0


def test_ks_distance_single_jump():
    f = StepCdf(np.array([1.0]), np.array([1.0]), 0.0, "x")
    assert math.isclose(ks_distance(f, 0.0, 1.0), 0.5, rel_tol=1e-15)


def test_ks_distance_six_obs_hand_value():
    from lodcdf import Dataset

    d = Dataset([1, 1, 2, 3, 3, 4], [False, True, True, False, True, True])
    f = product_limit_cdf(tally(d))
    gaps = [abs(float(ndtr(math.log(t))) - v) for t, v in zip(f.support, f.values)]
    assert math.isclose(ks_distance(f, 0.0, 1.0), max(gaps), rel_tol=1e-15)


# ---------------------------------------------------------------- config


def test_config_validation():
    SimConfig(mu=0.0, sigma=1.0)  # defaults are valid
    bad = [
        dict(mu=float("nan"), sigma=1.0),
        dict(mu=0.0, sigma=0.0),
        dict(mu=0.0, sigma=1.0, scheme="nope"),
        dict(mu=0.0, sigma=1.0, lods=()),
        dict(mu=0.0, sigma=1.0, lods=(0.5, -1.0)),
        dict(mu=0.0, sigma=1.0, mu_c=float("nan")),
        dict(mu=0.0, sigma=1.0, sigma_c=0.0),
        dict(mu=0.0, sigma=1.0, n=1),
        dict(mu=0.0, sigma=1.0, m=0),
        dict(mu=0.0, sigma=1.0, seed=-1),
        dict(mu=0.0, sigma=1.0, seed=1 << 64),
        dict(mu=0.0, sigma=1.0, seed=1 << 2000),  # too large for a float
        dict(mu=0.0, sigma=1.0, n=50.9),
        dict(mu=0.0, sigma=1.0, m=10.7),
        dict(mu=0.0, sigma=1.0, seed=3.9),
        dict(mu=0.0, sigma=1.0, n=float("nan")),
        dict(mu=0.0, sigma=1.0, m=float("inf")),
        dict(mu=0.0, sigma=1.0, m=True),
        dict(mu="1.5", sigma=1.0),
        dict(mu=True, sigma=1.0),
        dict(mu=0.0, sigma=1.0, lods=("a",)),
        dict(mu=10**400, sigma=1.0),  # an int beyond the float range
    ]
    for kwargs in bad:
        with pytest.raises(InvalidParameterError):
            SimConfig(**kwargs)
    # numpy scalars are named by their value, not by numpy's repr
    for kwargs, shown in ((dict(mu=np.float64("nan"), sigma=1.0), "got nan"),
                          (dict(mu=0.0, sigma=np.float32(-1)), "got -1.0")):
        with pytest.raises(InvalidParameterError, match=shown) as info:
            SimConfig(**kwargs)
        assert "np." not in str(info.value)


def test_config_limits_the_study_sizes():
    """n stays below the 10**8 size cap and m within the 2**44
    replications that the substream keys hold; both are refused before
    any draw."""
    SimConfig(mu=0.0, sigma=1.0, n=10**8 - 1, m=1 << 44)  # built, never run
    for kwargs in (dict(n=10**8), dict(m=(1 << 44) + 1)):
        with pytest.raises(InvalidParameterError, match="must be"):
            SimConfig(mu=0.0, sigma=1.0, **kwargs)


# ---------------------------------------------------------------- studies


def test_single_replication_reproducible():
    cfg = SimConfig(mu=0.0, sigma=1.0, m=1, seed=123)
    a = run_study(cfg)
    b = run_study(cfg)
    assert np.array_equal(a.ks_product_limit, b.ks_product_limit)
    assert np.array_equal(a.ks_rhr_mle, b.ks_rhr_mle)
    assert a.n_pairs + a.n_degenerate == 1


def test_study_accounting_and_signs():
    cfg = SimConfig(mu=0.0, sigma=1.0, scheme="time", n=2, m=100, lods=(2.0,), seed=5)
    res = run_study(cfg)
    assert res.n_pairs + res.n_degenerate == 100
    assert res.n_pairs > 0 and res.n_degenerate > 0
    assert np.all(res.ks_product_limit >= 0)
    assert np.all(res.ks_rhr_mle >= 0)
    assert np.all(np.diff(res.indices) > 0)


def test_study_all_degenerate_raises():
    cfg = SimConfig(mu=0.0, sigma=1.0, scheme="time", n=3, m=4, lods=(1e12,), seed=1)
    with pytest.raises(StudyDegenerateError):
        run_study(cfg)


def test_worker_count_does_not_change_results():
    cfg = SimConfig(mu=0.0, sigma=1.0, scheme="random", n=20, m=24, seed=77)
    for jobs in (0, 1.5, True):
        with pytest.raises(InvalidParameterError, match="jobs"):
            run_study(cfg, jobs=jobs)
    serial = run_study(cfg, jobs=1)
    for jobs in (2, 5):
        parallel = run_study(cfg, jobs=jobs)
        assert np.array_equal(serial.indices, parallel.indices)
        assert np.array_equal(serial.ks_product_limit, parallel.ks_product_limit)
        assert np.array_equal(serial.ks_rhr_mle, parallel.ks_rhr_mle)
        assert serial.n_degenerate == parallel.n_degenerate


def test_sweep_orders_and_isolates_points():
    cfg = SimConfig(mu=0.0, sigma=1.0, n=10, m=6, seed=3)
    results = sweep(cfg, "sigma", [2.0, 0.5, 1.0])
    assert [r.config.sigma for r in results] == [0.5, 1.0, 2.0]
    for i, (r, v) in enumerate(zip(results, [0.5, 1.0, 2.0])):
        assert same_pairs(r, run_study(replace(cfg, sigma=v), grid_point=i))
    # a one-point sweep reproduces run_study exactly
    single = sweep(cfg, "sigma", [1.0])[0]
    direct = run_study(cfg)
    assert np.array_equal(single.ks_product_limit, direct.ks_product_limit)
    assert np.array_equal(single.ks_rhr_mle, direct.ks_rhr_mle)


def test_sweep_validates():
    cfg = SimConfig(mu=0.0, sigma=1.0)
    with pytest.raises(InvalidParameterError):
        sweep(cfg, "n", [10])
    with pytest.raises(InvalidParameterError):
        sweep(cfg, "sigma", [])
    with pytest.raises(InvalidParameterError):
        sweep(cfg, "sigma", [-1.0])
    with pytest.raises(InvalidParameterError, match="limited to 65536"):
        sweep(cfg, "sigma", [1.0] * 65537)


def test_study_result_validation():
    cfg = SimConfig(mu=0.0, sigma=1.0, m=2)
    with pytest.raises(ValueError, match="share one length"):
        StudyResult(cfg, [0, 1], [0.1], [0.1, 0.2])
    with pytest.raises(ValueError, match="must be numbers"):  # text is not a number
        StudyResult(cfg, [0], ["0.1"], [0.2])
    # indices must be distinct replications in [0, m), ascending
    for indices in ([0, 1, 2], [1, 1], [1, 0], [-1], [2]):
        ks = [0.1] * len(indices)
        with pytest.raises(ValueError, match="distinct replications"):
            StudyResult(cfg, indices, ks, ks)
    single = StudyResult(cfg, [0], [0.1], [0.2])
    assert single.n_pairs == 1 and single.n_degenerate == 1
    assert StudyResult(cfg, [0, 1], [0.1, 0.2], [0.1, 0.2]).n_degenerate == 0
    assert math.isnan(single.se_diff)


# sha256 of the lines f"{i},{pl:.7g},{rhr:.7g}" over (indices, ks_product_limit,
# ks_rhr_mle), joined by newlines. Rounding to %.7g keeps last-bit differences
# of np.exp between hosts out of the digest; a change to the draw recipe or
# the KS step, or one to the log-normal transform above that rounding, moves it.
STUDY_DIGESTS = {
    "time": "45416d92addb67c90d1f1c6eb64e5cc9fc54ecd88604d2886f994f5ca97c18ff",
    "random": "d3069a63f5ddfbe56b7ebe0d49b4bfe4af11066011ed4eb21d372aa6091609c5",
}


@pytest.mark.parametrize("scheme", list(STUDY_DIGESTS))
def test_study_values_keep_their_digest(scheme):
    res = run_study(SimConfig(mu=0.0, sigma=1.0, scheme=scheme, n=50, m=200, seed=7))
    lines = (f"{i},{pl:.7g},{rhr:.7g}"
             for i, pl, rhr in zip(res.indices, res.ks_product_limit, res.ks_rhr_mle))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == STUDY_DIGESTS[scheme]


def test_mean_diff_and_se_definitions():
    cfg = SimConfig(mu=0.0, sigma=1.0, n=12, m=30, seed=21)
    res = run_study(cfg)
    diffs = res.ks_product_limit - res.ks_rhr_mle
    assert math.isclose(res.mean_diff, float(np.mean(diffs)), rel_tol=1e-15)
    expected_se = float(np.std(diffs, ddof=1) / math.sqrt(diffs.size))
    assert math.isclose(res.se_diff, expected_se, rel_tol=1e-15, abs_tol=1e-300)


def test_estimators_coincide_without_ties():
    """With continuous lifetime and threshold draws, a censored value never
    collides with an exact value, so the product-limit and RHR-MLE fits are
    identical in every replication. The comparison study's mean difference
    is therefore exactly zero under both schemes; it can only separate the
    estimators on data with exact/censored ties."""
    for scheme in ("time", "random"):
        cfg = SimConfig(mu=0.0, sigma=1.0, scheme=scheme, n=50, m=60, seed=9)
        for rep in range(cfg.m):
            pair = _replicate(cfg, 0, rep)
            if pair is not None:
                assert pair[0] == pair[1]
        res = run_study(cfg)
        assert res.mean_diff == 0.0


@pytest.mark.parametrize("m", [0, 1, 2**64 - 1, _PHILOX_M0, _PHILOX_M1])
def test_mulhilo_matches_python_ints(m):
    """The high and low words of a * m equal Python's (a*m) >> 64 and
    (a*m) mod 2**64, on edge words and random ones, for an int m and for
    uint64 arrays of multipliers."""
    edge = np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1, _PHILOX_M0, _PHILOX_M1], np.uint64)
    a = np.concatenate([edge, np.random.default_rng(7).integers(0, 2**64 - 1, 1000, np.uint64,
                                                                endpoint=True)])
    hi, lo = _mulhilo(a, m)
    assert hi.tolist() == [x * m >> 64 for x in a.tolist()]
    assert lo.tolist() == [x * m & (1 << 64) - 1 for x in a.tolist()]
    # An array multiplier: m in every lane, then a different word in each.
    for ms in (np.full(a.size, m, np.uint64), a[::-1] ^ np.uint64(m)):
        hi, lo = _mulhilo(a, ms)
        pairs = list(zip(a.tolist(), ms.tolist()))
        assert hi.tolist() == [x * y >> 64 for x, y in pairs]
        assert lo.tolist() == [x * y & (1 << 64) - 1 for x, y in pairs]
