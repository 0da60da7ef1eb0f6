import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodcdf import (
    AllCensoredError,
    SimConfig,
    StepCdf,
    StudyResult,
    TallyTable,
    crhf_exp_cdf,
    eval_cdf,
    mean_from_cdf,
    product_limit_cdf,
    quantile_from_cdf,
    rhr_mle_cdf,
    tally,
)
from lodcdf.estimators import _tail_products

import _oracles as oracle
from _oracles import ecdf, rhr_table
from conftest import pairs_dataset

SIX = [(1, False), (1, True), (2, True), (3, False), (3, True), (4, True)]


@st.composite
def pair_lists(draw, max_n=60):
    """Observation lists on a coarse grid (ties everywhere), >=1 detection."""
    n = draw(st.integers(2, max_n))
    values = [v / 2 for v in draw(st.lists(st.integers(1, 14), min_size=n, max_size=n))]
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flags[draw(st.integers(0, n - 1))] = True
    return list(zip(values, flags))


@st.composite
def tie_free_pair_lists(draw, max_n=40):
    """Observation lists with all values distinct, >=1 detection."""
    values = [v / 2 for v in draw(st.lists(st.integers(1, 400), min_size=2, max_size=max_n, unique=True))]
    flags = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    flags[draw(st.integers(0, len(values) - 1))] = True
    return list(zip(values, flags))


def fits(pairs):
    table = tally(pairs_dataset(pairs))
    pl = product_limit_cdf(table)
    rhr = rhr_mle_cdf(table)
    return table, pl, rhr, crhf_exp_cdf(table)


def close(x: float, fr: Fraction, rel=1e-12) -> bool:
    return math.isclose(x, float(fr), rel_tol=rel, abs_tol=1e-15)


# ------------------------------------------------------------ hand fixture


def test_six_obs_product_limit_values():
    _, pl, _, _ = fits(SIX)
    assert pl.support.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert pl.jump_count == 4
    expected = [Fraction(4, 9), Fraction(2, 3), Fraction(5, 6), Fraction(1)]
    assert all(close(v, e) for v, e in zip(pl.values, expected))
    assert close(pl.lower_value, Fraction(2, 9))


def test_six_obs_rhr_values():
    _, _, rhr, _ = fits(SIX)
    expected = [Fraction(5, 12), Fraction(5, 8), Fraction(5, 6), Fraction(1)]
    assert all(close(v, e) for v, e in zip(rhr.values, expected))
    assert rhr.lower_value == 0.0


def test_six_obs_crhf_values():
    _, _, _, crhf = fits(SIX)
    # exponent sums above each exact value: 7/10, 11/30, 1/6, 0
    expected = [math.exp(-7 / 10), math.exp(-11 / 30), math.exp(-1 / 6), 1.0]
    assert np.allclose(crhf.values, expected, rtol=1e-12, atol=0)
    assert crhf.lower_value > 0


def test_six_obs_variances():
    _, pl, rhr, _ = fits(SIX)
    assert close(pl.variances[0], Fraction(4, 81))
    assert close(rhr.variances[0], Fraction(425, 8640))
    assert pl.variances[-1] == 0.0 and rhr.variances[-1] == 0.0
    assert rhr.lower_variance == 0.0


@pytest.mark.parametrize("fit", [product_limit_cdf, rhr_mle_cdf])
def test_variances_scale_past_int64_products(fit):
    """Scaling every count by s divides each variance by s, also once the
    count products in the variance denominators pass 2**63."""
    def table(s):
        return TallyTable([1.0, 2.0, 3.0], [s, 2 * s, 3 * s], [s, 0, s])
    unit = fit(table(1))
    for s in (2 * 10**9, 4 * 10**9, 10**12):
        scaled = fit(table(s))
        assert np.allclose(scaled.variances * s, unit.variances, rtol=1e-9, atol=0)
        assert math.isclose(scaled.lower_variance * s, unit.lower_variance, rel_tol=1e-9)


def test_six_obs_rates():
    table = tally(pairs_dataset(SIX))
    rt = rhr_table(table)
    assert rt.values.tolist() == [1.0, 2.0, 3.0, 4.0]
    expected = [Fraction(1), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)]
    assert all(close(r, e) for r, e in zip(rt.rates, expected))


def test_six_obs_means():
    table, pl, _, _ = fits(SIX)
    means = mean_from_cdf(pl)
    assert list(means) == ["at-first-exact", "at-zero"]
    assert close(means["at-first-exact"], Fraction(37, 18))
    assert close(means["at-zero"], Fraction(11, 6))


def test_six_obs_quantiles():
    _, pl, _, _ = fits(SIX)
    assert quantile_from_cdf(pl, 0.5) == 2.0
    assert quantile_from_cdf(pl, 1.0) == 4.0
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            quantile_from_cdf(pl, bad)


def test_quantile_at_or_below_lower_value_is_the_first_jump():
    """For p <= lower_value the generalized inverse lies below the first
    jump, where nothing was observed, so no quantile is returned."""
    _, pl, _, _ = fits([(0.5, False), (0.5, True), (1.0, True)])
    assert pl.lower_value == pytest.approx(1 / 3)
    for p in (1e-9, pl.lower_value):
        with pytest.raises(ValueError, match="lower_value"):
            quantile_from_cdf(pl, p)
    assert quantile_from_cdf(pl, math.nextafter(pl.lower_value, 1.0)) == 0.5


def test_quantile_above_the_last_estimate_is_refused():
    """A curve may stop below 1; no jump reaches a p above its last value."""
    f = StepCdf([1.0, 2.0], [0.2, 0.5], 0.0, "x")
    assert quantile_from_cdf(f, 0.5) == 2.0
    for p in (0.9, 1.0):
        with pytest.raises(ValueError, match="last estimate 0.5"):
            quantile_from_cdf(f, p)


def test_all_exact_quantile():
    _, pl, _, _ = fits([(1, True), (2, True), (3, True)])
    assert quantile_from_cdf(pl, 0.34) == 2.0


def test_eval_cdf_regions():
    _, pl, _, crhf = fits(SIX)
    assert eval_cdf(pl, 0.5) == (pl.lower_value, pl.lower_variance)
    assert eval_cdf(pl, 1.0)[0] == pl.values[0]
    assert eval_cdf(pl, 2.5)[0] == pl.values[1]
    assert eval_cdf(pl, 99.0) == (1.0, 0.0)
    assert eval_cdf(pl, float("inf")) == (1.0, 0.0)
    assert eval_cdf(pl, -0.0) == (pl.lower_value, pl.lower_variance)
    assert eval_cdf(pl, -1.0) == eval_cdf(pl, -float("inf")) == (0.0, 0.0)
    assert eval_cdf(crhf, 1.0) == (crhf.values[0], None)
    with pytest.raises(ValueError, match="nan"):
        eval_cdf(pl, float("nan"))
    # an array of points gives arrays equal to the scalar calls, element by element
    points = [-1.0, -0.0, 0.5, 1.0, 2.5, 99.0, float("inf")]
    estimates, variances = eval_cdf(pl, np.array(points))
    assert isinstance(estimates, np.ndarray) and isinstance(variances, np.ndarray)
    assert [(e, v) for e, v in zip(estimates.tolist(), variances.tolist())] == [eval_cdf(pl, t) for t in points]
    assert eval_cdf(crhf, points)[1] is None


# ------------------------------------------------------------ oracle match


@settings(max_examples=150, deadline=None)
@given(pair_lists())
def test_matches_exact_arithmetic(pairs):
    table, pl, rhr, crhf = fits(pairs)
    jumps_pl, lower_pl = oracle.pl_cdf(pairs)
    jumps_rhr, lower_rhr = oracle.rhr_cdf(pairs)
    assert pl.support.tolist() == [v for v, _ in jumps_pl]
    assert all(close(x, f) for x, (_, f) in zip(pl.values, jumps_pl))
    assert close(pl.lower_value, lower_pl)
    assert all(close(x, f) for x, (_, f) in zip(rhr.values, jumps_rhr))
    assert close(rhr.lower_value, lower_rhr)
    for x, (_, s) in zip(crhf.values, oracle.crhf_exponent(pairs)):
        assert math.isclose(x, math.exp(-float(s)), rel_tol=1e-12)

    assert all(close(x, f) for x, f in zip(pl.variances, oracle.greenwood_var(pairs)))
    assert all(close(x, f) for x, f in zip(rhr.variances, oracle.rhr_var(pairs)))
    low = oracle.greenwood_lower(pairs)
    if low is None:
        assert math.isnan(pl.lower_variance)
        assert pl.lower_value == 0.0
    else:
        assert close(pl.lower_variance, low)

    for policy, mean in mean_from_cdf(pl).items():
        assert close(mean, oracle.mean(pairs, policy))

    rt = rhr_table(table)
    assert all(close(x, f) for x, (_, f) in zip(rt.rates, oracle.rhr_rates(pairs)))


# ------------------------------------------------------------ invariants


@settings(max_examples=200, deadline=None)
@given(pair_lists())
def test_ordering_and_range(pairs):
    _, pl, rhr, crhf = fits(pairs)
    assert np.all(rhr.values <= pl.values)
    assert np.all(pl.values <= crhf.values)
    assert rhr.lower_value <= pl.lower_value <= crhf.lower_value
    for f in (pl, rhr, crhf):
        assert np.all(f.values >= 0) and np.all(f.values <= 1)
        assert np.all(np.diff(f.values) >= 0)
        assert 0 <= f.lower_value <= f.values[0]
        assert f.values[-1] == 1.0
    assert crhf.lower_value > 0  # strictly positive everywhere


@settings(max_examples=200, deadline=None)
@given(pair_lists())
def test_variances_nonnegative_zero_at_top(pairs):
    _, pl, rhr, _ = fits(pairs)
    for f in (pl, rhr):
        assert np.all(f.variances >= 0)
        assert f.variances[-1] == 0.0
    assert rhr.lower_variance == 0.0
    if math.isnan(pl.lower_variance):
        # only the all-mass-at-the-bottom case is unstable
        rows = [r for r in oracle.tally_pairs(pairs) if r.d >= 1]
        assert rows[0].y == rows[0].d
    else:
        assert pl.lower_variance >= 0


@settings(max_examples=150, deadline=None)
@given(pair_lists())
def test_rhr_lower_value_iff_leading_censored_rows(pairs):
    rows = oracle.tally_pairs(pairs)
    _, _, rhr, _ = fits(pairs)
    if rows[0].d >= 1:
        assert rhr.lower_value == 0.0
    else:
        assert rhr.lower_value > 0.0


@settings(max_examples=150, deadline=None)
@given(pair_lists(max_n=40))
def test_no_censoring_collapse(pairs):
    pairs = [(v, True) for v, _ in pairs]
    table, pl, rhr, _ = fits(pairs)
    # identical inputs to both estimators: bitwise identical outputs
    assert np.array_equal(pl.values, rhr.values)
    assert pl.lower_value == rhr.lower_value == 0.0
    # the exact-arithmetic product telescopes to the ECDF exactly
    jumps, _ = oracle.pl_cdf(pairs)
    n = len(pairs)
    for row, (_, f) in zip(oracle.tally_pairs(pairs), jumps):
        assert f == Fraction(row.y, n)
    # float route agrees with the ECDF to rounding
    emp = ecdf(pairs_dataset(pairs))
    assert np.array_equal(emp.support, pl.support)
    assert np.allclose(pl.values, emp.values, rtol=1e-12, atol=0)


@settings(max_examples=200, deadline=None)
@given(pair_lists())
def test_all_rows_form_equals_exact_rows_form(pairs):
    """The product over every distinct value (censored-only rows carry an
    exact factor of 1) and the product over exact values only must agree
    bit for bit, for both product forms."""
    table, pl, rhr, _ = fits(pairs)
    for f, use_rhr in ((pl, False), (rhr, True)):
        denom = table.at_or_below - (table.censored if use_rhr else 0)
        # the exponent: rows without exact observations contribute factor 1
        # (and for the rhr form their raw ratio can even be 0/0)
        mask = table.exact >= 1
        factors = np.ones(table.values.size)
        factors[mask] = 1.0 - table.exact[mask] / denom[mask]
        suffix = np.cumprod(factors[::-1])[::-1]
        levels = np.append(suffix[1:], 1.0)
        assert np.array_equal(levels[mask], f.values)
        assert float(suffix[0]) == f.lower_value


@settings(max_examples=100, deadline=None)
@given(pair_lists(max_n=40))
def test_mean_policies_bracket(pairs):
    _, pl, _, _ = fits(pairs)
    means = mean_from_cdf(pl)
    lo, hi = means["at-zero"], means["at-first-exact"]
    assert lo <= hi + 1e-12
    assert hi <= float(pl.support[-1]) + 1e-12
    assert lo >= 0


@settings(max_examples=100, deadline=None)
@given(pair_lists(max_n=40), st.floats(0.01, 1.0))
def test_quantile_is_generalized_inverse(pairs, p):
    _, pl, _, _ = fits(pairs)
    if p <= pl.lower_value:
        with pytest.raises(ValueError, match="lower_value"):
            quantile_from_cdf(pl, p)
        return
    t = quantile_from_cdf(pl, p)
    k = pl.support.tolist().index(t)
    assert pl.values[k] >= p
    assert (pl.values[k - 1] if k > 0 else pl.lower_value) < p


# ------------------------------------------------------ likelihood checks


@settings(max_examples=60, deadline=None)
@given(pair_lists(max_n=60))
def test_rates_maximize_each_likelihood_coordinate(pairs):
    """Each estimator's rates maximize the likelihood under its reading of
    a nondetect at L: product-limit d/y under X < L, RHR-MLE d/(y - q)
    under X <= L. At a jump with tied nondetects (q >= 1) the rates differ,
    and each reading's term is strictly lower at the other reading's rate,
    checked in exact arithmetic."""
    table = tally(pairs_dataset(pairs))
    _, exact, _, at_or_below = table.jumps()
    rates = {"X<L": exact / at_or_below, "X<=L": rhr_table(table).rates}
    rows = [r for r in oracle.tally_pairs(pairs) if r.d >= 1]
    grid = np.arange(1, 10000) / 10000.0
    for reading, r_hats in rates.items():
        for row, r_hat in zip(rows, r_hats):
            ll_grid = oracle.loglik_term(row, grid, reading)
            ll_hat = oracle.loglik_term(row, r_hat, reading)
            assert ll_hat >= ll_grid.max() - 1e-9 * (1 + abs(ll_hat))
    for row in rows:
        if row.q == 0:
            continue
        pl, rhr = Fraction(row.d, row.y), Fraction(row.d, row.y - row.q)
        for reading, own, other in (("X<L", pl, rhr), ("X<=L", rhr, pl)):
            below = oracle.known_below(row, reading)
            assert own**row.d * (1 - own)**below > other**row.d * (1 - other)**below


@settings(max_examples=60, deadline=None)
@given(pair_lists(max_n=60))
def test_likelihood_curvature_closed_form(pairs):
    """Central second difference of one likelihood coordinate at its
    maximizer, evaluated in the cancellation-free rearrangement
    f(r+h)+f(r-h)-2f(r) = d·log1p(-(h/r)²) + b·log1p(-(h/(1-r))²),
    matches -(y-q)³/(d(y-d-q)) to 1e-6 relative."""
    table = tally(pairs_dataset(pairs))
    rt = rhr_table(table)
    rows = [r for r in oracle.tally_pairs(pairs) if r.d >= 1]
    h = 1e-5
    for row, r_hat in zip(rows, rt.rates):
        below = row.y - row.d - row.q
        if below == 0:
            continue  # maximizer on the boundary, no interior curvature
        num = row.d * math.log1p(-((h / r_hat) ** 2))
        num += below * math.log1p(-((h / (1.0 - r_hat)) ** 2))
        second = num / h**2
        expected = float(oracle.curvature(row))
        assert math.isclose(second, expected, rel_tol=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.one_of(pair_lists(max_n=40), tie_free_pair_lists()))
def test_each_fit_is_the_npmle_under_its_reading(pairs):
    """Each fit's masses (below the first jump, then one per jump) are a
    fixed point of one exact EM self-consistency step under its own reading
    of a nondetect at L, X < L for product-limit and X <= L for RHR-MLE,
    and at an atom without mass the score is at most 1: the KKT conditions
    of the nonparametric MLE, in exact arithmetic."""
    table = tally(pairs_dataset(pairs))
    for fit, factor, reading in ((product_limit_cdf, oracle.pl_factor, "X<L"),
                                 (rhr_mle_cdf, oracle.rhr_factor, "X<=L")):
        masses = oracle.atom_masses(pairs, factor)
        f = fit(table)
        fitted = np.diff(f.values, prepend=f.lower_value).tolist()
        assert all(math.isclose(x, m, rel_tol=0, abs_tol=1e-12)
                   for x, m in zip([f.lower_value] + fitted, masses, strict=True))
        assert oracle.em_step(pairs, masses, reading) == masses
        scores = oracle.scores(pairs, masses, reading)
        assert all(g <= 1 for g, p in zip(scores, masses) if p == 0)


def test_six_obs_npmle_readings_are_not_interchangeable():
    """Negative control, worked by hand: each fit fails the other reading.
    Under X <= L the EM step moves product-limit's mass below the first
    jump from 2/9 to 23/180; under X < L the RHR-MLE, with no mass below
    1, gives the nondetect at 1 zero likelihood."""
    pl = oracle.atom_masses(SIX, oracle.pl_factor)
    rhr = oracle.atom_masses(SIX, oracle.rhr_factor)
    assert pl[0] == Fraction(2, 9)
    assert oracle.em_step(SIX, pl, "X<=L")[0] == Fraction(23, 180)
    assert rhr[0] == 0 and oracle.likelihood(SIX, rhr, "X<=L") > 0
    assert oracle.likelihood(SIX, rhr, "X<L") == 0
    with pytest.raises(ZeroDivisionError):
        oracle.scores(SIX, rhr, "X<L")


# ------------------------------------------------------ low-level pieces


def test_tail_products_log_branch_matches_direct():
    factors = np.array([1e-12, 0.5, 1e-10, 0.25])
    levels, lower = _tail_products(factors)
    direct_levels = [float(np.prod(factors[k + 1:])) for k in range(4)]
    direct_lower = float(np.prod(factors))
    assert np.allclose(levels, direct_levels, rtol=1e-12, atol=0)
    assert math.isclose(lower, direct_lower, rel_tol=1e-12)
    assert levels[-1] == 1.0


def test_tail_products_zero_factor_stays_direct():
    factors = np.array([0.0, 0.5, 1.0])
    levels, lower = _tail_products(factors)
    assert levels.tolist() == [0.5, 1.0, 1.0]
    assert lower == 0.0


@pytest.mark.parametrize("op", [np.multiply, np.add])
def test_tail_products_rows_equal_one_row_calls(op):
    """A (rows, n) array scans each row exactly as a 1-D call does."""
    rng = np.random.default_rng(11)
    terms = rng.random((9, 17))
    terms[rng.random(terms.shape) < 0.3] = 1.0  # non-jump positions, as the study engine fills them
    terms[2, 5] = 0.0
    tail, total = _tail_products(terms, op)
    for row in range(terms.shape[0]):
        row_tail, row_total = _tail_products(terms[row], op)
        assert tail[row].tobytes() == row_tail.tobytes()
        assert total[row].tobytes() == np.float64(row_total).tobytes()


def test_tail_products_tiny_factors_match_exact_products():
    """Factors far below 1e-8 keep full relative precision: each of at most
    seven multiplications rounds once, so the error stays within 1e-15."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        factors = 10.0 ** rng.uniform(-36.0, 0.0, size=int(rng.integers(1, 9)))
        factors[int(rng.integers(0, factors.size))] = 10.0 ** rng.uniform(-36.0, -8.0)
        levels, lower = _tail_products(factors)
        exact = [Fraction(1)] * (factors.size + 1)
        for k in range(factors.size - 1, -1, -1):
            exact[k] = exact[k + 1] * Fraction(float(factors[k]))
        for got, want in zip([float(lower), *levels.tolist()], exact):
            assert abs(Fraction(got) - want) <= want * Fraction(1, 10**15)


def test_step_cdf_validation():
    for support, values in (([], []), ([1.0, 2.0], [1.0])):
        with pytest.raises(ValueError, match="share a positive length"):
            StepCdf(np.array(support), np.array(values), 0.0, "x")
    with pytest.raises(ValueError):
        StepCdf(np.array([1.0, 1.0]), np.array([0.5, 1.0]), 0.0, "x")
    with pytest.raises(ValueError):
        StepCdf(np.array([1.0, 2.0]), np.array([0.8, 0.5]), 0.0, "x")
    with pytest.raises(ValueError):
        StepCdf(np.array([1.0]), np.array([0.5]), 0.7, "x")
    with pytest.raises(ValueError):
        StepCdf(np.array([1.0]), np.array([1.5]), 0.0, "x")
    # per-jump variances and the one below the first jump come together
    with pytest.raises(ValueError, match="together"):
        StepCdf(np.array([1.0]), np.array([1.0]), 0.0, "x", variances=np.array([0.0]))
    with pytest.raises(ValueError, match="together"):
        StepCdf(np.array([1.0]), np.array([1.0]), 0.0, "x", lower_variance=0.0)
    with pytest.raises(ValueError, match="align with the support"):
        StepCdf(np.array([1.0]), np.array([1.0]), 0.0, "x", variances=np.array([0.0, 0.0]), lower_variance=0.0)
    with pytest.raises(ValueError, match=">= 0"):
        StepCdf(np.array([1.0]), np.array([1.0]), 0.0, "x", variances=np.array([-1.0]), lower_variance=0.0)
    # the variance sign rule covers -inf and the variance below the first jump; NaN is "unstable"
    with pytest.raises(ValueError, match=">= 0"):
        StepCdf(np.array([1.0]), np.array([1.0]), 0.0, "x", variances=np.array([-np.inf]), lower_variance=0.0)
    with pytest.raises(ValueError, match=">= 0"):
        StepCdf(np.array([1.0]), np.array([1.0]), 0.0, "x", variances=np.array([0.0]), lower_variance=-1.0)
    StepCdf(np.array([1.0]), np.array([1.0]), 0.0, "x", variances=np.array([np.nan]), lower_variance=np.nan)
    # support follows the value rule of Dataset and TallyTable: finite and >= 0
    for support, bad in (([-2.0, -1.0], "-2.0"), ([np.nan, 1.0], "nan"), ([1.0, np.inf], "inf")):
        with pytest.raises(ValueError, match=f"finite and >= 0, got {bad}"):
            StepCdf(np.array(support), np.array([0.5, 1.0]), 0.0, "x")
    with pytest.raises(ValueError, match="must be numbers"):  # text is not a number
        StepCdf(["1", "2"], [0.5, 1.0], 0.0, "x")
    # a NaN estimate is not in [0, 1]
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        StepCdf(np.array([1.0, 2.0]), np.array([0.5, np.nan]), 0.0, "x")


def test_records_copy_their_inputs():
    """Building a record leaves the caller's arrays writable, and writing
    to them afterwards does not reach the record."""
    cases = [
        (lambda a: TallyTable(*a), ("values", "exact", "censored"),
         [np.array([1.0, 2.0]), np.array([1, 1]), np.array([0, 1])]),
        (lambda a: StepCdf(a[0], a[1], 0.0, "x", variances=a[2], lower_variance=0.0),
         ("support", "values", "variances"),
         [np.array([1.0, 2.0]), np.array([0.5, 1.0]), np.array([0.1, 0.0])]),
        (lambda a: StudyResult(SimConfig(mu=0.0, sigma=1.0, m=2), *a),
         ("indices", "ks_product_limit", "ks_rhr_mle"),
         [np.array([0, 1]), np.array([0.1, 0.2]), np.array([0.3, 0.4])]),
    ]
    for build, fields, arrays in cases:
        record = build(arrays)
        before = [a.copy() for a in arrays]
        for a in arrays:
            assert a.flags.writeable
            a[0] = 7
        for name, want in zip(fields, before):
            assert np.array_equal(getattr(record, name), want), name
            assert not getattr(record, name).flags.writeable, name
    # the derived cumulative count is read-only too
    table = TallyTable([1.0, 2.0], [1, 1], [0, 1])
    assert table.at_or_below.tolist() == [1, 3] and not table.at_or_below.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.at_or_below[0] = 7


def test_records_compare_by_identity():
    """Records with array columns compare and hash by identity, so ``==`` and
    ``hash`` work on records of any length."""
    cfg = SimConfig(mu=0.0, sigma=1.0, m=2)
    builds = [
        lambda: TallyTable([1.0, 2.0], [1, 1], [0, 1]),
        lambda: StepCdf([1.0, 2.0], [0.5, 1.0], 0.0, "x", variances=[0.1, 0.0], lower_variance=0.0),
        lambda: StudyResult(cfg, [0, 1], [0.1, 0.2], [0.3, 0.4]),
    ]
    for build in builds:
        record, twin = build(), build()
        assert record == record
        assert record != twin and not record == twin
        assert hash(record) == hash(record)
        assert len({record, twin}) == 2
    assert cfg == SimConfig(mu=0.0, sigma=1.0, m=2)  # scalars only: value equality


def test_records_refuse_their_derived_counts():
    """The cumulative count of a tally and the degenerate count of a study
    are derived; passing one as in the old four- and five-argument calls
    raises TypeError instead of landing in another field."""
    with pytest.raises(TypeError):
        TallyTable([1.0, 2.0], [1, 1], [0, 1], [1, 3])
    with pytest.raises(TypeError):
        StudyResult(SimConfig(mu=0.0, sigma=1.0, m=2), [0, 1], [0.1, 0.2], [0.3, 0.4], 0)


def test_estimators_reject_a_tally_without_exact_rows():
    # a TallyTable built directly may carry censored rows only; the
    # estimators, not the Dataset, must then refuse it
    table = TallyTable([1.0, 2.0], [0, 0], [1, 2])
    for estimator in (product_limit_cdf, rhr_mle_cdf, crhf_exp_cdf):
        with pytest.raises(AllCensoredError, match="every value is censored"):
            estimator(table)

