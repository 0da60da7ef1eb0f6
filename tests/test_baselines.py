import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodcdf import (
    Dataset,
    product_limit_cdf,
    rhr_mle_cdf,
    tally,
)

from _oracles import ecdf, km_negation_oracle, km_survival, perturb_censored_ties
from conftest import pairs_dataset
from test_estimators import SIX, pair_lists


def test_ecdf_hand_values():
    f = ecdf(pairs_dataset([(1, True), (2, True), (3, True)]))
    assert f.support.tolist() == [1.0, 2.0, 3.0]
    assert np.allclose(f.values, [1 / 3, 2 / 3, 1.0], rtol=1e-15)
    f = ecdf(pairs_dataset([(2, True), (2, True), (4, True)]))
    assert f.support.tolist() == [2.0, 4.0]
    assert np.allclose(f.values, [2 / 3, 1.0], rtol=1e-15)
    f = ecdf(pairs_dataset([(7, True)]))
    assert f.support.tolist() == [7.0] and f.values.tolist() == [1.0]
    assert f.lower_value == 0.0


def test_ecdf_ignores_censor_flags():
    a = ecdf(pairs_dataset([(1, True), (2, False), (2, True)]))
    b = ecdf(pairs_dataset([(1, True), (2, True), (2, True)]))
    assert np.array_equal(a.values, b.values)


def test_km_survival_hand_example():
    # right-censored sample: deaths at 1 and 3, censored at 2
    curve = km_survival(np.array([1.0, 2.0, 3.0]), np.array([True, False, True]))
    assert curve.times.tolist() == [1.0, 3.0]
    assert np.allclose(curve.survival, [2 / 3, 0.0], rtol=1e-15)


def test_km_survival_tie_rule_death_first():
    # a death and a censoring at the same time: the censored unit stays
    # in the risk set for the death
    curve = km_survival(np.array([1.0, 1.0, 2.0]), np.array([True, False, True]))
    assert np.allclose(curve.survival, [2 / 3, 0.0], rtol=1e-15)


def test_km_survival_requires_an_event():
    with pytest.raises(ValueError):
        km_survival(np.array([1.0, 2.0]), np.array([False, False]))


def test_negation_oracle_all_exact_is_ecdf():
    d = pairs_dataset([(1, True), (2, True), (5, True)])
    a, b = km_negation_oracle(d), ecdf(d)
    assert np.array_equal(a.support, b.support)
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=0)


def test_negation_oracle_tie_free_example():
    d = pairs_dataset([(1, True), (2, False), (3, True)])
    a = km_negation_oracle(d)
    b = product_limit_cdf(tally(d))
    assert np.array_equal(a.support, b.support)
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=0)
    assert math.isclose(a.lower_value, b.lower_value, rel_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_negation_oracle_matches_product_limit_tie_free(data):
    n = data.draw(st.integers(2, 60))
    steps = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    values = np.cumsum(np.asarray(steps))  # strictly increasing, all distinct
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flags[data.draw(st.integers(0, n - 1))] = True
    d = Dataset(values, np.asarray(flags))
    a = km_negation_oracle(d)
    b = product_limit_cdf(tally(d))
    assert np.array_equal(a.support, b.support)
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=0)
    assert math.isclose(a.lower_value, b.lower_value, rel_tol=1e-12, abs_tol=1e-15)


def test_six_obs_perturbed_oracle_equals_rhr():
    d = pairs_dataset(SIX)
    rhr = rhr_mle_cdf(tally(d))
    pert = perturb_censored_ties(d)
    a = km_negation_oracle(pert)
    assert np.array_equal(a.support, rhr.support)
    assert np.allclose(a.values, rhr.values, rtol=1e-12, atol=0)


@settings(max_examples=200, deadline=None)
@given(pair_lists())
def test_perturbation_turns_rhr_into_product_limit(pairs):
    """Nudging each censored value that ties an exact value upward by a
    sub-gap epsilon makes the plain product-limit estimator reproduce the
    RHR-MLE of the original data at every exact jump."""
    d = pairs_dataset(pairs)
    rhr = rhr_mle_cdf(tally(d))
    pert = perturb_censored_ties(d)
    pl = product_limit_cdf(tally(pert))
    # exact values are untouched by the perturbation
    assert np.array_equal(pl.support, rhr.support)
    assert np.allclose(pl.values, rhr.values, rtol=1e-12, atol=0)
    assert math.isclose(pl.lower_value, rhr.lower_value, rel_tol=1e-12, abs_tol=1e-15)


@settings(max_examples=150, deadline=None)
@given(pair_lists())
def test_perturbation_moves_only_tied_censored_values(pairs):
    d = pairs_dataset(pairs)
    pert = perturb_censored_ties(d)
    assert pert.n == d.n
    exact_values = set(float(v) for v, f in zip(d.values(), d.detected()) if f)
    for before_value, before_detected, after_value, after_detected in zip(
            d.values(), d.detected(), pert.values(), pert.detected()):
        assert before_detected == after_detected
        if before_detected or float(before_value) not in exact_values:
            assert after_value == before_value
        else:
            assert before_value < after_value
    # result is free of exact/censored collisions
    pert_exact = set(float(v) for v, f in zip(pert.values(), pert.detected()) if f)
    pert_cens = set(float(v) for v, f in zip(pert.values(), pert.detected()) if not f)
    assert not (pert_exact & pert_cens)
    # estimators coincide once ties are gone
    a = product_limit_cdf(tally(pert))
    b = rhr_mle_cdf(tally(pert))
    assert np.array_equal(a.values, b.values)
