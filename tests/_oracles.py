"""Reference implementations used only by the tests.

The exact-arithmetic oracles work in `fractions.Fraction` over a plain
tally of (value, detected) pairs, deliberately sharing no code with the
package: an independent route to the same numbers. Values are converted
to Fraction exactly (binary floats are rationals), so the only
approximation anywhere is the final comparison against the float
implementation.

The Kaplan-Meier oracles at the end reach the product-limit estimate
through right-censored survival analysis on the negated sample (the
reverse Kaplan-Meier of Gillespie et al. 2010). They use the package's
`Dataset` and `StepCdf` only as containers: reading values and flags in,
and handing a step function back; no tally or estimator code.

The last ones are float references built from the package's own parts:
`rhr_table` reads the reversed-hazard rates off `TallyTable.jumps()`, and
`_replicate` runs one simulation replication the scalar way (one
`Dataset`, one `tally`, two estimators, two `ks_distance` calls), the
reference the batched study engine must match bit for bit. Its parts
`sample_lognormal`, `apply_time_censoring`, `apply_random_censoring` and
`ks_distance` draw and censor one sample from a replication's substreams
and measure one estimate's distance from the truth.

`fmt_cell` formats one CSV cell on its own, the reference for the CLI's
column renderer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.special import ndtr

from lodcdf import (
    AllCensoredError,
    Dataset,
    InvalidParameterError,
    SimConfig,
    StepCdf,
    TallyTable,
    product_limit_cdf,
    rhr_mle_cdf,
    substream,
    tally,
)
from lodcdf.simulation import CENSORING_DRAWS, LIFETIME_DRAWS, _lognormal


@dataclass(frozen=True)
class OracleRow:
    value: float
    d: int  # exact observations at this value
    q: int  # censored observations at this value
    y: int  # observations at or below this value


def tally_pairs(pairs) -> list[OracleRow]:
    """Sorted per-distinct-value counts with running cumulative."""
    counts: dict[float, list[int]] = {}
    for value, detected in pairs:
        row = counts.setdefault(float(value), [0, 0])
        row[0 if detected else 1] += 1
    rows = []
    y = 0
    for value in sorted(counts):
        d, q = counts[value]
        y += d + q
        rows.append(OracleRow(value, d, q, y))
    return rows


def _suffix_products(rows, factor) -> tuple[list[Fraction], Fraction]:
    """(levels at each exact value, level below the first), exact arithmetic.

    `factor(row)` gives the conditional-survival factor of one exact row;
    level k is the product of the factors strictly above exact row k.
    """
    exact = [r for r in rows if r.d >= 1]
    levels = []
    acc = Fraction(1)
    for row in reversed(exact):
        levels.append(acc)
        acc *= factor(row)
    levels.reverse()
    return levels, acc


def pl_cdf(pairs) -> tuple[list[tuple[float, Fraction]], Fraction]:
    """Product-limit CDF over all rows: factors 1 - d/y (censored-only rows
    contribute a factor of exactly 1, so the all-rows and exact-rows forms
    agree identically)."""
    rows = tally_pairs(pairs)
    levels, lower = _suffix_products(rows, lambda r: 1 - Fraction(r.d, r.y))
    exact = [r for r in rows if r.d >= 1]
    return [(r.value, lv) for r, lv in zip(exact, levels)], lower


def rhr_cdf(pairs) -> tuple[list[tuple[float, Fraction]], Fraction]:
    """Reversed-hazard-rate MLE CDF: factors 1 - d/(y - q)."""
    rows = tally_pairs(pairs)
    levels, lower = _suffix_products(rows, lambda r: 1 - Fraction(r.d, r.y - r.q))
    exact = [r for r in rows if r.d >= 1]
    return [(r.value, lv) for r, lv in zip(exact, levels)], lower


def greenwood_var(pairs) -> list[Fraction]:
    """Greenwood variance at each exact value: F² · sum_{above} d/(y(y-d))."""
    rows = tally_pairs(pairs)
    exact = [r for r in rows if r.d >= 1]
    jumps, _ = pl_cdf(pairs)
    out = []
    for k, (_, f) in enumerate(jumps):
        s = sum(
            (Fraction(r.d, r.y * (r.y - r.d)) for r in exact[k + 1 :]),
            Fraction(0),
        )
        out.append(f * f * s)
    return out


def greenwood_lower(pairs) -> Fraction | None:
    """Greenwood variance below the first exact value, or None when the
    first exact row has y == d (the 0·inf sentinel case)."""
    rows = tally_pairs(pairs)
    exact = [r for r in rows if r.d >= 1]
    if exact[0].y == exact[0].d:
        return None
    _, lower = pl_cdf(pairs)
    s = sum((Fraction(r.d, r.y * (r.y - r.d)) for r in exact), Fraction(0))
    return lower * lower * s


def rhr_var(pairs) -> list[Fraction]:
    """Delta-method variance at each exact value:
    F⁽¹⁾² · sum_{above} d_j/(y_prev (y_j - q_j)), y_prev the cumulative
    count at the previous exact value."""
    rows = tally_pairs(pairs)
    exact = [r for r in rows if r.d >= 1]
    jumps, _ = rhr_cdf(pairs)
    out = []
    for k, (_, f) in enumerate(jumps):
        s = Fraction(0)
        for j in range(k + 1, len(exact)):
            y_prev = exact[j - 1].y
            s += Fraction(exact[j].d, y_prev * (exact[j].y - exact[j].q))
        out.append(f * f * s)
    return out


def rhr_rates(pairs) -> list[tuple[float, Fraction]]:
    rows = tally_pairs(pairs)
    return [(r.value, Fraction(r.d, r.y - r.q)) for r in rows if r.d >= 1]


def crhf_exponent(pairs) -> list[tuple[float, Fraction]]:
    """The exact sum inside exp(-...) at each exact value."""
    rows = tally_pairs(pairs)
    exact = [r for r in rows if r.d >= 1]
    out = []
    for k in range(len(exact)):
        s = sum((Fraction(r.d, r.y) for r in exact[k + 1 :]), Fraction(0))
        out.append((exact[k].value, s))
    return out


def mean(pairs, policy: str) -> Fraction:
    jumps, lower = pl_cdf(pairs)
    total = Fraction(0)
    prev = lower
    for value, f in jumps:
        total += Fraction(value) * (f - prev)
        prev = f
    if policy == "at-first-exact":
        total += Fraction(jumps[0][0]) * lower
    elif policy != "at-zero":
        raise ValueError(policy)
    return total


def known_below(row: OracleRow, nondetect: str) -> int:
    """How many observations are known to lie strictly below a jump value:
    those at smaller values, plus its tied nondetects when a nondetect at
    L means X < L (``nondetect="X<L"``), but not when it means X <= L
    (``"X<=L"``)."""
    if nondetect not in ("X<L", "X<=L"):
        raise ValueError(f"unknown nondetect reading {nondetect!r}")
    return row.y - row.d - (row.q if nondetect == "X<=L" else 0)


def loglik_term(row: OracleRow, r, nondetect: str):
    """One coordinate of the log-likelihood of the reversed-hazard
    factorization, d log r + b log(1 - r) with b = ``known_below``,
    elementwise over an array r; the b term is left out when b = 0, so
    r = 1 is allowed there."""
    below = known_below(row, nondetect)
    out = row.d * np.log(r)
    return out + below * np.log1p(-r) if below else out


def curvature(row: OracleRow) -> Fraction:
    """Closed-form second derivative of that coordinate at its maximizer."""
    a = row.y - row.q
    return -Fraction(a**3, row.d * (row.y - row.d - row.q))


def km_survival(times: np.ndarray, events: np.ndarray) -> SimpleNamespace:
    """Kaplan-Meier survival from right-censored data, as ``.times`` (the
    distinct event times) and ``.survival`` (the curve after each).

    Ties between events and censorings are resolved events-first: an
    observation censored exactly at an event time still counts as at risk
    there (equivalently, its censoring happens just after the events).
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if times.size != events.size or times.size == 0:
        raise ValueError("times and events must share a positive length")
    event_times, deaths = np.unique(times[events], return_counts=True)
    if event_times.size == 0:
        raise ValueError("no events: survival curve has no steps")
    # at risk at u: everything with time >= u, censored-at-u included
    at_risk = times.size - np.searchsorted(np.sort(times), event_times, side="left")
    return SimpleNamespace(times=event_times, survival=np.cumprod(1.0 - deaths / at_risk))


def km_negation_oracle(dataset: Dataset) -> StepCdf:
    """Product-limit CDF obtained via Kaplan-Meier on the negated sample.

    Negating a left-censored sample turns it into a right-censored one with
    the detection flags as event indicators; the survival estimate just
    below -t, read back, is a CDF estimate for the original sample. With
    the events-first tie rule this reproduces the product-limit estimator
    factor for factor.
    """
    curve = km_survival(-dataset.values(), dataset.detected())
    # curve.times ascending in negated time = descending original values
    support = -curve.times[::-1]
    before = np.concatenate(([1.0], curve.survival[:-1]))
    return StepCdf(support, before[::-1], float(curve.survival[-1]), "km-negation")


def perturb_censored_ties(dataset: Dataset, epsilon: float | None = None) -> Dataset:
    """Move censored values tied to an exact value up by epsilon.

    A censored bound sitting just above the exact value drops out of that
    value's at-or-below count, which is precisely how the reversed-hazard
    MLE treats such ties. epsilon defaults to half the smallest gap between
    distinct values so no new coincidence can be created.
    """
    values = dataset.values()
    detected = dataset.detected()
    if epsilon is None:
        distinct = np.unique(values)
        if distinct.size > 1:
            epsilon = float(np.min(np.diff(distinct))) / 2.0
        else:
            epsilon = max(1.0, float(distinct[0])) / 2.0
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    tied = ~detected & np.isin(values, values[detected])
    return Dataset(np.where(tied, values + epsilon, values), detected)


@dataclass(frozen=True)
class RhrTable:
    """Reversed-hazard-rate estimates r̂ at every distinct value with an exact count."""

    values: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        rates = np.asarray(self.rates, dtype=np.float64)
        if values.size != rates.size or values.size == 0:
            raise ValueError("values and rates must share a positive length")
        if np.any(rates <= 0) or np.any(rates > 1):
            raise ValueError("each rate must lie in (0, 1]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rates", rates)


def rhr_table(table: TallyTable) -> RhrTable:
    """Reversed-hazard-rate MLEs r̂ = d/(y - q) at each value with d >= 1."""
    values, exact, censored, at_or_below = table.jumps()
    return RhrTable(values, exact / (at_or_below - censored))


def sample_lognormal(mu: float, sigma: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n log-normal(mu, sigma) draws via the inverse normal CDF."""
    if sigma <= 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    return _lognormal(mu, sigma, rng.integers(0, 1 << 53, size=int(n), dtype=np.int64))


def apply_time_censoring(lifetimes: np.ndarray, lods: tuple[float, ...], rng: np.random.Generator) -> Dataset:
    """Censor each lifetime at an LOD drawn uniformly from ``lods``.

    The recorded value is max(T, C) and the observation counts as detected
    when T >= C (a lifetime exactly at its LOD is a detection).
    """
    lifetimes = np.asarray(lifetimes, dtype=np.float64)
    lods = np.asarray(lods, dtype=np.float64)
    if lods.size == 0:
        raise InvalidParameterError("lods must be non-empty")
    drawn = lods[rng.integers(0, lods.size, size=lifetimes.size)]
    return Dataset(np.maximum(lifetimes, drawn), lifetimes >= drawn)


def apply_random_censoring(lifetimes: np.ndarray, mu_c: float, sigma_c: float, rng: np.random.Generator) -> Dataset:
    """Censor each lifetime at an independent log-normal(mu_c, sigma_c) threshold."""
    lifetimes = np.asarray(lifetimes, dtype=np.float64)
    thresholds = sample_lognormal(mu_c, sigma_c, lifetimes.size, rng)
    return Dataset(np.maximum(lifetimes, thresholds), lifetimes >= thresholds)


def ks_distance(f: StepCdf, mu: float, sigma: float) -> float:
    """Largest |F_lognormal(t) - F̂(t)| over the estimate's jump points."""
    with np.errstate(divide="ignore"):
        z = (np.log(f.support) - mu) / sigma
    return float(np.max(np.abs(ndtr(z) - f.values)))


def _replicate(cfg: SimConfig, grid_point: int, rep: int) -> tuple[float, float] | None:
    """One replication; None when the sample comes out fully censored."""
    rng_t = substream(cfg.seed, rep, LIFETIME_DRAWS, grid_point)
    rng_c = substream(cfg.seed, rep, CENSORING_DRAWS, grid_point)
    lifetimes = sample_lognormal(cfg.mu, cfg.sigma, cfg.n, rng_t)
    try:
        if cfg.scheme == "time":
            dataset = apply_time_censoring(lifetimes, cfg.lods, rng_c)
        else:
            dataset = apply_random_censoring(lifetimes, cfg.mu_c, cfg.sigma_c, rng_c)
    except AllCensoredError:
        return None
    table = tally(dataset)
    f_pl = product_limit_cdf(table)
    f_rhr = rhr_mle_cdf(table)
    return ks_distance(f_pl, cfg.mu, cfg.sigma), ks_distance(f_rhr, cfg.mu, cfg.sigma)


def fmt_cell(x: float | int | None) -> str:
    """One CSV cell: floats to 7 significant digits, NaN as 'unstable',
    integers and flags as integers, None empty."""
    if x is None:
        return ""
    if isinstance(x, (bool, int)):
        return str(int(x))
    if isinstance(x, float) and math.isnan(x):
        return "unstable"
    return format(float(x), ".7g")
