"""Monte Carlo comparison of the product-limit and RHR-MLE estimators.

Samples log-normal lifetimes, left-censors them under one of two schemes,
and measures how far each estimated CDF lands from the truth:

* ``time``   -- each unit draws its limit of detection uniformly from a
                fixed list of LODs (default 0.5, 1, 2);
* ``random`` -- the censoring threshold is itself log-normal(mu_c, sigma_c),
                independent of the lifetime.

The distance per replication is the largest absolute gap between the true
CDF and the estimate over the estimate's own jump points, and the study
aggregates the per-replication difference d_ks - d_ks_1 (product-limit
minus RHR-MLE).

Reproducibility contract: every replication owns two counter-based Philox
substreams (lifetime draws and censoring draws), keyed by
(seed, grid_point, replication, purpose). Results are therefore identical
across runs and across worker counts. Normal variates come from the
inverse CDF applied to centered 53-bit uniforms, so the documented
recipe can be replayed in another language (statistically, not bit-exactly).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from .data import AllCensoredError, Dataset, tally
from .estimators import StepCdf, product_limit_cdf, rhr_mle_cdf

# Purpose slots inside a replication's key space.
LIFETIME_DRAWS = 0
CENSORING_DRAWS = 1

_MAX_SEED = 1 << 64
_MAX_REPLICATION = 1 << 44
_MAX_GRID_POINT = 1 << 16


class InvalidParameterError(ValueError):
    """A study parameter is outside its allowed range."""


class StudyDegenerateError(RuntimeError):
    """Every replication of a study came out fully censored."""


def substream(seed: int, replication: int, purpose: int, grid_point: int = 0) -> np.random.Generator:
    """Independent generator for one (replication, purpose) cell of a study.

    The Philox key packs (seed, grid_point, replication, purpose) into
    disjoint bit ranges, so distinct cells can never collide and any cell
    can be regenerated in isolation.
    """
    seed = int(seed)
    replication = int(replication)
    purpose = int(purpose)
    grid_point = int(grid_point)
    if not 0 <= seed < _MAX_SEED:
        raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= replication < _MAX_REPLICATION:
        raise InvalidParameterError(f"replication index out of range: {replication}")
    if not 0 <= purpose < 16:
        raise InvalidParameterError(f"purpose must lie in [0, 16), got {purpose}")
    if not 0 <= grid_point < _MAX_GRID_POINT:
        raise InvalidParameterError(f"grid point index out of range: {grid_point}")
    key = (seed << 64) | (grid_point << 48) | (replication << 4) | purpose
    return np.random.Generator(np.random.Philox(key=key))


def sample_lognormal(mu: float, sigma: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n log-normal(mu, sigma) draws via the inverse normal CDF.

    Uniforms are (k + 1/2) / 2^53 for a 53-bit integer k, which keeps the
    quantile function away from both endpoints.
    """
    if sigma <= 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    k = rng.integers(0, 1 << 53, size=int(n), dtype=np.int64)
    u = (k.astype(np.float64) + 0.5) / float(1 << 53)
    return np.exp(mu + sigma * ndtri(u))


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
    return Dataset.from_arrays(np.maximum(lifetimes, drawn), lifetimes >= drawn)


def apply_random_censoring(lifetimes: np.ndarray, mu_c: float, sigma_c: float, rng: np.random.Generator) -> Dataset:
    """Censor each lifetime at an independent log-normal(mu_c, sigma_c) threshold."""
    lifetimes = np.asarray(lifetimes, dtype=np.float64)
    thresholds = sample_lognormal(mu_c, sigma_c, lifetimes.size, rng)
    return Dataset.from_arrays(np.maximum(lifetimes, thresholds), lifetimes >= thresholds)


def ks_distance(f: StepCdf, mu: float, sigma: float) -> float:
    """Largest |F_lognormal(t) - F̂(t)| over the estimate's jump points."""
    with np.errstate(divide="ignore"):
        z = (np.log(f.support) - mu) / sigma
    return float(np.max(np.abs(ndtr(z) - f.values)))


@dataclass(frozen=True)
class SimConfig:
    """One study configuration: lifetime law, censoring scheme, sizes, seed."""

    mu: float
    sigma: float
    scheme: str = "time"
    lods: tuple[float, ...] = (0.5, 1.0, 2.0)
    mu_c: float = 0.0
    sigma_c: float = 1.0
    n: int = 50
    m: int = 1000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "lods", tuple(float(v) for v in self.lods))
        object.__setattr__(self, "mu_c", float(self.mu_c))
        object.__setattr__(self, "sigma_c", float(self.sigma_c))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "seed", int(self.seed))
        if not math.isfinite(self.mu):
            raise InvalidParameterError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidParameterError(f"sigma must be positive and finite, got {self.sigma}")
        if self.scheme not in ("time", "random"):
            raise InvalidParameterError(f"scheme must be 'time' or 'random', got {self.scheme!r}")
        if len(self.lods) == 0 or any(not (math.isfinite(v) and v > 0) for v in self.lods):
            raise InvalidParameterError(f"lods must be non-empty positive reals, got {self.lods}")
        if not math.isfinite(self.mu_c):
            raise InvalidParameterError(f"mu_c must be finite, got {self.mu_c}")
        if not (math.isfinite(self.sigma_c) and self.sigma_c > 0):
            raise InvalidParameterError(f"sigma_c must be positive and finite, got {self.sigma_c}")
        if self.n < 2:
            raise InvalidParameterError(f"n must be at least 2, got {self.n}")
        if self.m < 1:
            raise InvalidParameterError(f"m must be at least 1, got {self.m}")
        if not 0 <= self.seed < _MAX_SEED:
            raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class StudyResult:
    """Per-replication KS distances for both estimators, plus the skip count.

    ``indices[i]`` is the replication that produced the i-th pair, so
    pairs stay keyed by replication regardless of execution order;
    len(indices) + n_degenerate == m.
    """

    config: SimConfig
    indices: np.ndarray
    ks_product_limit: np.ndarray
    ks_rhr_mle: np.ndarray
    n_degenerate: int
    grid_point: int = 0

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        kpl = np.asarray(self.ks_product_limit, dtype=np.float64)
        krh = np.asarray(self.ks_rhr_mle, dtype=np.float64)
        if not indices.size == kpl.size == krh.size:
            raise ValueError("pair arrays must share one length")
        if indices.size + self.n_degenerate != self.config.m:
            raise ValueError("pairs plus degenerate replications must count to m")
        for a in (indices, kpl, krh):
            a.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "ks_product_limit", kpl)
        object.__setattr__(self, "ks_rhr_mle", krh)

    @property
    def n_pairs(self) -> int:
        return int(self.indices.size)

    @property
    def diffs(self) -> np.ndarray:
        """Per-replication d_ks - d_ks_1 (product-limit minus RHR-MLE)."""
        return self.ks_product_limit - self.ks_rhr_mle

    @property
    def mean_diff(self) -> float:
        return float(np.mean(self.diffs))

    @property
    def se_diff(self) -> float:
        """Standard error of mean_diff; NaN when fewer than 2 pairs."""
        if self.n_pairs < 2:
            return float("nan")
        return float(np.std(self.diffs, ddof=1) / math.sqrt(self.n_pairs))


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


def _studies(points: list[tuple[int, SimConfig]], jobs: int) -> list[StudyResult]:
    """Run one study per (grid_point, cfg), all through one worker pool.

    Replications are independent and come back in replication order from
    either map, so the result does not depend on the worker count. Workers
    are capped at the CPU count and the largest m. Raises
    StudyDegenerateError when every replication of a study is fully
    censored.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1, max(cfg.m for _, cfg in points))
    results = []
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for grid_point, cfg in points:
            replicate = partial(_replicate, cfg, grid_point)
            reps = range(cfg.m)
            if pool is None:
                pairs = map(replicate, reps)
            else:
                pairs = pool.map(replicate, reps, chunksize=math.ceil(cfg.m / workers))
            kept = [(rep, *pair) for rep, pair in enumerate(pairs) if pair is not None]
            if not kept:
                raise StudyDegenerateError(
                    f"all {cfg.m} replications were fully censored; no estimator is defined"
                )
            indices, kpl, krh = zip(*kept)
            results.append(StudyResult(cfg, indices, kpl, krh, cfg.m - len(kept), grid_point=grid_point))
    return results


def run_study(cfg: SimConfig, *, grid_point: int = 0, jobs: int = 1) -> StudyResult:
    """Run all m replications of a study configuration on up to ``jobs`` workers."""
    return _studies([(grid_point, cfg)], jobs)[0]


def sweep(base: SimConfig, param: str, grid, *, jobs: int = 1) -> list[StudyResult]:
    """One study per grid value of ``param`` ("mu" or "sigma"), ascending.

    Each grid position gets its own key space, so studies stay independent
    and a sweep of length 1 reproduces run_study on that point exactly.
    """
    if param not in ("mu", "sigma"):
        raise InvalidParameterError(f"sweep parameter must be 'mu' or 'sigma', got {param!r}")
    values = [float(v) for v in grid]
    if not values:
        raise InvalidParameterError("sweep grid must be non-empty")
    if len(values) > _MAX_GRID_POINT:
        raise InvalidParameterError(f"sweep grid is limited to {_MAX_GRID_POINT} points")
    values.sort()
    points = [(position, replace(base, **{param: value})) for position, value in enumerate(values)]
    return _studies(points, jobs)
