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
(seed, grid_point, replication, purpose); ``substream`` is the recipe.
Normal variates come from the inverse CDF applied to the 53-bit lattice
uniforms (k + 1/2) / 2^53 (see ``_lognormal``), so the recipe can be
replayed in another language (statistically, not bit-exactly).

The study engine runs the replications in chunks of rows, one row per
replication, in one process. It evaluates Philox4x64-10 over all of a
chunk's keys at once (``_philox_words``) and turns the raw words into the
draws ``substream(...).integers`` makes: the 53-bit integers are the top
bits of each word, and a limit-of-detection index is Lemire's bounded
draw on a word's 32-bit halves; the rare row whose bounded draw would be
rejected and redrawn is drawn through ``substream`` itself. The engine
then transforms and censors the whole chunk at once, and computes both
estimators and their distances row-wise through the code ``tally`` and
the estimators run on one sample: ``data._runs`` sorts and groups every
row, and ``estimators._tail_products`` takes the suffix products along
the rows. Its results are therefore bit-identical to fitting each
replication on its own, and identical across runs. Public names:
``SimConfig``, ``StudyResult``, ``run_study``, ``sweep``, ``substream``,
the two errors (defined in ``data``, so the CLI can map them to exit codes
without loading scipy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .data import _MAX_GRID_POINT, InvalidParameterError, StudyDegenerateError, _frozen, _runs
from .estimators import _tail_products

# Purpose slots inside a replication's key space.
LIFETIME_DRAWS = 0
CENSORING_DRAWS = 1

_MAX_SEED = 1 << 64
_MAX_REPLICATION = 1 << 44
_MAX_N = 10**8

# Cells (replications x sample size) per chunk of the study engine; a
# chunk holds at least one replication. Larger chunks make fewer numpy
# calls per replication but hold more memory: for an n=50 study in a fresh
# process, peak RSS is 54.5 MB at 4,096 cells, 56.3 MB at 16,384 and
# 62.0 MB at 65,536.
_CHUNK_CELLS = 16384

# Philox4x64-10 (Salmon et al., SC 2011): round multipliers and key bumps.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_BUMP0 = 0x9E3779B97F4A7C15
_PHILOX_BUMP1 = 0xBB67AE8584CAA73B
_LOW32 = 0xFFFFFFFF


def _key(seed: int, replication: int, purpose: int, grid_point: int) -> int:
    """The 128-bit Philox key of one (replication, purpose) cell.

    The key packs (seed, grid_point, replication, purpose) into disjoint
    bit ranges, so distinct cells can never collide: the seed is the high
    64-bit word and (grid_point << 48) | (replication << 4) | purpose the
    low one.
    """
    seed, replication, purpose, grid_point = map(int, (seed, replication, purpose, grid_point))
    if not 0 <= seed < _MAX_SEED:
        raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= replication < _MAX_REPLICATION:
        raise InvalidParameterError(f"replication index out of range: {replication}")
    if not 0 <= purpose < 16:
        raise InvalidParameterError(f"purpose must lie in [0, 16), got {purpose}")
    if not 0 <= grid_point < _MAX_GRID_POINT:
        raise InvalidParameterError(f"grid point index out of range: {grid_point}")
    return (seed << 64) | (grid_point << 48) | (replication << 4) | purpose


def substream(seed: int, replication: int, purpose: int, grid_point: int = 0) -> np.random.Generator:
    """Independent generator for one (replication, purpose) cell of a study.

    Any cell can be regenerated in isolation: this is the generator whose
    draws the study engine uses for that cell.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, replication, purpose, grid_point)))


def _lognormal(mu: float, sigma: float, k: np.ndarray) -> np.ndarray:
    """Log-normal(mu, sigma) values of 53-bit integers k, elementwise.

    Uniforms are (k + 1/2) / 2^53, clamped below 1.0 so k = 2^53 - 1 keeps
    a finite quantile. For k >= 2^52, k + 1/2 rounds to an integer: the
    upper half of the lattice is not centred, kept so for existing outputs.
    """
    u = (k.astype(np.float64) + 0.5) / float(1 << 53)
    return np.exp(mu + sigma * ndtri(np.minimum(u, np.nextafter(1.0, 0.0))))


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
        for name, kind in (("mu", float), ("sigma", float), ("mu_c", float), ("sigma_c", float),
                           ("n", int), ("m", int), ("seed", int)):
            value = getattr(self, name)
            if kind is int and not float(value).is_integer():  # NaN and inf too
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, kind(value))
        object.__setattr__(self, "lods", tuple(float(v) for v in self.lods))
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
        if self.n >= _MAX_N:
            raise InvalidParameterError(f"n must be below {_MAX_N}, got {self.n}")
        if self.m < 1:
            raise InvalidParameterError(f"m must be at least 1, got {self.m}")
        if self.m > _MAX_REPLICATION:
            raise InvalidParameterError(f"m must be at most 2**44, got {self.m}")
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
        for name, dtype in (("indices", np.int64), ("ks_product_limit", np.float64),
                            ("ks_rhr_mle", np.float64)):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=dtype)))
        if not self.indices.size == self.ks_product_limit.size == self.ks_rhr_mle.size:
            raise ValueError("pair arrays must share one length")
        if self.indices.size + self.n_degenerate != self.config.m:
            raise ValueError("pairs plus degenerate replications must count to m")

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


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * m, elementwise.

    numpy has no 64x64 -> 128-bit multiply, so the high word is assembled
    from the four products of 32-bit halves.
    """
    a0, a1 = a & _LOW32, a >> 32
    m0, m1 = m & _LOW32, m >> 32
    cross0, cross1 = a0 * m1, a1 * m0
    carry = ((a0 * m0) >> 32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return a1 * m1 + (cross0 >> 32) + (cross1 >> 32) + (carry >> 32), a * m


def _philox_words(seed: int, grid_point: int, reps: range, purposes: tuple[int, ...],
                  words: int) -> np.ndarray:
    """The first ``words`` raw outputs of every (purpose, replication) cell.

    Element [p, r] of the (len(purposes), len(reps), words) uint64 result
    equals ``substream(seed, reps[r], purposes[p], grid_point)
    .bit_generator.random_raw(words)``: numpy's Philox4x64-10 with key
    words (low, high) from ``_key``, counters 1, 2, ... in word 0, and each
    block's four outputs in buffer order. Keys are checked like
    ``substream``'s, at both ends of ``reps``.
    """
    for purpose in purposes:
        for rep in (reps[0], reps[-1]):
            _key(seed, rep, purpose, grid_point)
    blocks = -(-words // 4)
    # Axes (purpose, replication, block): the early rounds broadcast over
    # only the axes their inputs vary on.
    low = np.arange(reps.start, reps.stop, dtype=np.uint64) << 4 | grid_point << 48
    k0 = (low | np.array(purposes, dtype=np.uint64)[:, None])[..., None]
    k1 = np.full((1, 1, 1), seed, dtype=np.uint64)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(1, dtype=np.uint64)
    for round_ in range(10):
        if round_:
            k0, k1 = k0 + _PHILOX_BUMP0, k1 + _PHILOX_BUMP1
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    out = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
    return out.reshape(len(purposes), len(reps), 4 * blocks)[..., :words]


def _lemire_threshold(k: int) -> int:
    """Leftover below which Lemire's 32-bit draw in [0, k) rejects."""
    return ((1 << 32) - k) % k


def _bounded_rows(raw: np.ndarray, k: int, n: int, seed: int, grid_point: int,
                  reps: range) -> np.ndarray:
    """``substream(seed, rep, CENSORING_DRAWS, grid_point).integers(0, k, size=n)``
    per row, from each row's raw censoring words.

    numpy draws a 32-bit range with Lemire's method on the halves of each
    word, low half first. A draw whose leftover falls below the threshold
    is rejected and redrawn, which shifts every later draw of its row, so
    such a row (odds below k/2^32 per draw) is drawn through ``substream``.
    """
    halves = np.stack((raw & _LOW32, raw >> 32), axis=-1).reshape(raw.shape[0], -1)[:, :n]
    product = halves * np.uint64(k)
    out = (product >> 32).astype(np.intp)
    for row in np.flatnonzero(((product & _LOW32) < _lemire_threshold(k)).any(axis=1)):
        out[row] = substream(seed, reps[row], CENSORING_DRAWS, grid_point).integers(0, k, size=n)
    return out


def _ks_rows(values: np.ndarray, detected: np.ndarray, mu: float, sigma: float
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both estimators' KS distances for each row of a (rows, n) sample.

    Returns (product-limit, RHR-MLE, has_jump). Each row gets the largest
    gap |F(t) - F̂(t)| over the jumps of its ``tally`` and
    ``product_limit_cdf``/``rhr_mle_cdf`` fit, bit for bit: rows are
    grouped by ``data._runs`` as in ``tally``, the per-value counts d, q
    and y are formed as in ``TallyTable.jumps()``, the factors use the same
    expressions, and ``estimators._tail_products`` runs over the same
    factors in the same order, with exact factors of 1.0 at positions that
    are not jumps.
    A row without a detected value has no jump (has_jump False, distances
    0).
    """
    rows, n = values.shape
    v, exact_cum, last = _runs(values, detected)
    at_or_below = np.broadcast_to(np.arange(1, n + 1), (rows, n))
    # The last position of each distinct value carries that value's counts.
    prev_exact = np.zeros_like(exact_cum)
    prev_exact[:, 1:] = np.maximum.accumulate(np.where(last, exact_cum, 0), axis=1)[:, :-1]
    prev_total = np.zeros_like(exact_cum)
    prev_total[:, 1:] = np.maximum.accumulate(np.where(last, at_or_below, 0), axis=1)[:, :-1]
    jump = last & (exact_cum > prev_exact)
    d = (exact_cum - prev_exact)[jump]
    y = at_or_below[jump]
    q = y - prev_total[jump] - d
    with np.errstate(divide="ignore"):
        truth = ndtr((np.log(v[jump]) - mu) / sigma)
    out = []
    for factors in (1.0 - d / y, 1.0 - d / (y - q)):
        full = np.ones((rows, n))
        full[jump] = factors
        levels, _ = _tail_products(full)
        gaps = np.zeros((rows, n))
        gaps[jump] = np.abs(truth - levels[jump])
        out.append(gaps.max(axis=1))
    return out[0], out[1], jump.any(axis=1)


def _chunk(cfg: SimConfig, grid_point: int, reps: range
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replications ``reps`` of a study as rows: (KS product-limit, KS RHR-MLE, kept)."""
    lifetime_raw, censoring_raw = _philox_words(
        cfg.seed, grid_point, reps, (LIFETIME_DRAWS, CENSORING_DRAWS), cfg.n)
    # integers(0, 2**53) is the top 53 bits of a word: Lemire's method never
    # rejects for a power-of-two range. Overflow is reported below, naming
    # the parameters, not warned about.
    with np.errstate(over="ignore"):
        lifetimes = _lognormal(cfg.mu, cfg.sigma, lifetime_raw >> 11)
    if not np.all(np.isfinite(lifetimes)):
        raise InvalidParameterError(
            f"lifetime draws overflow to infinity at mu={cfg.mu!r}, sigma={cfg.sigma!r}")
    if cfg.scheme == "time":
        lods = np.asarray(cfg.lods, dtype=np.float64)
        thresholds = lods[_bounded_rows(censoring_raw, lods.size, cfg.n, cfg.seed, grid_point, reps)]
    else:
        with np.errstate(over="ignore"):
            thresholds = _lognormal(cfg.mu_c, cfg.sigma_c, censoring_raw >> 11)
        if not np.all(np.isfinite(thresholds)):
            raise InvalidParameterError(
                f"censoring threshold draws overflow to infinity at "
                f"mu_c={cfg.mu_c!r}, sigma_c={cfg.sigma_c!r}")
    return _ks_rows(np.maximum(lifetimes, thresholds), lifetimes >= thresholds, cfg.mu, cfg.sigma)


def run_study(cfg: SimConfig, *, grid_point: int = 0, jobs: int = 1) -> StudyResult:
    """Run all m replications of a study configuration, in chunks of
    _CHUNK_CELLS // n rows (at least one).

    ``jobs`` must be at least 1; it is accepted for compatibility and the
    result is the same for any value. Raises StudyDegenerateError when
    every replication is fully censored.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be at least 1, got {jobs}")
    step = max(1, _CHUNK_CELLS // cfg.n)
    chunks = [_chunk(cfg, grid_point, range(start, min(start + step, cfg.m)))
              for start in range(0, cfg.m, step)]
    kpl, krh, kept = (np.concatenate(parts) for parts in zip(*chunks))
    if not np.any(kept):
        raise StudyDegenerateError(
            f"all {cfg.m} replications were fully censored; no estimator is defined"
        )
    indices = np.flatnonzero(kept)
    return StudyResult(cfg, indices, kpl[kept], krh[kept], cfg.m - indices.size, grid_point=grid_point)


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
    return [run_study(replace(base, **{param: value}), grid_point=position, jobs=jobs)
            for position, value in enumerate(values)]
