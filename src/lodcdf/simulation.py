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
estimators and their distances row-wise (``_ks_rows``). It shares two steps
with ``tally`` and the estimators: ``data._runs`` sorts every row and
counts its runs, and one ``estimators._tail_products`` call takes both
estimators' suffix products. The factors 1 - d/y and 1 - d/(y - q) it
writes itself, as ``product_limit_cdf`` and ``rhr_mle_cdf`` do. Its
results are bit-identical to fitting each replication on its own, and
identical across runs. Every study number is checked once, on entry, by
``_integer`` or ``_real``. Public names:
``SimConfig``, ``StudyResult``, ``run_study``, ``sweep``, ``substream``,
the two errors (defined in ``data`` with the other error classes, because
``estimate`` raises ``InvalidParameterError`` too). scipy is imported only
inside ``_lognormal`` and ``_ks_rows``, so importing this module loads none.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .data import InvalidParameterError, StudyDegenerateError, _frozen, _runs
from .estimators import _tail_products

# Purpose slots inside a replication's key space.
LIFETIME_DRAWS = 0
CENSORING_DRAWS = 1

_MAX_SEED = 1 << 64
_MAX_REPLICATION = 1 << 44
_MAX_N = 10**8
# Grid points of a sweep: the low key word has 16 bits for them.
_MAX_GRID_POINT = 1 << 16

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
    try:
        real = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int or fraction beyond the float range
        real = math.inf
    if not (math.isfinite(real) and (real > 0 or not positive)):
        raise InvalidParameterError(f"{name} must be a {'positive ' * positive}finite number, got {value!r}")
    return real


def _key(seed: int, replication: int, purpose: int, grid_point: int) -> int:
    """The 128-bit Philox key of one (replication, purpose) cell.

    The key packs (seed, grid_point, replication, purpose) into disjoint
    bit ranges, so distinct cells can never collide: the seed is the high
    64-bit word and (grid_point << 48) | (replication << 4) | purpose the
    low one.
    """
    seed = _integer("seed", seed, 0, _MAX_SEED - 1)
    replication = _integer("replication", replication, 0, _MAX_REPLICATION - 1)
    purpose = _integer("purpose", purpose, 0, 15)
    grid_point = _integer("grid point", grid_point, 0, _MAX_GRID_POINT - 1)
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
    from scipy.special import ndtri

    u = (k.astype(np.float64) + 0.5) / float(1 << 53)
    return np.exp(mu + sigma * ndtri(np.minimum(u, np.nextafter(1.0, 0.0))))


@dataclass(frozen=True)
class SimConfig:
    """One study configuration: lifetime law, censoring scheme, sizes, seed. Each
    number is checked by ``_real`` or ``_integer`` and stored as a float or an int."""

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
        if self.scheme not in ("time", "random"):
            raise InvalidParameterError(f"scheme must be 'time' or 'random', got {self.scheme!r}")
        lods = tuple(_real("each LOD in lods", v, positive=True) for v in self.lods)
        _integer("the number of lods", len(lods), 1, math.inf)
        checked = dict(mu=_real("mu", self.mu), mu_c=_real("mu_c", self.mu_c), lods=lods,
                       sigma=_real("sigma", self.sigma, positive=True),
                       sigma_c=_real("sigma_c", self.sigma_c, positive=True),
                       n=_integer("n", self.n, 2, _MAX_N - 1), m=_integer("m", self.m, 1, _MAX_REPLICATION),
                       seed=_integer("seed", self.seed, 0, _MAX_SEED - 1))
        for name, value in checked.items():
            object.__setattr__(self, name, value)


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
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=dtype)))
        if not self.indices.size == self.ks_product_limit.size == self.ks_rhr_mle.size:
            raise ValueError("pair arrays must share one length")
        _integer("n_degenerate", self.n_degenerate, 0, self.config.m)
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
    block's four outputs in buffer order. Keys are checked by the caller:
    ``SimConfig`` bounds the seed and the replications, ``run_study`` the
    grid point.
    """
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
    ``product_limit_cdf``/``rhr_mle_cdf`` fit, bit for bit: ``data._runs``
    counts the runs as for ``tally``, the jumps are the runs with an exact
    count >= 1 as in ``TallyTable.jumps()``, and ``_tail_products`` runs
    over the same factors in the same order, with factors of exactly 1.0
    at positions that are not jumps. A row without a detected value has no
    jump (has_jump False, distances 0).
    """
    from scipy.special import ndtr

    rows, n = values.shape
    ends, v, d, total = _runs(values, detected)
    jump = d >= 1
    ends, v, d, q = ends[jump], v[jump], d[jump], (total - d)[jump]
    y = ends % n + 1
    factors = np.ones((2, rows * n))
    factors[0, ends] = 1.0 - d / y
    factors[1, ends] = 1.0 - d / (y - q)
    levels, _ = _tail_products(factors.reshape(2, rows, n))
    with np.errstate(divide="ignore"):
        truth = ndtr((np.log(v) - mu) / sigma)
    gaps = np.zeros((2, rows * n))
    gaps[:, ends] = np.abs(truth - levels.reshape(2, -1)[:, ends])
    kpl, krh = gaps.reshape(2, rows, n).max(axis=2)
    return kpl, krh, detected.any(axis=1)


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
        if cfg.scheme == "time":
            lods = np.asarray(cfg.lods, dtype=np.float64)
            thresholds = lods[_bounded_rows(censoring_raw, lods.size, cfg.n, cfg.seed, grid_point, reps)]
        else:
            thresholds = _lognormal(cfg.mu_c, cfg.sigma_c, censoring_raw >> 11)
    for draws, what, mu, sigma in ((lifetimes, "lifetime", "mu", "sigma"),
                                   (thresholds, "censoring threshold", "mu_c", "sigma_c")):
        if not np.all(np.isfinite(draws)):
            raise InvalidParameterError(f"{what} draws overflow to infinity at "
                                        f"{mu}={getattr(cfg, mu)!r}, {sigma}={getattr(cfg, sigma)!r}")
    return _ks_rows(np.maximum(lifetimes, thresholds), lifetimes >= thresholds, cfg.mu, cfg.sigma)


def run_study(cfg: SimConfig, *, grid_point: int = 0, jobs: int = 1) -> StudyResult:
    """Run all m replications of a study configuration, in chunks of
    _CHUNK_CELLS // n rows (at least one).

    ``grid_point`` must be an integer in [0, 65535], checked once per study.
    ``jobs`` must be an integer of at least 1; it is accepted for
    compatibility and the result is the same for any value. Raises
    StudyDegenerateError when every replication is fully censored.
    """
    _integer("jobs", jobs, 1, math.inf)
    grid_point = _integer("grid point", grid_point, 0, _MAX_GRID_POINT - 1)
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
    values = sorted(_real(param, v) for v in grid)
    if not values:
        raise InvalidParameterError("sweep grid must be non-empty")
    if len(values) > _MAX_GRID_POINT:
        raise InvalidParameterError(f"sweep grid is limited to {_MAX_GRID_POINT} points")
    return [run_study(replace(base, **{param: value}), grid_point=position, jobs=jobs)
            for position, value in enumerate(values)]
