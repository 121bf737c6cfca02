"""Exact event-driven simulation and Monte Carlo estimators.

Paths are simulated without discretization error: jump epochs come from
exponential inter-arrivals, factors decay in closed form between jumps,

    X_k(t) = x_k e^{-lam t} + sigma_k sum_{u_j <= t} e^{-lam (t - u_j)} z_j,

and the integrated short rate is evaluated exactly through its Volterra
representation

    I_t = int_0^t mu(s) ds - sum_k x_k B_k(0,t)
          - sum_k sum_{u_j <= t} sigma_k B_k(u_j, t) z_j.

Every estimator in this module is the independent oracle for an analytic
formula elsewhere in the library, so the random-number contract is strict.
Draws come from a Philox4x32-10 counter-based generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) keyed by the seed.
Jump j of (path p, factor k) always reads counter block (j, p, k, 0), whose
four words give that jump's exponential gap and its size.  Hence:

* a path's record depends only on (seed, path, factor): results are the
  same however many paths run and however they are chunked;
* records are nested across horizons: the record on [0, 1] is the record
  on [0, 10] cut at 1, times and sizes alike;
* :func:`simulate_jumps` and :func:`simulate_path` draw one path through the
  same kernel the estimators batch, so their records are bit-identical.

The estimators draw whole chunks of paths at once, a fixed number of counter
blocks per chunk so that memory stays bounded whatever the path count, and
reduce every path to weighted jump sums  sum_{u_j <= t} w(t - u_j) z_j.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .curves import bond_B, bond_price, cumulant_time_integral, tilted_time_integral
from .model import GammaJumpMeasure, ModelSpec

__all__ = [
    "JumpRecord",
    "SimulatedPath",
    "MonteCarloEstimate",
    "simulate_jumps",
    "evolve_factor",
    "simulate_path",
    "integrated_rate",
    "bond_path",
    "hjm_forward_path",
    "mc_bond_price",
    "mc_bond_curve",
    "mc_discounted_bond",
    "mc_option_price",
    "mc_short_rate_samples",
    "export_paths_csv",
    "export_jumps_csv",
]

# counter blocks drawn per chunk of paths: bounds the working set at a few MB
_CHUNK = 1 << 14
_WORD = np.uint64(0xFFFFFFFF)
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
# shift counts as uint64: under NumPy 1.x promotion a uint64 scalar shifted by
# a Python int becomes float64, which cannot be shifted
_S5, _S6, _S26, _S32 = (np.uint64(s) for s in (5, 6, 26, 32))


@dataclass(frozen=True)
class JumpRecord:
    """Jump epochs and matched positive jump sizes of one factor's driver."""

    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        sizes = np.asarray(self.sizes, dtype=float)
        if times.shape != sizes.shape or times.ndim != 1:
            raise ValueError("times and sizes must be 1-d arrays of equal length")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if np.any(sizes <= 0):
            raise ValueError("jump sizes must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sizes", sizes)

    @property
    def count(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class SimulatedPath:
    """One exact path: jump records plus trajectories on an evaluation grid."""

    grid: np.ndarray
    jumps: tuple
    factors: np.ndarray
    short_rate: np.ndarray
    integrated: np.ndarray


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    std_error: float
    n_paths: int


def _check_seed(seed) -> int:
    """The seed as an int; ValueError unless it is an integer in [0, 2**64)."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _key(seed) -> tuple:
    """Philox round keys of a seed: its two words, bumped per round."""
    seed = _check_seed(seed)
    k0, k1 = seed & 0xFFFFFFFF, seed >> 32
    return tuple(
        (np.uint64((k0 + r * _PHILOX_W[0]) & 0xFFFFFFFF),
         np.uint64((k1 + r * _PHILOX_W[1]) & 0xFFFFFFFF))
        for r in range(10)
    )


def _philox(c0, c1, c2, c3, key):
    """Philox4x32-10 block function on uint64 arrays holding 32-bit words.

    The four counter words broadcast against each other; ``key`` holds the
    round keys from :func:`_key`.  Each product of two 32-bit words is exact
    in 64 bits.
    """
    m0, m1 = _PHILOX_M
    for k0, k1 in key:
        p0, p1 = m0 * c0, m1 * c2
        c0, c1, c2, c3 = (p1 >> _S32) ^ c1 ^ k0, p1 & _WORD, (p0 >> _S32) ^ c3 ^ k1, p0 & _WORD
    return c0, c1, c2, c3


def _uniform(hi, lo):
    """53-bit uniforms on [0, 1) from two 32-bit words."""
    return ((hi >> _S5) << _S26 | lo >> _S6).astype(float) * 2.0**-53


def _jump_blocks(measure: GammaJumpMeasure, horizon: float, key, factor_index: int, paths: range):
    """Jump records of a range of path indices, drawn in 2-d blocks.

    Yields ``(rows, times, sizes)``: row i of ``times``/``sizes`` holds
    consecutive jumps of ``paths[rows[i]]``, times beyond the horizon
    included.  A block is about three standard deviations wider than the
    mean jump count; only rows whose last time is still within the horizon
    draw another.  Each row accumulates its gaps in sequence, so a jump's
    time does not depend on the block width either.
    """
    mean = measure.alpha * horizon
    if not math.isfinite(mean):
        raise OverflowError(
            f"factor index {factor_index}: expected jump count alpha * horizon overflows "
            f"(alpha={measure.alpha}, horizon={horizon})"
        )
    width = math.ceil(mean + 3.0 * math.sqrt(mean)) + 2
    per_chunk = max(1, _CHUNK // width)
    factor = np.uint64(factor_index)
    for start in range(0, len(paths), per_chunk):
        part = paths[start:start + per_chunk]
        chunk = np.arange(part.start, part.stop, dtype=np.uint64)[:, None]
        rows = np.arange(chunk.size)
        last = np.zeros(chunk.size)
        first = 0
        while rows.size:
            jumps = np.arange(first, first + width, dtype=np.uint64)
            w0, w1, w2, w3 = _philox(jumps, chunk[rows], factor, np.uint64(0), key)
            gaps = -np.log1p(-_uniform(w0, w1)) / measure.alpha
            gaps[:, 0] += last
            times = np.cumsum(gaps, axis=1)
            yield start + rows, times, measure.jump_quantile(_uniform(w2, w3))
            more = times[:, -1] <= horizon
            rows, last, first = rows[more], times[more, -1], first + width


def _jump_weights(factor, times, t, T, kind: str) -> np.ndarray:
    """Weights 1{u_j <= t} w(T - u_j) of jumps at ``times``; t and T broadcast.

    Kind "decay" weighs by e^{-lam (T - u)}, the jump's share of X(T); kind
    "bond" by B(u, T) = (e^{-lam (T - u)} - 1) / lam, its share of the bond
    exponent.  Every pathwise quantity is sigma times these weights
    contracted with the jump sizes.
    """
    x = -factor.lam * np.maximum(T - times, 0.0)
    w = np.exp(x) if kind == "decay" else np.expm1(x) / factor.lam
    return (times <= t) * w


def _jump_sums(spec: ModelSpec, seed: int, n_paths: int, evals) -> np.ndarray:
    """Weighted jump sums of every factor and path, shape (factors, evals, paths).

    Entry (k, m, p) is  sigma_k sum_{u_j <= t} w(t - u_j) z_j  over path p's
    factor-k jumps for the m-th ``(t, kind)`` of ``evals``, with the weights
    of :func:`_jump_weights`: "decay" gives X_k(t), "bond" gives -I_t.
    """
    key = _key(seed)
    horizon = max(t for t, _ in evals)
    out = np.zeros((spec.n_factors, len(evals), n_paths))
    for k, f in enumerate(spec.factors):
        for rows, times, sizes in _jump_blocks(f.measure, horizon, key, k, range(n_paths)):
            for m, (t, kind) in enumerate(evals):
                weights = _jump_weights(f, times, t, t, kind)
                out[k, m, rows] += f.sigma * np.sum(weights * sizes, axis=1)
    return out


def simulate_jumps(
    measure: GammaJumpMeasure,
    horizon: float,
    seed: int,
    path_index: int = 0,
    factor_index: int = 0,
) -> JumpRecord:
    """Exact compound-Poisson record on [0, horizon] of one (seed, path, factor).

    Jump epochs accumulate Exp(alpha) inter-arrivals truncated at the
    horizon; sizes come from the measure's inverse CDF.  The record is the
    one every Monte Carlo estimator uses for that path and factor.
    """
    if horizon <= 0:
        raise ValueError("need horizon > 0")
    if not (0 <= path_index < 1 << 32 and 0 <= factor_index < 1 << 32):
        raise ValueError("path and factor indices must lie in [0, 2**32)")
    path = range(path_index, path_index + 1)
    blocks = list(_jump_blocks(measure, horizon, _key(seed), factor_index, path))
    times = np.concatenate([times[0] for _, times, _ in blocks])
    sizes = np.concatenate([sizes[0] for _, _, sizes in blocks])
    keep = times <= horizon
    return JumpRecord(times=times[keep], sizes=sizes[keep])


def evolve_factor(factor, jumps: JumpRecord, grid) -> np.ndarray:
    """Exact factor trajectory on the grid: decayed start plus decayed jumps."""
    grid = np.asarray(grid, dtype=float)
    x = factor.x0 * np.exp(-factor.lam * grid)
    if jumps.count:
        at = grid[:, None]
        x = x + factor.sigma * _jump_weights(factor, jumps.times, at, at, "decay") @ jumps.sizes
    return x


def _integrated_on_grid(spec: ModelSpec, jumps, grid: np.ndarray) -> np.ndarray:
    total = spec.floor.cumulative(grid)
    at = grid[:, None]
    for f, rec in zip(spec.factors, jumps):
        total -= f.x0 * np.expm1(-f.lam * grid) / f.lam
        if rec.count:
            total -= f.sigma * _jump_weights(f, rec.times, at, at, "bond") @ rec.sizes
    return total


def simulate_path(
    spec: ModelSpec,
    seed: int,
    path_index: int = 0,
    points_per_year: float = 252,
) -> SimulatedPath:
    """Simulate one exact path from the records of (seed, path_index, k) per factor k.

    The evaluation grid unions a regular mesh with every jump epoch, so the
    stored trajectories are exact at the jumps themselves.  The mesh has
    ``round(points_per_year * horizon)`` steps, and at least one, so the grid
    always holds both 0 and the horizon.
    """
    if not 0 < points_per_year < math.inf:
        raise ValueError(f"points_per_year must be finite and positive, got {points_per_year!r}")
    jumps = tuple(
        simulate_jumps(f.measure, spec.horizon, seed, path_index, k)
        for k, f in enumerate(spec.factors)
    )
    steps = max(1, int(round(points_per_year * spec.horizon)))
    mesh = np.linspace(0.0, spec.horizon, steps + 1)
    grid = np.union1d(mesh, np.concatenate([rec.times for rec in jumps]))
    factors = np.vstack([evolve_factor(f, rec, grid) for f, rec in zip(spec.factors, jumps)])
    short_rate = np.asarray(spec.floor.value(grid)) + factors.sum(axis=0)
    integrated = _integrated_on_grid(spec, jumps, grid)
    return SimulatedPath(
        grid=grid,
        jumps=jumps,
        factors=factors,
        short_rate=short_rate,
        integrated=integrated,
    )


def _check_path_time(path: SimulatedPath, t: float, T: float = math.inf) -> None:
    """ValueError unless t is a finite time in the path's grid span and t <= T."""
    # chained comparisons: NaN fails each one
    start, end = path.grid[0], path.grid[-1]
    if not start <= t <= end:
        raise ValueError(
            f"t must be finite and inside the path's grid span [{start}, {end}], got {t!r}"
        )
    if not t <= T:
        raise ValueError(f"need t <= T, got t={t!r}, T={T!r}")


def integrated_rate(spec: ModelSpec, path: SimulatedPath, t: float) -> float:
    """Exact integrated short rate I_t from the path's jump records."""
    _check_path_time(path, t)
    return float(_integrated_on_grid(spec, path.jumps, np.array([float(t)]))[0])


def bond_path(
    spec: ModelSpec,
    path: SimulatedPath,
    t: float,
    T: float,
    method: str = "closed",
) -> float:
    """Pathwise bond price from the stochastic-exponential solution.

    P(t,T) = P(0,T) exp( I_t - sum_k int_0^t cum_k(sigma B_k(s,T)) ds
                         + sum_k sum_{u_j <= t} sigma_k B_k(u_j, T) z_j ),
    which must coincide with the affine formula evaluated at the path's
    state; that identity is the module's central correctness check.
    """
    _check_path_time(path, t, T)
    log_p = math.log(bond_price(spec, 0.0, T, method=method))
    log_p += integrated_rate(spec, path, t)
    for f, rec in zip(spec.factors, path.jumps):
        log_p -= cumulant_time_integral(f, 0.0, t, T, method=method)
        log_p += f.sigma * float(_jump_weights(f, rec.times, t, T, "bond") @ rec.sizes)
    return math.exp(log_p)


def hjm_forward_path(spec: ModelSpec, path: SimulatedPath, t: float, T: float) -> float:
    """Forward rate along a path from its HJM-type jump representation.

    f(t,T) = f(0,T) + sum_k ( sum_{u_j <= t} sigma_k z_j e^{-lam_k (T - u_j)}
                              - tilted compensator over [0, t] ).
    Coincides pathwise with the affine forward-rate formula.
    """
    from .curves import forward_rate

    _check_path_time(path, t, T)
    rate = forward_rate(spec, 0.0, T)
    for f, rec in zip(spec.factors, path.jumps):
        rate -= tilted_time_integral(f, 0.0, t, T)
        rate += f.sigma * float(_jump_weights(f, rec.times, t, T, "decay") @ rec.sizes)
    return float(rate)


def _estimate(values: np.ndarray) -> MonteCarloEstimate:
    n = values.size
    mean = float(np.sum(values) / n)
    if n > 1:
        se = float(np.std(values, ddof=1) / math.sqrt(n))
    else:
        se = float("nan")
    return MonteCarloEstimate(value=mean, std_error=se, n_paths=n)


def _check_mc_args(spec: ModelSpec, T: float, n_paths: int, seed: int) -> None:
    _key(seed)
    if T > spec.horizon:
        raise ValueError("maturity exceeds the model horizon")
    if n_paths < 100:
        raise ValueError("need at least 100 paths")


def _jump_free_integral(spec: ModelSpec, t: float) -> float:
    """I_t on a path without jumps: the floor integral plus the decaying start."""
    return spec.floor.integral(0.0, t) - sum(f.x0 * bond_B(f, 0.0, t) for f in spec.factors)


def _discount_and_bond(spec: ModelSpec, seed: int, n_paths: int, t: float, T: float):
    """Per-path exp(-I_t) and the affine bond price P(t, T) at the state X(t)."""
    sums = _jump_sums(spec, seed, n_paths, [(t, "decay"), (t, "bond")])
    i_t = _jump_free_integral(spec, t) - sums[:, 1].sum(axis=0)
    log_bond = sum(cumulant_time_integral(f, t, T, T) for f in spec.factors)
    log_bond -= spec.floor.integral(t, T)
    for k, f in enumerate(spec.factors):
        log_bond = log_bond + bond_B(f, t, T) * (f.x0 * math.exp(-f.lam * t) + sums[k, 0])
    return np.exp(-i_t), np.exp(log_bond)


def mc_bond_price(spec: ModelSpec, T: float, n_paths: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo bond price: sample mean of exp(-I_T) over exact paths."""
    return mc_bond_curve(spec, [T], n_paths, seed)[0]


def mc_bond_curve(spec: ModelSpec, maturities, n_paths: int, seed: int):
    """Bond-price estimates for several maturities from one shared path set."""
    maturities = [float(T) for T in maturities]
    _check_mc_args(spec, max(maturities), n_paths, seed)
    sums = _jump_sums(spec, seed, n_paths, [(T, "bond") for T in maturities]).sum(axis=0)
    return [
        _estimate(np.exp(jumps - _jump_free_integral(spec, T)))
        for T, jumps in zip(maturities, sums)
    ]


def mc_discounted_bond(
    spec: ModelSpec, t: float, T: float, n_paths: int, seed: int
) -> MonteCarloEstimate:
    """Sample mean of exp(-I_t) P(t,T); a martingale check against P(0,T)."""
    _check_mc_args(spec, T, n_paths, seed)
    if t > T:
        raise ValueError("need t <= T")
    if t == 0.0:
        price = bond_price(spec, 0.0, T)
        return MonteCarloEstimate(value=price, std_error=0.0, n_paths=n_paths)
    discount, bond = _discount_and_bond(spec, seed, n_paths, t, T)
    return _estimate(discount * bond)


def mc_option_price(spec: ModelSpec, option, n_paths: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo call-on-bond price: mean of exp(-I_tau) (P(tau,T) - K)+.

    The bond at expiry is evaluated with the affine formula at the simulated
    state, so this estimator is independent of the Fourier pricer only
    through the pathwise expiry state and discount factor.
    """
    tau, T = option.option_maturity, option.bond_maturity
    _check_mc_args(spec, T, n_paths, seed)
    discount, bond = _discount_and_bond(spec, seed, n_paths, tau, T)
    return _estimate(discount * np.maximum(bond - option.strike, 0.0))


def mc_short_rate_samples(spec: ModelSpec, t: float, n_paths: int, seed: int) -> np.ndarray:
    """Exact samples of r(t), one per path index."""
    _check_mc_args(spec, t, n_paths, seed)
    base = float(spec.floor.value(t)) + sum(
        f.x0 * math.exp(-f.lam * t) for f in spec.factors
    )
    return base + _jump_sums(spec, seed, n_paths, [(t, "decay")]).sum(axis=0)[0]


def _column(values: np.ndarray) -> list:
    """Each value of a float array as ``.17g`` text, formatted from Python floats."""
    return [f"{v:.17g}" for v in values.tolist()]


def export_paths_csv(paths, destination) -> None:
    """Write trajectories as ``path_id,time,factor_index,X,short_rate,integrated_rate``.

    One row per grid point and factor.  Each column of a path is formatted
    once, and each path's rows are written in one piece, so memory holds
    one path's text at a time.
    """
    with open(destination, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("path_id,time,factor_index,X,short_rate,integrated_rate\n")
        for path_id, path in enumerate(paths):
            times = _column(path.grid)
            rates = zip(_column(path.short_rate), _column(path.integrated))
            tails = [f"{r},{i}\n" for r, i in rates]
            factors = [_column(x) for x in path.factors]
            handle.write("".join(
                f"{path_id},{t},{k},{x},{tail}"
                for t, tail, *xs in zip(times, tails, *factors)
                for k, x in enumerate(xs, 1)
            ))


def export_jumps_csv(paths, destination) -> None:
    """Write jump records as ``path_id,factor_index,jump_time,jump_size``."""
    with open(destination, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("path_id,factor_index,jump_time,jump_size\n")
        for path_id, path in enumerate(paths):
            for k, rec in enumerate(path.jumps):
                for t, z in zip(rec.times, rec.sizes):
                    handle.write(f"{path_id},{k + 1},{t:.17g},{z:.17g}\n")
