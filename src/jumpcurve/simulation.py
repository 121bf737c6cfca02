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

The kernel (:func:`_philox`) carries the 32-bit words in uint64 arrays and
splits each 64-bit product into its halves through a uint32 view, so a round
is three ufunc calls on stacked words.  It writes into scratch allocated once
per factor and estimate, and the gaps, sizes, times and weights are computed
in place, by the operations a plain expression would use and in the same
order, so no bit depends on the buffering.

Each estimate is regression-adjusted by a control of known mean (Glasserman,
*Monte Carlo Methods in Financial Engineering*, 2004, section 4.1; see
:func:`_estimate`), and also reports the plain sample mean.  The bond and the
discounted bond are exponentials of a constant plus the jump sum
J = sum_k sigma_k sum_{u_j <= t} B_k(u_j, T) z_j = sum_k eta_k sum B_k E_j, with
z_j = E_j / eps and eta = sigma / eps, which is their control; its mean and
variance come from the jump measure's moments, never from the affine bond
formula those estimates check.  The option's control is the discounted bond
exp(-I_tau) P(tau, T), whose mean is P(0, T).  The README gives the variance
reductions measured on the baseline model.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .curves import _bond_ends, _cumulant_closed, _tilted_closed, bond_B, bond_price, forward_rate
from .model import GammaJumpMeasure, ModelSpec, _check_interval

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
]

# counter blocks drawn per chunk of paths: bounds the working set at a few MB
_CHUNK = 1 << 14


def _const(value, dtype) -> np.ndarray:
    """A read-only array; a 0-d one costs a ufunc about half what a NumPy scalar does."""
    a = np.array(value, dtype)
    a.flags.writeable = False
    return a


# the multipliers of c0 and c2, a column against the stacked words; those are
# uint64 with high halves 0, so the exact 64-bit product needs no cast
_PHILOX_M = _const([[0xD2511F53], [0xCD9E8D57]], np.uint64)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
# index of the high and the low 32-bit half of a uint64 seen as two uint32
_HI, _LO = (1, 0) if sys.byteorder == "little" else (0, 1)
_ZERO, _WORD = _const(0, np.uint64), _const(0xFFFFFFFF, np.uint64)
# shift counts as uint64: under NumPy 1.x promotion a uint64 shifted by a
# signed count becomes float64, which cannot be shifted
_S5, _S6, _S26 = (_const(n, np.uint64) for n in (5, 6, 26))
_MINUS_ULP = _const(-(2.0**-53), float)
# relative spread below which a control is constant up to rounding (see _estimate)
_CONSTANT_SPREAD = 2.0**-40


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
    """A control-variate estimate, with the plain sample mean it improves on.

    ``value`` and ``std_error`` are the regression-adjusted estimate and its
    standard error; ``plain_value`` and ``plain_std_error`` are the sample
    mean and standard error of the same draws without the control, and
    ``beta`` the fitted control coefficient.
    """

    value: float
    std_error: float
    n_paths: int
    plain_value: float = math.nan
    plain_std_error: float = math.nan
    beta: float = 0.0


def _check_seed(seed) -> int:
    """The seed as an int; ValueError unless it is an integer in [0, 2**64)."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _key(seed) -> np.ndarray:
    """Philox round keys of a seed, its two words bumped per round: a (10, 2) uint64 array."""
    seed = _check_seed(seed)
    k0, k1 = seed & 0xFFFFFFFF, seed >> 32
    return np.array([((k0 + r * _PHILOX_W[0]) & 0xFFFFFFFF, (k1 + r * _PHILOX_W[1]) & 0xFFFFFFFF)
                     for r in range(10)], np.uint64)


def _philox(c0, c1, c2, c3, key, work=None):
    """Philox4x32-10 block function on uint64 arrays holding 32-bit words.

    The four counter words broadcast against each other; ``key`` holds the
    round keys from :func:`_key`.  The words c0 and c2 that a round
    multiplies sit stacked in one array, and so do their products, so a
    round is three ufunc calls that allocate nothing: one multiply into one
    of two alternating product buffers, one XOR of the products' high
    halves with the previous products' low halves, and one XOR with the
    round key.  A uint32 view splits each product instead of a shift and a
    mask, and the XOR writes only the low halves of the stacked words, whose
    high halves stay 0 for the next multiply.  ``work`` is uint64 scratch of
    at least six words per block, allocated here when None; the words
    returned are views into it, valid until its next use.
    """
    shape = np.broadcast(c0, c1, c2, c3).shape
    size = math.prod(shape)
    if work is None:
        work = np.empty(6 * size, np.uint64)
    # [0] and [1]: the alternating (p0, p1) products; [2]: (c0, c2).  The
    # rounds run on the block flattened, where a ufunc call costs least.
    words = work[:6 * size].reshape(3, 2, size)
    halves = words[..., None].view(np.uint32)
    high, low = halves[..., _HI], halves[..., _LO]
    stacked, stacked_low = words[2], low[2]
    # the counters broadcast to the block; p1 feeds c0 and p0 feeds c2, and
    # the first round reads c1 and c3 as the previous products' low halves
    block = work[:6 * size].reshape(3, 2, *shape)
    block[2, 0], block[2, 1] = c0, c2
    block_low = block[1, :, ..., None].view(np.uint32)[..., _LO]
    block_low[1], block_low[0] = c1, c3
    # per parity: the products, their high halves, and the previous products' low halves
    rounds = [(words[s], high[s, ::-1], low[1 - s, ::-1]) for s in (0, 1)]
    multiply, xor = np.multiply, np.bitwise_xor
    for r, round_key in enumerate(key[..., None]):
        products, product_high, previous_low = rounds[r & 1]
        multiply(stacked, _PHILOX_M, out=products)
        xor(product_high, previous_low, out=stacked_low)
        xor(stacked, round_key, out=stacked)
    last = np.bitwise_and(words[1], _WORD, out=words[1])
    return (stacked[0].reshape(shape), last[1].reshape(shape),
            stacked[1].reshape(shape), last[0].reshape(shape))


def _exponential(hi, lo, rate: float, out: np.ndarray) -> np.ndarray:
    """Exp(rate) quantiles -log1p(-u) / rate of 53-bit uniforms u, into ``out``.

    u = ((hi >> 5) << 26 | lo >> 6) 2^-53 on [0, 1) from two 32-bit words.
    It is built negated, and a division by -rate equals the negation of
    the division by rate, so each quantile keeps the bits of
    -np.log1p(-u) / rate.  Shifts the words in place.
    """
    np.left_shift(np.right_shift(hi, _S5, out=hi), _S26, out=hi)
    np.bitwise_or(hi, np.right_shift(lo, _S6, out=lo), out=hi)
    np.log1p(np.multiply(hi, _MINUS_ULP, out=out), out=out)
    return np.divide(out, -rate, out=out)


def _jump_blocks(measure: GammaJumpMeasure, horizon: float, key, factor_index: int, paths: range):
    """Jump records of a range of path indices, drawn in 2-d blocks.

    Yields ``(rows, times, draws)``: row i of ``times``/``draws`` holds
    consecutive jumps of ``paths[rows[i]]``, times beyond the horizon
    included, with Exp(1) size draws E, whose E / epsilon keeps an Exp(epsilon)
    quantile's bits.  A block is about three standard deviations wider than the
    mean jump count; only rows whose last time is still within the horizon
    draw another.  Each row accumulates its gaps in sequence, so a jump's
    time does not depend on the block width either.  The arrays yielded
    are new; the kernel's scratch is allocated once per call.
    """
    mean = measure.alpha * horizon
    if not math.isfinite(mean):
        raise OverflowError(
            f"factor index {factor_index}: expected jump count alpha * horizon overflows "
            f"(alpha={measure.alpha}, horizon={horizon})"
        )
    width = math.ceil(mean + 3.0 * math.sqrt(mean)) + 2
    per_chunk = max(1, _CHUNK // width)
    factor = np.array(factor_index, np.uint64)
    work = np.empty(6 * width * min(len(paths), per_chunk), np.uint64)
    for start in range(0, len(paths), per_chunk):
        part = paths[start:start + per_chunk]
        chunk = np.arange(part.start, part.stop, dtype=np.uint64)[:, None]
        rows = np.arange(chunk.size)
        last = np.zeros(chunk.size)
        first = 0
        while rows.size:
            jumps = np.arange(first, first + width, dtype=np.uint64)
            w0, w1, w2, w3 = _philox(jumps, chunk[rows], factor, _ZERO, key, work)
            times = _exponential(w0, w1, measure.alpha, np.empty((rows.size, width)))
            times[:, 0] += last
            np.cumsum(times, axis=1, out=times)
            yield start + rows, times, _exponential(w2, w3, 1.0, np.empty_like(times))
            more = times[:, -1] <= horizon
            rows, last, first = rows[more], times[more, -1], first + width


def _jump_weights(factor, times, t, T, kind: str, out=None) -> np.ndarray:
    """Weights 1{u_j <= t} w(T - u_j) of jumps at ``times``; t and T broadcast.

    Kind "decay" weighs by e^{-lam (T - u)}, the jump's share of X(T); kind
    "bond" by B(u, T) = (e^{-lam (T - u)} - 1) / lam, its share of the bond
    exponent.  Every pathwise quantity is sigma times these weights
    contracted with the jump sizes.  Computed in place in ``out`` when
    given, which must have the weights' shape.

    T - u is capped at 1000 / lam, so lam (T - u) cannot overflow for a
    huge lam.  The cap moves no bit: past it lam (T - u) is about 1000 or
    more, where e^{-lam (T - u)} is 0.0 and e^{-lam (T - u)} - 1 is -1.0
    either way.  A factor outside the model, lam <= 0, gets no cap.
    """
    cap = 1e3 / factor.lam if factor.lam > 0 else math.inf
    x = np.subtract(T, times, out=out)
    x.clip(0.0, cap, out=x)
    x *= -factor.lam
    if kind == "decay":
        np.exp(x, out=x)
    else:
        np.expm1(x, out=x)
        x /= factor.lam
    x *= times <= t
    return x


def _records(spec: ModelSpec, jumps) -> zip:
    """The (factor, record) pairs of a path's records; ValueError unless one per factor.

    The only place a path's jump records meet a model's factors, so a path
    simulated from another model fails here instead of pricing wrong.
    """
    if len(jumps) != spec.n_factors:
        raise ValueError(f"need one jump record per model factor: the path has {len(jumps)}, "
                         f"the model {spec.n_factors}")
    return zip(spec.factors, jumps)


def _path_jump_sum(spec: ModelSpec, path, t: float, T: float, kind: str) -> float:
    """sum_k sigma_k sum_{u_j <= t} w_k(T - u_j) z_j along a path, w of :func:`_jump_weights`."""
    total = 0.0
    for f, rec in _records(spec, path.jumps):
        # .dot is the BLAS dot that @ calls, with less dispatch
        total += f.sigma * float(_jump_weights(f, rec.times, t, T, kind).dot(rec.sizes))
    return total


def _jump_sums(spec: ModelSpec, key, n_paths: int, evals) -> np.ndarray:
    """Weighted jump sums of every factor and path, shape (factors, evals, paths).

    Entry (k, m, p) is  eta_k sum_{u_j <= t} w(t - u_j) E_j  over path p's
    factor-k jumps for the m-th ``(t, kind)`` of ``evals``, with the weights
    of :func:`_jump_weights` and the draws of :func:`_jump_blocks`: "decay"
    gives X_k(t), "bond" gives -I_t.  ``key`` comes from :func:`_key`.  Weights
    and their products with the draws share one buffer per factor, sized by the first block.
    """
    horizon = max(t for t, _ in evals)
    out = np.zeros((spec.n_factors, len(evals), n_paths))
    for k, (f, c) in enumerate(zip(spec.factors, spec._paths)):
        buffer = None
        for rows, times, draws in _jump_blocks(f.measure, horizon, key, k, range(n_paths)):
            if buffer is None:
                buffer = np.empty(times.size)
            weights = buffer[:times.size].reshape(times.shape)
            for m, (t, kind) in enumerate(evals):
                _jump_weights(f, times, t, t, kind, weights)
                out[k, m, rows] += c[1] * np.multiply(weights, draws, out=weights).sum(axis=1)
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
    horizon; sizes are Exp(epsilon) by the inverse CDF.  The record is the
    one every Monte Carlo estimator uses for that path and factor.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"need 0 < horizon < inf, got horizon={horizon}")
    return _record(measure, horizon, _key(seed), path_index, factor_index)


def _record(measure, horizon: float, key, path_index: int, factor_index: int) -> JumpRecord:
    """:func:`simulate_jumps` on a key from :func:`_key` and a valid horizon."""
    if not (0 <= path_index < 1 << 32 and 0 <= factor_index < 1 << 32):
        raise ValueError("path and factor indices must lie in [0, 2**32)")
    path = range(path_index, path_index + 1)
    blocks = list(_jump_blocks(measure, horizon, key, factor_index, path))
    times = np.concatenate([times[0] for _, times, _ in blocks])
    draws = np.concatenate([draws[0] for _, _, draws in blocks])
    keep = times <= horizon
    return JumpRecord(times=times[keep], sizes=draws[keep] / measure.epsilon)


def evolve_factor(factor, jumps: JumpRecord, grid) -> np.ndarray:
    """Exact factor trajectory on a grid of finite times >= 0: decayed start plus decayed jumps."""
    grid = np.asarray(grid, dtype=float)
    if grid.size:
        _check_interval(grid.min(), grid.max(), names=("grid", "grid", "horizon"))
    with np.errstate(over="ignore"):  # a huge lam gives -inf, where e^{-inf} = 0 is exact
        x = factor.x0 * np.exp(-factor.lam * grid)
    if jumps.count:
        at = grid[:, None]
        x = x + factor.sigma * _jump_weights(factor, jumps.times, at, at, "decay") @ jumps.sizes
    return x


def _mesh(horizon: float, points_per_year: float) -> np.ndarray:
    """The regular mesh of a path's grid: ``round(points_per_year * horizon)`` steps, at least one.

    :func:`simulate_path` unions it with the jump epochs, and CLI ``simulate``
    formats its times once per run, so the two builds are this one.
    """
    if not 0 < points_per_year < math.inf:
        raise ValueError(f"points_per_year must be finite and positive, got {points_per_year!r}")
    steps = max(1, int(round(points_per_year * horizon)))
    return np.linspace(0.0, horizon, steps + 1)


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
    mesh = _mesh(spec.horizon, points_per_year)
    key = _key(seed)
    jumps = tuple(
        _record(f.measure, spec.horizon, key, path_index, k) for k, f in enumerate(spec.factors)
    )
    grid = np.union1d(mesh, np.concatenate([rec.times for rec in jumps]))
    factors = np.vstack([evolve_factor(f, rec, grid) for f, rec in _records(spec, jumps)])
    short_rate = np.asarray(spec.floor.value(grid)) + factors.sum(axis=0)
    integrated = spec.floor.cumulative(grid)
    at = grid[:, None]
    for f, rec in zip(spec.factors, jumps):
        with np.errstate(over="ignore"):  # a huge lam gives -inf, where e^{-inf} - 1 = -1 is exact
            integrated -= f.x0 * np.expm1(-f.lam * grid) / f.lam
        if rec.count:
            integrated -= f.sigma * _jump_weights(f, rec.times, at, at, "bond") @ rec.sizes
    return SimulatedPath(
        grid=grid,
        jumps=jumps,
        factors=factors,
        short_rate=short_rate,
        integrated=integrated,
    )


def integrated_rate(spec: ModelSpec, path: SimulatedPath, t: float) -> float:
    """Exact integrated short rate I_t from the path's jump records."""
    t, _ = _check_interval(t, t, path.grid[-1], ("t", "t", "horizon"))
    return _jump_free_integral(spec, t) - _path_jump_sum(spec, path, t, t, "bond")


def bond_path(spec: ModelSpec, path: SimulatedPath, t: float, T: float) -> float:
    """Pathwise bond price from the stochastic-exponential solution.

    P(t,T) = P(0,T) exp( I_t - sum_k int_0^t cum_k(sigma B_k(s,T)) ds
                         + sum_k sum_{u_j <= t} sigma_k B_k(u_j, T) z_j ),
    which must coincide with the affine formula evaluated at the path's
    state; that identity is the module's central correctness check.
    """
    t, T = _check_interval(t, T, path.grid[-1])
    return _bond_path(spec, path, t, T, integrated_rate(spec, path, t))


def _bond_path(spec: ModelSpec, path: SimulatedPath, t: float, T: float, i_t: float) -> float:
    """:func:`bond_path` at checked times from the path's I_t, ``i_t``.

    With ``i_t = 0.0`` it is exp(-I_t) P(t,T), whose ratio over two
    maturities is that of the bonds, without I_t.
    """
    p0T = bond_price(spec, 0.0, T)
    if not p0T:
        raise OverflowError(f"P(0.0, {T}) underflows to 0.0, so the pathwise bond has no log")
    log_p = math.log(p0T) + i_t
    log_p -= sum(_cumulant_closed(c, *_bond_ends(c, 0.0, t, T), t) for c in spec._paths)
    return math.exp(log_p + _path_jump_sum(spec, path, t, T, "bond"))


def hjm_forward_path(spec: ModelSpec, path: SimulatedPath, t: float, T: float) -> float:
    """Forward rate along a path from its HJM-type jump representation.

    f(t,T) = f(0,T) + sum_k ( sum_{u_j <= t} sigma_k z_j e^{-lam_k (T - u_j)}
                              - tilted compensator over [0, t] ).
    Coincides pathwise with the affine forward-rate formula.
    """
    t, T = _check_interval(t, T, path.grid[-1])
    rate = forward_rate(spec, 0.0, T) - sum(_tilted_closed(c, *_bond_ends(c, 0.0, t, T))
                                            for c in spec._paths)
    return float(rate + _path_jump_sum(spec, path, t, T, "decay"))


def _coefficient(deviations: np.ndarray, control: np.ndarray, control_var: float) -> float:
    """cov(v, c) / max(var(c), control_var) on one half-sample, from v's deviations.

    Any centring of v gives the same covariance, so ``deviations`` may be
    v minus the whole sample's mean.  0 for a control whose spread
    max - min is at most 2**-40 max|c|: such a control is constant up to
    rounding, and its sample covariance a ratio of rounding errors.  The
    control and control_var are scaled by 2^-shift near max|c|, which is
    exact, so var(c) of a control near 1e-300 does not underflow.
    """
    lo, hi = float(control.min()), float(control.max())
    if hi - lo <= _CONSTANT_SPREAD * max(-lo, hi):
        return 0.0
    shift = math.frexp(max(-lo, hi))[1]
    dc = np.ldexp(control, -shift)
    dc -= dc.sum() / dc.size
    variance = max(dc @ dc, (control.size - 1) * math.ldexp(control_var, -2 * shift))
    return math.ldexp(float(deviations @ dc / variance), -shift)


def _standard_error(residuals: np.ndarray, shift: int) -> float:
    """sqrt(sum r^2 / (n - 1) / n) from the squares of r 2^-shift, which scales it exactly."""
    scaled = np.ldexp(residuals, -shift)
    n = residuals.size
    return math.ldexp(math.sqrt(float(scaled @ scaled) / (n - 1) / n), shift)


def _estimate(
    values: np.ndarray, control: np.ndarray, control_mean: float, control_var: float = 0.0
) -> MonteCarloEstimate:
    """Regression-adjusted Monte Carlo mean of ``values`` with a control of known mean.

    The estimate is the mean of the residuals v - beta (c - control_mean)
    (Glasserman, *Monte Carlo Methods in Financial Engineering*, 2004,
    section 4.1), and its standard error their standard deviation over
    sqrt(n).  beta = cov(v, c) / var(c) is cross-fitted: each half of the
    paths takes the coefficient fitted on the other half, so beta is
    independent of the draws it corrects and the estimate has no O(1/n)
    bias.  ``control_var``, the control's known variance where there is
    one, bounds var(c) from below: a sample that missed the rare large
    values of a skewed control shrinks beta toward 0 instead of claiming a
    variance reduction it has not seen.  The reported ``beta`` is the mean
    of the two half-sample coefficients.  Two rules guard against roundoff:

    * a half whose control is constant up to rounding gets beta = 0 (see
      :func:`_coefficient`); with both halves so, the estimate is the plain
      sample mean, bit for bit, with its standard error;
    * the standard error is never below the rounding bound of the mean it
      qualifies,  (log2(n) + 8) u (mean|v| + |beta| (mean|c - control_mean|
      + |control_mean|))  with unit roundoff u = 2**-53 and the larger
      |beta|: a few roundings in each residual plus the log2(n) levels of
      NumPy's pairwise sum.

    An all-zero payoff therefore keeps value 0 and standard error 0.
    """
    n = values.size
    plain = float(np.sum(values) / n)
    deviations = values - plain
    magnitudes = np.abs(values)
    # 2^shift near max|v|: squares of draws near 1e-300 would underflow unscaled
    shift = math.frexp(float(magnitudes.max()))[1]
    plain_se = _standard_error(deviations, shift)
    half = n // 2
    b_first = _coefficient(deviations[:half], control[:half], control_var)
    b_second = _coefficient(deviations[half:], control[half:], control_var)
    # the residuals, built in the deviations' buffer: beta (c - control_mean), then v minus it
    residuals = np.subtract(control, control_mean, out=deviations)
    scale = float(magnitudes.sum()) / n + max(abs(b_first), abs(b_second)) * (
        float(np.abs(residuals).sum()) / n + abs(control_mean)
    )
    residuals[:half] *= b_second
    residuals[half:] *= b_first
    np.subtract(values, residuals, out=residuals)
    value = float(np.sum(residuals) / n)
    residuals -= value
    se = _standard_error(residuals, shift)
    rounding = (math.log2(n) + 8.0) * 2.0**-53 * scale
    return MonteCarloEstimate(
        value=value, std_error=max(se, rounding), n_paths=n,
        plain_value=plain, plain_std_error=plain_se, beta=0.5 * (b_first + b_second),
    )


def _check_mc_args(spec: ModelSpec, times, n_paths: int, seed: int, name: str = "t") -> tuple:
    """``times`` as Python floats and the seed's :func:`_key`; ValueError unless the seed
    is valid, n_paths >= 100, and ``times`` (named ``name``) is nonempty and within
    [0, horizon].
    """
    key = _key(seed)
    if len(times) == 0:
        raise ValueError(f"need at least one {name}")
    times = [_check_interval(t, t, spec.horizon, (name, name, "horizon"))[0] for t in times]
    if n_paths < 100:
        raise ValueError("need at least 100 paths")
    return times, key


def _jump_free_integral(spec: ModelSpec, t: float) -> float:
    """I_t on a path without jumps: the floor integral plus the decaying start."""
    return spec.floor.integral(0.0, t) - sum(f.x0 * bond_B(f, 0.0, t) for f in spec.factors)


def _exp_tail(x: float, k: int) -> float:
    """e^{-x} minus its Taylor polynomial of degree k - 1, sum_{j >= k} (-x)^j / j!, for x >= 0.

    Below x = 1 the difference would cancel, so it is summed as a series.
    """
    if x >= 1.0:
        return math.expm1(-x) - sum((-x) ** j / math.factorial(j) for j in range(1, k))
    term = (-x) ** k / math.factorial(k)
    total = 0.0
    j = k
    while total + term != total:
        total += term
        j += 1
        term *= -x / j
    return total


def _jump_moments(spec: ModelSpec, t: float, T: float) -> tuple:
    """Mean and variance of the jump sum  J = sum_k eta_k sum_{u_j <= t} B_k(u_j, T) E_j.

    From the jump measure's moments alone (Campbell's theorem): jumps arrive
    at rate alpha with Exp(1) draws, E E = 1 and E E^2 = 2, so
    E J = sum_k eta_k alpha_k int_0^t B_k(u, T) du and
    Var J = sum_k eta_k^2 2 alpha_k int_0^t B_k(u, T)^2 du.  With
    a = lam (T - t), b = lam T and the tails T_k of :func:`_exp_tail`,
    int_0^t B du = (T_2(a) - T_2(b)) / lam^2 and
    int_0^t B^2 du = (h(b) - h(a)) / lam^3,  h(x) = 2 T_3(x) - T_3(2x) / 2,
    which keep full relative accuracy as lam T -> 0, where differences of
    exponentials cancel (with t far below T, about T/t units of roundoff).
    OverflowError, naming the factor, where lam^3 overflows a float.
    """
    mean = var = 0.0
    for k, (lam, eta, alpha, *_) in enumerate(spec._paths):
        try:
            lam2, lam3 = lam**2, lam**3
        except OverflowError:
            raise OverflowError(f"factor index {k}: lambda**3 of the jump moments overflows "
                                f"(lambda={lam})") from None
        a, b = lam * (T - t), lam * T
        first = (_exp_tail(a, 2) - _exp_tail(b, 2)) / lam2
        second = (2.0 * (_exp_tail(b, 3) - _exp_tail(a, 3))
                  - (_exp_tail(2.0 * b, 3) - _exp_tail(2.0 * a, 3)) / 2.0) / lam3
        mean += eta * alpha * first
        var += eta**2 * (2.0 * alpha) * second
    return mean, var


def _discount_and_bond(spec: ModelSpec, key, n_paths: int, t: float, T: float):
    """Per-path exp(-I_t), the affine bond price P(t, T) at the state X(t), and a control.

    Per jump B(u, t) + B(t, T) e^{-lam (t - u)} = B(u, T), so the log of
    exp(-I_t) P(t, T) is a constant plus the third array, the jump sum
    sum_k eta_k sum_{u_j <= t} B_k(u_j, T) E_j  of :func:`_jump_moments`.
    """
    sums = _jump_sums(spec, key, n_paths, [(t, "decay"), (t, "bond")])
    jumps = sums[:, 1].sum(axis=0)
    i_t = _jump_free_integral(spec, t) - jumps
    log_bond = sum(_cumulant_closed(c, *_bond_ends(c, t, T, T), T - t) for c in spec._paths)
    log_bond -= spec.floor.integral(t, T)
    for k, f in enumerate(spec.factors):
        slope = bond_B(f, t, T)
        log_bond = log_bond + slope * (f.x0 * math.exp(-f.lam * t) + sums[k, 0])
        jumps = jumps + slope * sums[k, 0]
    return np.exp(-i_t), np.exp(log_bond), jumps


def mc_bond_price(spec: ModelSpec, T: float, n_paths: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo bond price: mean of exp(-I_T) over exact paths, with a jump control."""
    return mc_bond_curve(spec, [T], n_paths, seed)[0]


def mc_bond_curve(spec: ModelSpec, maturities, n_paths: int, seed: int):
    """Bond-price estimates for several maturities from one shared path set.

    exp(-I_T) is the exponential of a constant plus the jump sum
    sum_k eta_k sum_{u_j <= T} B_k(u_j, T) E_j, which
    is the control; its mean and variance come from the jump moments
    (:func:`_jump_moments`), never from the affine bond formula the
    estimate checks.
    """
    maturities = [float(T) for T in maturities]
    _, key = _check_mc_args(spec, maturities, n_paths, seed, "maturity")
    moments = [_jump_moments(spec, T, T) for T in maturities]
    sums = _jump_sums(spec, key, n_paths, [(T, "bond") for T in maturities]).sum(axis=0)
    return [
        _estimate(np.exp(jumps - _jump_free_integral(spec, T)), jumps, *moment)
        for T, jumps, moment in zip(maturities, sums, moments)
    ]


def mc_discounted_bond(
    spec: ModelSpec, t: float, T: float, n_paths: int, seed: int
) -> MonteCarloEstimate:
    """Mean of exp(-I_t) P(t,T); a martingale check against P(0,T).

    log(exp(-I_t) P(t,T)) is a constant plus a jump sum, which is the
    control, with its mean and variance from the jump moments; the check
    stays independent of the affine formula at time 0.
    """
    _, key = _check_mc_args(spec, [T], n_paths, seed, "T")
    t, T = _check_interval(t, T)
    if t == 0.0:
        price = bond_price(spec, 0.0, T)
        return MonteCarloEstimate(
            value=price, std_error=0.0, n_paths=n_paths, plain_value=price, plain_std_error=0.0
        )
    moments = _jump_moments(spec, t, T)
    discount, bond, jumps = _discount_and_bond(spec, key, n_paths, t, T)
    return _estimate(discount * bond, jumps, *moments)


def mc_option_price(spec: ModelSpec, option, n_paths: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo call-on-bond price: mean of exp(-I_tau) (P(tau,T) - K)+.

    The bond at expiry is evaluated with the affine formula at the simulated
    state, so this estimator is independent of the Fourier pricer only
    through the pathwise expiry state and discount factor.  The control is
    the discounted bond exp(-I_tau) P(tau,T), a martingale with mean P(0,T).
    """
    tau, T = option.option_maturity, option.bond_maturity
    _, key = _check_mc_args(spec, [T], n_paths, seed, "bond maturity")  # OptionSpec keeps 0 < tau <= T
    discount, bond, _ = _discount_and_bond(spec, key, n_paths, tau, T)
    payoff = discount * np.maximum(bond - option.strike, 0.0)
    return _estimate(payoff, discount * bond, bond_price(spec, 0.0, T))


def mc_short_rate_samples(spec: ModelSpec, t: float, n_paths: int, seed: int) -> np.ndarray:
    """Exact samples of r(t), one per path index."""
    (t,), key = _check_mc_args(spec, [t], n_paths, seed)
    base = float(spec.floor.value(t)) + sum(
        f.x0 * math.exp(-f.lam * t) for f in spec.factors
    )
    return base + _jump_sums(spec, key, n_paths, [(t, "decay")]).sum(axis=0)[0]
