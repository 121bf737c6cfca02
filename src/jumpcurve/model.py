"""Model primitives: the gamma jump measure, floor functions, factor parameters.

The short rate is a deterministic floor plus independent pure-jump
mean-reverting factors,

    r(t) = mu(t) + sum_k X_k(t),
    dX_k = -lambda_k X_k dt + sigma_k dL_k,   X_k(0) = x_k >= 0,

with each L_k an increasing compound Poisson process whose jump-size
intensity is a Levy measure nu_k.  Gamma is the only jump measure, and the
closed forms and validation read its parameters directly: jumps arrive at
rate alpha and sizes are exponential with rate epsilon, giving the Lebesgue
density  alpha * epsilon * exp(-epsilon z)  on (0, inf).

A :class:`ModelSpec` is valid by construction: it checks every constraint
when it is built and raises :class:`InvalidModelError`, listing all the
violations, if any fails.  The pricing, transform and simulation functions
therefore take a spec as given and do not check it again.

Every exponential-moment formula in the library reduces to the cumulant
integral  int (exp(b z) - 1) nu(dz),  which the gamma measure evaluates in
closed form as  alpha * b / (epsilon - b)  for Re(b) < epsilon.  Since the
measure has an exponential moment of every order below epsilon, epsilon is
the effective exponential-moment boundary of the model.
A factor's jumps sigma z have rate alpha and Exp(epsilon / sigma) sizes, so the
model reads sigma and epsilon only as eta = sigma / epsilon, which a
:class:`ModelSpec` refuses at 0 or inf.  Model-level formulas run with
epsilon = 1 and jumps eta E, E ~ Exp(1); only the measure keeps epsilon.
"""

from __future__ import annotations

import functools
import math
import operator
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GammaJumpMeasure",
    "FloorFunction",
    "ConstantFloor",
    "PiecewiseLinearFloor",
    "SummedFloor",
    "FactorParams",
    "ModelSpec",
    "InvalidModelError",
    "conditional_moments",
]


@dataclass(frozen=True)
class GammaJumpMeasure:
    """Gamma jump measure with density  alpha * epsilon * exp(-epsilon z).

    ``alpha`` is the jump arrival intensity (jumps per unit time) and
    ``epsilon`` the exponential rate of the jump sizes, so a single jump has
    mean 1/epsilon.
    """

    alpha: float
    epsilon: float

    def mean_jump(self) -> float:
        return self.alpha / self.epsilon

    def second_moment(self) -> float:
        return 2.0 * self.alpha / self.epsilon**2

    def levy_cumulant(self, b):
        """alpha * b / (epsilon - b), defined for Re(b) < epsilon.

        Accepts scalars or arrays, real or complex.
        """
        arr = np.asarray(b)
        if np.any(arr.real >= self.epsilon):
            raise ValueError(
                f"cumulant diverges: Re(b) must stay below epsilon={self.epsilon}"
            )
        out = self.alpha * arr / (self.epsilon - arr)
        return out if arr.ndim else out[()]

    def tilted_mean(self, b):
        """alpha * epsilon / (epsilon - b)^2 for real b < epsilon."""
        arr = np.asarray(b)
        if np.iscomplexobj(arr):
            raise TypeError("tilted_mean is defined for real arguments")
        if np.any(arr >= self.epsilon):
            raise ValueError(
                f"tilted mean diverges: b must stay below epsilon={self.epsilon}"
            )
        out = self.alpha * self.epsilon / (self.epsilon - arr) ** 2
        return out if arr.ndim else float(out)


class FloorFunction(ABC):
    """Deterministic lower bound mu(t) of the short rate.

    Evaluable everywhere on [0, horizon] and exactly integrable for the
    stored variant.  Piecewise-linear variants extrapolate flat on both
    sides of their knot span, so out-of-grid queries are well defined.

    A scalar time (a float, an int or a 0-d array) runs on Python floats:
    :meth:`value` returns a float, and :meth:`integral` adds the trapezoids
    between two times in sequence.  Arrays run in NumPy: ``value`` maps them,
    and :meth:`cumulative` gives  int_0^g mu(s) ds  at every point g of a
    grid in one pass, also in sequence.  So the two dialects give the same
    bits, except that a piecewise-linear ``integral`` over eight or more
    trapezoids keeps ``np.sum``, which adds them pairwise, and that NumPy's
    clamp in an array ``value`` may give a zero the other sign.
    Variants implement arithmetic only (value, minimum, ``_integral``,
    ``_cumulative``); the t0 <= t1 and overflow checks live here, once.
    """

    @abstractmethod
    def value(self, t):
        """mu(t); accepts scalars or arrays."""

    def integral(self, t0: float, t1: float) -> float:
        """Exact  int_{t0}^{t1} mu(s) ds  for t0 <= t1."""
        if t1 < t0:
            raise ValueError("integral requires t0 <= t1")
        # Python floats: NumPy scalar times would warn on overflow before the error below
        total = self._integral(float(t0), float(t1))
        if not math.isfinite(total):
            raise OverflowError(f"floor integral over [{t0}, {t1}] overflows double precision")
        return total

    def cumulative(self, grid) -> np.ndarray:
        """Exact  int_0^g mu(s) ds  at every point g >= 0 of ``grid``, as a new array."""
        grid = np.asarray(grid, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            total = self._cumulative(grid)
        finite = np.isfinite(total)
        if not finite.all():
            first = grid[~finite][0]
            raise OverflowError(f"floor integral over [0.0, {first}] overflows double precision")
        return total

    @abstractmethod
    def minimum(self) -> float:
        """Greatest lower bound of mu over all of [0, inf)."""

    @abstractmethod
    def _integral(self, t0: float, t1: float) -> float:
        """int_{t0}^{t1} mu(s) ds for t0 <= t1, inf or NaN where it overflows."""

    @abstractmethod
    def _cumulative(self, grid: np.ndarray) -> np.ndarray:
        """int_0^g mu(s) ds on a float grid as a new array, run with NumPy warnings off."""


@dataclass(frozen=True)
class ConstantFloor(FloorFunction):
    level: float

    def value(self, t):
        if not isinstance(t, (float, int)) and np.ndim(t):
            return np.full(np.shape(t), self.level)
        return float(self.level)

    def _integral(self, t0: float, t1: float) -> float:
        return self.level * (t1 - t0)

    def _cumulative(self, grid: np.ndarray) -> np.ndarray:
        return self.level * grid

    def minimum(self) -> float:
        return self.level


@dataclass(frozen=True)
class PiecewiseLinearFloor(FloorFunction):
    """Linear interpolation through sorted (time, value) knots, flat outside.

    The kinks at the knots are accepted: nothing downstream needs the floor
    differentiable, only evaluable and exactly integrable.
    """

    times: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        # converted once: the array routes read the knots as arrays
        object.__setattr__(self, "_arrays", (np.asarray(self.times), np.asarray(self.values)))

    def value(self, t):
        if not isinstance(t, (float, int)) and np.ndim(t):
            t = np.asarray(t, dtype=float)
            out = np.interp(t, *self._arrays)
            low, high, steep = self._interp_guard
            if steep:
                # the slope of a span a subnormal width apart overflows in np.interp
                bad = ~np.isfinite(out) & ~np.isnan(t)
                out[bad] = self._by_fraction(t[bad])
            # np.interp adds slope * (t - x0) to y0, which can round just outside
            # the knot values; clamped, mu stays within [minimum(), max(values)]
            return np.minimum(np.maximum(out, low, out=out), high, out=out)
        # a scalar: np.interp's own arithmetic on Python floats
        t, xs, ys = float(t), self.times, self.values
        j = bisect_right(xs, t) - 1
        if j < 0 or j == len(xs) - 1 or xs[j] == t:  # flat outside, the knot value on a knot
            return ys[max(j, 0)] if t == t or j == 0 else t  # NaN stays NaN but for one knot
        x0, x1, y0, y1 = xs[j], xs[j + 1], ys[j], ys[j + 1]
        slope = (y1 - y0) / (x1 - x0)
        out = slope * (t - x0) + y0
        if out != out:  # retried from the right end, then a flat span's level
            out = slope * (t - x1) + y1
            out = y0 if out != out and y0 == y1 else out
        low, high, steep = self._interp_guard
        if steep and not math.isfinite(out):
            out = float(self._by_fraction(t))
        return low if out < low else high if out > high else out  # min(max(out, low), high)

    @functools.cached_property
    def _interp_guard(self):
        """The knot values' range, and whether any knot span's slope overflows."""
        xs, ys = self._arrays
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            steep = not np.all(np.isfinite(np.diff(ys) / np.diff(xs)))
        return float(ys.min()), float(ys.max()), steep

    def _by_fraction(self, t):
        """y0 + f (y1 - y0) with f the fraction of the knot span, clipped to [y0, y1]."""
        xs, ys = self._arrays
        i = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, xs.size - 2)
        frac = np.clip((t - xs[i]) / (xs[i + 1] - xs[i]), 0.0, 1.0)
        y0, y1 = ys[i], ys[i + 1]
        with np.errstate(over="ignore", invalid="ignore"):  # the clip bounds an infinite y1 - y0
            return np.clip(y0 + frac * (y1 - y0), np.minimum(y0, y1), np.maximum(y0, y1))

    def _integral(self, t0: float, t1: float) -> float:
        if t1 == t0:
            return 0.0
        xs, ys = self.times, self.values
        lo, hi = bisect_right(xs, t0), bisect_left(xs, t1)
        # the trapezoids between t0, every knot strictly inside (t0, t1), and t1
        breaks, heights = (t0, *xs[lo:hi], t1), (self.value(t0), *ys[lo:hi], self.value(t1))
        parts = [0.5 * (h1 + h0) * (b1 - b0)
                 for b0, b1, h0, h1 in zip(breaks, breaks[1:], heights, heights[1:])]
        if len(parts) < 8:  # np.sum's order below eight terms, from its start 0.0
            return functools.reduce(operator.add, parts, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # integral raises on inf or nan
            return float(np.sum(parts))  # pairwise

    @functools.cached_property
    def _running_sums(self):
        """The breaks 0 and every knot above it, mu there, and int_0 mu up to each break."""
        xs, _ = self._arrays
        breaks = np.concatenate(([0.0], xs[xs > 0]))
        heights = self.value(breaks)
        whole = 0.5 * (heights[1:] + heights[:-1]) * np.diff(breaks)
        # in sequence: the order of _integral while it has fewer than 8 terms
        return breaks, heights, np.cumsum(np.concatenate(([0.0], whole)))

    def _cumulative(self, grid: np.ndarray) -> np.ndarray:
        breaks, heights, sums = self._running_sums
        # integral(0, g) adds the whole trapezoids up to the last break below g,
        # then the partial one from that break to g
        below = np.maximum(np.searchsorted(breaks, grid) - 1, 0)
        last = 0.5 * (self.value(grid) + heights[below]) * (grid - breaks[below])
        # integral(0, 0) is 0.0 however large the floor is there
        return np.where(grid > 0.0, sums[below] + last, 0.0)

    def minimum(self) -> float:
        return float(min(self.values))


@dataclass(frozen=True)
class SummedFloor(FloorFunction):
    """Pointwise sum of floors; used for the dual-curve combined floor."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    def value(self, t):
        total = self.parts[0].value(t)
        for part in self.parts[1:]:
            total = total + part.value(t)
        return total

    def _integral(self, t0: float, t1: float) -> float:
        return sum(part._integral(t0, t1) for part in self.parts)

    def _cumulative(self, grid: np.ndarray) -> np.ndarray:
        return sum(part._cumulative(grid) for part in self.parts)

    def minimum(self) -> float:
        return sum(part.minimum() for part in self.parts)


@dataclass(frozen=True)
class FactorParams:
    """One mean-reverting pure-jump factor.

    ``lam`` is the mean-reversion speed (1/years), ``sigma`` the volatility
    multiplier applied to the driving subordinator, ``x0`` the nonnegative
    initial factor value.
    """

    lam: float
    sigma: float
    x0: float
    measure: GammaJumpMeasure


@dataclass(frozen=True)
class ModelSpec:
    """Full short-rate model: ordered factors, floor, and time horizon.

    Construction checks every model constraint and raises
    :class:`InvalidModelError` listing each violation, so every
    ``ModelSpec`` that exists is valid.
    """

    factors: tuple
    floor: FloorFunction
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        problems = []
        if not self.factors:
            problems.append("model requires at least one factor")
        # chained comparisons: NaN fails every one, so each test also rejects NaN
        inf = math.inf
        for i, f in enumerate(self.factors, start=1):
            if not 0 < f.lam < inf:
                problems.append(f"factor {i}: lambda must be positive and finite")
            if not 0 < f.sigma < inf:
                problems.append(f"factor {i}: sigma must be positive and finite")
            if not 0 <= f.x0 < inf:
                problems.append(f"factor {i}: x0 must be nonnegative and finite")
            if not 0 < f.measure.alpha < inf:
                problems.append(f"factor {i}: alpha must be positive and finite")
            if not 0 < f.measure.epsilon < inf:
                problems.append(f"factor {i}: epsilon must be positive and finite")
            elif 0 < f.sigma < inf and not 0 < _jump_scale(f) < inf:
                problems.append(f"factor {i}: sigma/epsilon must be positive and finite")
        problems.extend(_floor_violations(self.floor, "floor"))
        if not 0 < self.horizon < inf:
            problems.append("horizon must be positive and finite")
        if problems:
            raise InvalidModelError(problems)
        # Python floats: the default state of bond_price and forward_rate, read without a copy
        object.__setattr__(self, "_state0", tuple(float(f.x0) for f in self.factors))
        # built after the checks: an invalid factor raises above, never in the constants
        object.__setattr__(self, "_paths", tuple(_path_constants(f) for f in self.factors))
        object.__setattr__(self, "_columns", _factor_columns(self._paths))

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def initial_state(self) -> np.ndarray:
        return np.array(self._state0)


class InvalidModelError(ValueError):
    """A model constraint failed; ``violations`` lists every failed one."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid model spec: " + "; ".join(self.violations))


def _floor_violations(floor: FloorFunction, label: str) -> list:
    problems = []
    if isinstance(floor, PiecewiseLinearFloor):
        xs = floor.times
        if len(xs) == 0:
            problems.append(f"{label} has no knots")
        elif len(xs) != len(floor.values):
            problems.append(f"{label} knot times and values differ in length")
        elif not math.isfinite(sum(xs) + sum(floor.values)):
            # NaN or inf in any knot makes the sum non-finite (so does an overflowing total)
            problems.append(f"{label} knots must be finite")
        elif any(b <= a for a, b in zip(xs, xs[1:])):
            problems.append(f"{label} knots not sorted")
    elif isinstance(floor, SummedFloor):
        for i, part in enumerate(floor.parts):
            problems.extend(_floor_violations(part, f"{label} part {i}"))
    elif isinstance(floor, ConstantFloor) and not math.isfinite(floor.level):
        problems.append(f"{label} level must be finite")
    return problems


def _check_interval(t: float, T: float, bound: float = math.inf,
                    names: tuple = ("t", "T", "horizon")) -> tuple:
    """(t, T) as Python floats; ValueError unless 0 <= t <= T <= bound with T finite,
    naming the first link that fails.

    One chained comparison on the hot path, which NaN fails; a single time is
    the interval [t, t].  The floats keep NumPy scalar times out of the closed
    forms, where a product that overflows would warn before giving inf.
    """
    if 0 <= t <= T <= bound and T < math.inf:
        return float(t), float(T)
    a, b, c = names
    if not 0 <= t:
        raise ValueError(f"need {a} >= 0, got {a}={t}")
    if not t <= T:
        raise ValueError(f"need {a} <= {b}, got {a}={t}, {b}={T}")
    if not T <= bound:
        raise ValueError(f"need {b} <= {c} = {bound}, got {b}={T}")
    name = a if t == T else b  # the first of the two that is infinite
    raise ValueError(f"need a finite {name}, got {name}={T}")


def _slope(lam: float, tau: float) -> float:
    """Affine slope B = (exp(-lam tau) - 1) / lam at a scalar time to maturity tau, on math.expm1.

    numpy's expm1 differs from math's in the last bit on a few percent of
    inputs; the closed forms stay on math, the quadrature twins on numpy's nodes.
    """
    return math.expm1(-lam * tau) / lam


def _jump_scale(factor: FactorParams) -> float:
    """eta = sigma / epsilon on Python floats, where an overflow gives inf with no NumPy warning."""
    return float(factor.sigma) / float(factor.measure.epsilon)


def _path_constants(factor: FactorParams, shift: float | None = None) -> tuple:
    """A factor's cumulant-path constants as Python floats, in the closed forms' order.

    (lam, eta, alpha, -alpha shift, scale = lam + shift, alpha / scale): the
    path-free parts of the closed forms of :mod:`.curves` along a path with
    the given shift, eta by default (the bond path).  A valid factor keeps
    scale >= eta > 0.
    """
    lam, eta, alpha = float(factor.lam), _jump_scale(factor), float(factor.measure.alpha)
    shift = eta if shift is None else float(shift)
    scale = lam + shift
    return lam, eta, alpha, -alpha * shift, scale, alpha / scale


def _factor_columns(paths) -> tuple:
    """The factors' (lam, eta, alpha) from their path constants, as (k, 1) float columns.

    The bond-path quadrature twins of :mod:`.curves` evaluate their factors'
    integrand at once on these, one row per factor.
    """
    table = np.array([c[:3] for c in paths], dtype=float)
    return tuple(np.ascontiguousarray(table.T)[:, :, None])


def _check_state(state, n: int) -> list:
    """The n factor values of ``state`` as Python floats; ValueError unless all are finite."""
    # math.isfinite over the list: a NumPy reduction would cost a quarter of a bond price
    values = np.asarray(state, dtype=float)
    if values.shape == (n,):
        values = values.tolist()
        if all(map(math.isfinite, values)):
            return values
    raise ValueError(f"state must hold a finite value per factor, {n} in all, got {state!r}")


def conditional_moments(
    spec: ModelSpec,
    u: float,
    t: float,
    state: Sequence[float],
) -> tuple:
    """Conditional mean and variance of r(t) given the factor values at u.

    mean = mu(t) + sum_k ( X_k(u) e^{-lam (t-u)}
                           + eta_k (1 - e^{-lam (t-u)})/lam * alpha_k )
    var  = sum_k eta_k^2 (1 - e^{-2 lam (t-u)})/(2 lam) * 2 alpha_k

    with the jumps eta E, E ~ Exp(1).  With u = 0 and the initial state this
    gives the unconditional moments.
    """
    u, t = _check_interval(u, t, spec.horizon, ("u", "t", "horizon"))
    state = _check_state(state, spec.n_factors)
    dt = t - u
    mean = spec.floor.value(t)
    var = 0.0
    for x_u, (lam, eta, alpha, *_) in zip(state, spec._paths):
        mean += x_u * math.exp(-lam * dt) + eta * (-math.expm1(-lam * dt)) / lam * alpha
        var += eta**2 * (-math.expm1(-2.0 * lam * dt)) / (2.0 * lam) * (2.0 * alpha)
    return float(mean), float(var)
