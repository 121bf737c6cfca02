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
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
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

    def jump_quantile(self, u):
        """Exponential inverse CDF, -log(1 - u) / epsilon."""
        return -np.log1p(-u) / self.epsilon


class FloorFunction(ABC):
    """Deterministic lower bound mu(t) of the short rate.

    Evaluable everywhere on [0, horizon] and exactly integrable for the
    stored variant.  Piecewise-linear variants extrapolate flat on both
    sides of their knot span, so out-of-grid queries are well defined.

    :meth:`integral` is the scalar integral between two times.
    :meth:`cumulative` gives  int_0^g mu(s) ds  at every point g of a grid in
    one vectorized pass, with the arithmetic of ``integral(0, g)``.  The
    results are the same bits for constant floors, and for piecewise-linear
    floors wherever fewer than eight trapezoids lie below g (at most six
    knots in (0, g)).  Beyond that only the order of one sum differs:
    ``integral`` adds the trapezoids with ``np.sum``, which switches to
    pairwise order at eight terms, and ``cumulative`` adds them in sequence.
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
        total = self._integral(t0, t1)
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
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.level)
        return out if t.ndim else float(out)

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
        # converted once: every value and integral reads the knots as arrays
        object.__setattr__(self, "_arrays", (np.asarray(self.times), np.asarray(self.values)))

    def value(self, t):
        xs, ys = self._arrays
        t = np.asarray(t, dtype=float)
        out = np.interp(t, xs, ys)
        low, high, steep = self._interp_guard
        if steep:
            # the slope of a span a subnormal width apart overflows in np.interp
            bad = ~np.isfinite(out) & ~np.isnan(t)
            if t.ndim:
                out[bad] = self._by_fraction(t[bad])
            elif bad:
                out = self._by_fraction(t)
        # np.interp adds slope * (t - x0) to y0, which can round just outside
        # the knot values; clamped, mu stays within [minimum(), max(values)]
        if t.ndim:
            return np.minimum(np.maximum(out, low, out=out), high, out=out)
        return min(max(float(out), low), high)

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
        return np.clip(y0 + frac * (y1 - y0), np.minimum(y0, y1), np.maximum(y0, y1))

    def _trapezoids(self, breaks):
        """mu at the sorted breaks and the trapezoid over each span; callers silence overflow."""
        heights = self.value(breaks)
        return heights, 0.5 * (heights[1:] + heights[:-1]) * np.diff(breaks)

    def _integral(self, t0: float, t1: float) -> float:
        if t1 == t0:
            return 0.0
        xs, _ = self._arrays
        breaks = np.concatenate([[t0], xs[(xs > t0) & (xs < t1)], [t1]])
        with np.errstate(over="ignore", invalid="ignore"):  # integral raises on inf or nan
            return float(np.sum(self._trapezoids(breaks)[1]))

    @functools.cached_property
    def _running_sums(self):
        """The breaks 0 and every knot above it, mu there, and int_0 mu up to each break."""
        xs, _ = self._arrays
        breaks = np.concatenate(([0.0], xs[xs > 0]))
        heights, whole = self._trapezoids(breaks)
        # in sequence: the order of np.sum in _integral while it has fewer than 8 terms
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
        problems.extend(_floor_violations(self.floor, "floor"))
        if not 0 < self.horizon < inf:
            problems.append("horizon must be positive and finite")
        if problems:
            raise InvalidModelError(problems)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def initial_state(self) -> np.ndarray:
        return np.array([f.x0 for f in self.factors], dtype=float)


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
                    names: tuple = ("t", "T", "horizon")) -> None:
    """ValueError unless 0 <= t <= T <= bound with T finite, naming the first link that fails.

    One chained comparison on the hot path, which NaN fails; a single time is
    the interval [t, t].
    """
    if 0 <= t <= T <= bound and T < math.inf:
        return
    a, b, c = names
    if not 0 <= t:
        raise ValueError(f"need {a} >= 0, got {a}={t}")
    if not t <= T:
        raise ValueError(f"need {a} <= {b}, got {a}={t}, {b}={T}")
    if not T <= bound:
        raise ValueError(f"need {b} <= {c} = {bound}, got {b}={T}")
    name = a if t == T else b  # the first of the two that is infinite
    raise ValueError(f"need a finite {name}, got {name}={T}")


def factor_mean_term(lam: float, sigma: float, mean_jump: float, x_u: float, dt: float) -> float:
    """One factor's contribution to the conditional mean of r over a span dt."""
    return (
        x_u * math.exp(-lam * dt)
        + sigma * (-math.expm1(-lam * dt)) / lam * mean_jump
    )


def factor_var_term(lam: float, sigma: float, second_moment: float, dt: float) -> float:
    """One factor's contribution to the conditional variance of r over dt."""
    return sigma**2 * (-math.expm1(-2.0 * lam * dt)) / (2.0 * lam) * second_moment


def conditional_moments(
    spec: ModelSpec,
    u: float,
    t: float,
    state: Sequence[float],
) -> tuple:
    """Conditional mean and variance of r(t) given the factor values at u.

    mean = mu(t) + sum_k ( X_k(u) e^{-lam (t-u)}
                           + sigma_k (1 - e^{-lam (t-u)})/lam * int z nu_k(dz) )
    var  = sum_k sigma_k^2 (1 - e^{-2 lam (t-u)})/(2 lam) * int z^2 nu_k(dz)

    With u = 0 and the initial state this gives the unconditional moments.
    """
    _check_interval(u, t, spec.horizon, ("u", "t", "horizon"))
    state = np.asarray(state, dtype=float)
    if state.shape != (spec.n_factors,):
        raise ValueError("state must hold one value per factor")
    dt = t - u
    mean = spec.floor.value(t)
    var = 0.0
    for x_u, f in zip(state, spec.factors):
        mean += factor_mean_term(f.lam, f.sigma, f.measure.mean_jump(), x_u, dt)
        var += factor_var_term(f.lam, f.sigma, f.measure.second_moment(), dt)
    return float(mean), float(var)
