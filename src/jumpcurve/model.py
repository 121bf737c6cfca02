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
    """

    @abstractmethod
    def value(self, t):
        """mu(t); accepts scalars or arrays."""

    @abstractmethod
    def integral(self, t0: float, t1: float) -> float:
        """Exact  int_{t0}^{t1} mu(s) ds  for t0 <= t1."""

    @abstractmethod
    def minimum(self) -> float:
        """Greatest lower bound of mu over all of [0, inf)."""


@dataclass(frozen=True)
class ConstantFloor(FloorFunction):
    level: float

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.level)
        return out if t.ndim else float(out)

    def integral(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError("integral requires t0 <= t1")
        return self.level * (t1 - t0)

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

    def _knots(self):
        return np.asarray(self.times), np.asarray(self.values)

    def value(self, t):
        xs, ys = self._knots()
        t = np.asarray(t, dtype=float)
        out = np.interp(t, xs, ys)
        return out if t.ndim else float(out)

    def integral(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError("integral requires t0 <= t1")
        if t1 == t0:
            return 0.0
        xs, _ = self._knots()
        interior = xs[(xs > t0) & (xs < t1)]
        breaks = np.concatenate([[t0], interior, [t1]])
        heights = self.value(breaks)
        return float(np.sum(0.5 * (heights[1:] + heights[:-1]) * np.diff(breaks)))

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

    def integral(self, t0: float, t1: float) -> float:
        return sum(part.integral(t0, t1) for part in self.parts)

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
    if u < 0 or u > t:
        raise ValueError("need 0 <= u <= t")
    if t > spec.horizon:
        raise ValueError("t exceeds the model horizon")
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
