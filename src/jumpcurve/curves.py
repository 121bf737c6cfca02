"""Affine bond pricing, forward curves, floor calibration, moment matching.

Bond prices are exponential-affine in the factors,

    P(t,T) = exp( sum_k [ A_k(t,T) + B_k(t,T) X_k(t) ] ),
    B_k(t,T) = (exp(-lam_k (T-t)) - 1) / lam_k  <= 0,
    A_k(t,T) = int_t^T ( -mu(s)/n + int (exp(sigma_k B_k(s,T) z) - 1) nu_k(dz) ) ds.

The jump part of A, the option exponents of :mod:`.options` and the transform
constant of :mod:`.transforms` are all one integral: the gamma cumulant
cum(g) = alpha g / (eps - g) along a path  g(s) = c0 + c1 e^{lam s}.  With
d = eps - c0 the one antiderivative is

    int ds / (d - c1 e^{lam s}) = [lam s - log(d - c1 e^{lam s})] / (d lam),

so that, with  shift = -lam c0  and  scale = eps lam + shift,

    int_{t1}^{t2} cum(g(s)) ds
        = -alpha shift (t2-t1) / scale
          - alpha eps / scale * log( (eps - g(t2)) / (eps - g(t1)) ).

The bond path g = sigma B(s,T) and the option paths have c0 = -sigma/lam, so
shift = sigma; the transform path i u sigma e^{-lam (t-s)} has c0 = 0, so
shift = 0.  The logarithm is taken as log1p((g(t1) - g(t2)) / (eps - g(t1))),
which stays exact as t1 -> t2.  For complex g it is the principal branch, and
that is the right one when Re(eps - g) > 0 at both ends: Re g is monotone in
s, so the two ends certify the whole path, and the ratio of two right
half-plane numbers has argument in (-pi, pi) (Lord & Kahl, "Complex logarithms
in Heston-like models", Math. Finance 2010).  Real bond paths have g <= 0 and
need no check.

The maturity-tilted integral behind forward rates collapses to

    int_{t1}^{t2} sigma e^{-lam(T-s)} alpha eps / (eps - sigma B(s,T))^2 ds
        = alpha eps / (eps - sigma B(t2,T)) - alpha eps / (eps - sigma B(t1,T)).

Each public closed form branches once on ``method``: ``"closed"`` evaluates it
from the path's two end values in scalar arithmetic (complex ends on the
transform path), and ``"quadrature"`` runs its twin, the same integrand in
NumPy on adaptive Gauss-Kronrod nodes, kept as a permanent oracle against
derivation errors.  Any other name raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import least_squares

from .model import (
    ConstantFloor,
    FactorParams,
    GammaJumpMeasure,
    ModelSpec,
    PiecewiseLinearFloor,
    _check_interval,
    _check_state,
    factor_mean_term,
    factor_var_term,
)
from .quadrature import gauss_kronrod

__all__ = [
    "ForwardCurve",
    "MomentFitResult",
    "bond_B",
    "bond_B_dT",
    "cumulant_time_integral",
    "tilted_time_integral",
    "bond_price",
    "forward_rate",
    "yield_curve",
    "calibrate_floor",
    "match_moments",
]

_QUAD_TOL = 1e-13


def _slope(lam: float, tau: float) -> float:
    """(exp(-lam tau) - 1) / lam at a scalar time to maturity tau, on math.expm1.

    numpy's expm1 differs from math's in the last bit on a few percent of
    inputs; the closed forms stay on math, the twins on numpy's nodes.
    """
    return math.expm1(-lam * tau) / lam


def _twin(method: str, integrand, t1: float, t2: float):
    """int_{t1}^{t2} integrand ds by adaptive quadrature: the twin of a ``method="closed"`` form."""
    if method != "quadrature":
        raise ValueError("method must be one of ('closed', 'quadrature')")
    return gauss_kronrod(integrand, t1, t2, abs_tol=_QUAD_TOL)[0]


def bond_B(factor: FactorParams, t: float, T: float) -> float:
    """Affine slope B(t,T) = (exp(-lam (T-t)) - 1) / lam <= 0."""
    _check_interval(t, T)
    return math.expm1(-factor.lam * (T - t)) / factor.lam


def bond_B_dT(factor: FactorParams, t: float, T: float) -> float:
    """Maturity derivative of the slope, -exp(-lam (T-t))."""
    _check_interval(t, T)
    return -math.exp(-factor.lam * (T - t))


def _cumulant_constants(factor: FactorParams, shift: float, span: float) -> tuple:
    """(drift, weight) over a span t2 - t1: the closed form is drift - weight * log1p(ratio)."""
    alpha, eps = factor.measure.alpha, factor.measure.epsilon
    scale = eps * factor.lam + shift
    return -alpha * shift * span / scale, alpha * eps / scale


def _check_half_plane(eps: float, re_g1: float, re_g2: float) -> None:
    """ValueError unless Re g < eps at both ends of a complex path: the principal log's condition."""
    if eps <= max(re_g1, re_g2):
        raise ValueError(f"cumulant argument left the half-plane Re(g) < epsilon={eps}")


def _cumulant_integral(factor: FactorParams, g1, g2, shift: float, span: float):
    """int_{t1}^{t2} cum(g(s)) ds along g(s) = c0 + c1 e^{lam s}, shift = -lam c0.

    The module docstring's closed form, from the path's end values
    g1 = g(t1) and g2 = g(t2) and its span t2 - t1.  Real ends are a bond
    path; complex ends must have passed :func:`_check_half_plane`.
    """
    drift, weight = _cumulant_constants(factor, shift, span)
    ratio = (g1 - g2) / (factor.measure.epsilon - g1)
    return drift - weight * (math.log1p(ratio) if isinstance(ratio, float) else np.log1p(ratio))


def cumulant_time_integral(
    factor: FactorParams,
    t1: float,
    t2: float,
    T: float,
    method: str = "closed",
) -> float:
    """int_{t1}^{t2} cum(sigma B(s,T)) ds, the jump part of A over [t1, t2].

    Requires t1 <= t2 <= T.  The bond path of the module docstring (shift
    sigma); ``method="quadrature"`` runs its twin, which must agree.
    """
    if not 0 <= t1 <= t2 <= T:  # inline on the hot path; the check names the fault
        _check_interval(t1, t2, T, ("t1", "t2", "T"))
    lam, sigma = factor.lam, factor.sigma
    if method == "closed":
        g1, g2 = sigma * _slope(lam, T - t1), sigma * _slope(lam, T - t2)
        return _cumulant_integral(factor, g1, g2, sigma, t2 - t1)
    cumulant = factor.measure.levy_cumulant
    return _twin(method, lambda s: cumulant(sigma * (np.expm1(-lam * (T - s)) / lam)), t1, t2)


def tilted_time_integral(
    factor: FactorParams,
    t1: float,
    t2: float,
    T: float,
    method: str = "closed",
) -> float:
    """int_{t1}^{t2} sigma e^{-lam(T-s)} int z e^{sigma B(s,T) z} nu(dz) ds.

    The maturity-tilted compensator integral behind forward rates, the
    maturity derivative of A, and the forward-curve calibration condition.
    Requires t1 <= t2 <= T.
    """
    _check_interval(t1, t2, T, ("t1", "t2", "T"))
    lam, sigma = factor.lam, factor.sigma
    if method == "closed":
        alpha, eps = factor.measure.alpha, factor.measure.epsilon
        b1, b2 = sigma * _slope(lam, T - t1), sigma * _slope(lam, T - t2)
        return alpha * eps / (eps - b2) - alpha * eps / (eps - b1)
    mean = factor.measure.tilted_mean
    return _twin(method, lambda s: sigma * np.exp(-lam * (T - s))
                 * mean(sigma * (np.expm1(-lam * (T - s)) / lam)), t1, t2)


def bond_price(
    spec: ModelSpec,
    t: float,
    T: float,
    state=None,
    method: str = "closed",
) -> float:
    """Zero-coupon bond price exp(sum_k [A_k + B_k X_k]) at the given state.

    ``state`` defaults to the time-0 factor values, which prices the bond at
    t = 0.  Strictly positive; equals 1 at t = T; bounded above by
    exp(-int_t^T mu) whenever every factor value is nonnegative.  Raises
    OverflowError when the closed forms overflow double precision.
    """
    _check_interval(t, T, spec.horizon)
    # Python floats: the same IEEE products as numpy scalars, at less overhead
    state = spec._state0 if state is None else _check_state(state, spec.n_factors)
    log_p = -spec.floor.integral(t, T)
    for f, x in zip(spec.factors, state):
        log_p += cumulant_time_integral(f, t, T, T, method=method)
        log_p += _slope(f.lam, T - t) * x
    if not math.isfinite(log_p):
        raise OverflowError(f"log P({t}, {T}) = {log_p} overflows double precision")
    return math.exp(log_p)


def forward_rate(
    spec: ModelSpec,
    t: float,
    T: float,
    state=None,
    method: str = "closed",
) -> float:
    """Instantaneous forward rate f(t,T) = -d/dT log P(t,T).

    f(t,T) = mu(T) + sum_k int_t^T sigma e^{-lam(T-s)} tilted-mean ds
           + sum_k X_k e^{-lam (T-t)},
    which collapses to mu(T) - sum_k cum(sigma B_k(t,T)) + decayed state in
    closed form.  Satisfies f(t,t) = r(t).  Raises OverflowError when the
    closed forms overflow double precision.
    """
    _check_interval(t, T, spec.horizon)
    state = spec._state0 if state is None else _check_state(state, spec.n_factors)
    rate = float(spec.floor.value(T))
    for f, x in zip(spec.factors, state):
        rate += tilted_time_integral(f, t, T, T, method=method)
        rate += x * math.exp(-f.lam * (T - t))
    if not math.isfinite(rate):
        raise OverflowError(f"f({t}, {T}) = {rate} overflows double precision")
    return rate


def yield_curve(spec: ModelSpec, t: float, T: float, state=None) -> float:
    """Continuously-compounded spot rate R(t,T) = log P(t,T) / (t - T).

    Raises OverflowError when P(t,T) underflows to 0.
    """
    _check_interval(t, T, spec.horizon)
    if t == T:
        raise ValueError(f"need t < T, got t={t}, T={T}")
    price = bond_price(spec, t, T, state)
    if price == 0.0:
        raise OverflowError(f"P({t}, {T}) underflows to 0.0, so its yield overflows")
    return math.log(price) / (t - T)


@dataclass(frozen=True)
class ForwardCurve:
    """Initial forward curve f(0,T) on a sorted maturity grid."""

    maturities: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        ms = np.asarray(self.maturities, dtype=float)
        rs = np.asarray(self.rates, dtype=float)
        if ms.ndim != 1 or ms.size == 0:
            raise ValueError("maturity grid must be a nonempty 1-d array")
        if ms.shape != rs.shape:
            raise ValueError("maturities and rates must match in length")
        if np.any(np.diff(ms) <= 0):
            raise ValueError("maturity grid must be strictly increasing")
        if not (np.all(np.isfinite(ms)) and np.all(np.isfinite(rs))):
            raise ValueError("curve entries must be finite")
        object.__setattr__(self, "maturities", ms)
        object.__setattr__(self, "rates", rs)

    @classmethod
    def from_csv(cls, path) -> "ForwardCurve":
        """Read the ``maturity,forward_rate`` CSV interchange format."""
        maturities, rates = [], []
        with open(path, "r", encoding="utf-8", newline="") as handle:
            lines = [ln.strip() for ln in handle if ln.strip()]
        if not lines or lines[0] != "maturity,forward_rate":
            raise ValueError("expected header 'maturity,forward_rate'")
        for row_number, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"row {row_number}: expected 2 columns")
            try:
                maturities.append(float(parts[0]))
                rates.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"row {row_number}: {exc}") from None
        return cls(np.array(maturities), np.array(rates))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("maturity,forward_rate\n")
            for m, r in zip(self.maturities, self.rates):
                handle.write(f"{m:.17g},{r:.17g}\n")


def calibrate_floor(
    factors: Sequence[FactorParams],
    market: ForwardCurve,
) -> PiecewiseLinearFloor:
    """Floor that reproduces a given initial forward curve exactly.

    mu(T) = f_M(0,T) - sum_k ( x_k e^{-lam T} + tilted compensator over [0,T] ),
    evaluated on the market grid and stored as a piecewise-linear floor.
    Rebuilding the model with this floor returns f(0,T) = f_M(0,T) at every
    knot up to roundoff.  Raises OverflowError, naming the first maturity,
    when a level is not finite.
    """
    factors = tuple(factors)
    if not factors:
        raise ValueError("need at least one factor")
    levels = []
    for T, f_mkt in zip(market.maturities, market.rates):
        adj = 0.0
        for f in factors:
            adj += f.x0 * math.exp(-f.lam * T)
            adj += tilted_time_integral(f, 0.0, T, T)
        level = f_mkt - adj
        if not math.isfinite(level):
            raise OverflowError(f"calibrated floor level at maturity {T} is {level}, not finite")
        levels.append(level)
    return PiecewiseLinearFloor(tuple(market.maturities), tuple(levels))


@dataclass(frozen=True)
class MomentFitResult:
    """Outcome of a moment-matching fit.

    ``residual`` is the sum of squared relative moment errors at ``spec``,
    ``converged`` whether a solver tolerance was met within the budget, and
    ``evaluations`` the number of residual-vector evaluations the solver made
    outside its finite-difference Jacobians.
    """

    spec: ModelSpec
    residual: float
    converged: bool
    evaluations: int


def match_moments(
    observations: Sequence,
    n: int,
    initial: ModelSpec,
    max_iterations: int = 10_000,
    rel_tol: float = 1e-10,
) -> MomentFitResult:
    """Fit (lam, sigma, alpha) per factor plus a constant floor level to
    observed (t, mean, variance) triples by nonlinear least squares on the
    relative moment errors (m - m_obs)/|m_obs| and (v - v_obs)/|v_obs|.

    The moment curves depend on (sigma, alpha, eps) only through
    sigma*alpha/eps and sigma^2*alpha/eps^2, so alpha and the ratio
    sigma/eps are identified while sigma and eps individually are not.
    The law of the model depends on them only through sigma/eps as well
    (sigma times an Exp(eps) jump is an Exp(eps/sigma) jump), so eps is held
    at its initial value and sigma carries the ratio; fitting both would
    leave the solver an exactly flat direction to drift along.  Initial
    factor values x_k are also taken from ``initial`` and held fixed.

    Positive parameters move multiplicatively from the initial guess
    (p = p0 exp(x)) and the floor level additively, so an exact initial
    guess comes back unchanged.  The trust-region-reflective solver of
    ``scipy.optimize.least_squares`` stops after ``max_iterations`` residual
    evaluations, or once the cost change, the step or the gradient falls
    below ``rel_tol``.  Never raises on a poor fit: the result reports the
    residual and whether the solver converged.
    """
    obs = np.asarray([(t, m, v) for (t, m, v) in observations], dtype=float)
    if obs.shape[0] < 8 * n:
        raise ValueError(f"need at least {8 * n} observations to identify {n} factor(s)")
    if initial.n_factors != n:
        raise ValueError("initial guess must have n factors")
    times, moments_obs = obs[:, 0], obs[:, 1:]
    if times.max() > initial.horizon:
        raise ValueError("observation times exceed the model horizon")
    x0s = initial.initial_state()
    scale = np.where(np.abs(moments_obs) > 1e-12, np.abs(moments_obs), 1.0)
    start = np.array(
        [(f.lam, f.sigma, f.measure.alpha, f.measure.epsilon) for f in initial.factors]
    )
    level0 = initial.floor.value(0.0)
    level_step = max(abs(level0), 0.01)

    def unpack(x: np.ndarray) -> tuple:
        steps = np.zeros((n, 4))
        steps[:, :3] = x[:-1].reshape(n, 3)  # eps stays at its initial value
        return start * np.exp(steps), level0 + x[-1] * level_step

    def residuals(x: np.ndarray) -> np.ndarray:
        params, level = unpack(x)
        moments = np.empty_like(moments_obs)
        for i, t in enumerate(times):
            m, v = level, 0.0
            for (lam, sigma, alpha, eps), x0 in zip(params, x0s):
                m += factor_mean_term(lam, sigma, alpha / eps, x0, t)
                v += factor_var_term(lam, sigma, 2.0 * alpha / eps**2, t)
            moments[i] = m, v
        # all mean errors, then all variance errors
        return ((moments - moments_obs) / scale).ravel(order="F")

    fit = least_squares(
        residuals, np.zeros(3 * n + 1), max_nfev=max_iterations,
        ftol=rel_tol, xtol=rel_tol, gtol=rel_tol,
    )
    params, level = unpack(fit.x)
    factors = tuple(
        FactorParams(
            lam=float(lam), sigma=float(sigma), x0=float(x0),
            measure=GammaJumpMeasure(float(alpha), float(eps)),
        )
        for (lam, sigma, alpha, eps), x0 in zip(params, x0s)
    )
    return MomentFitResult(
        spec=ModelSpec(factors=factors, floor=ConstantFloor(float(level)), horizon=initial.horizon),
        residual=2.0 * fit.cost,
        converged=fit.status > 0,
        evaluations=fit.nfev,
    )
