"""Affine bond pricing, forward curves, floor calibration.

Bond prices are exponential-affine in the factors,

    P(t,T) = exp( sum_k [ A_k(t,T) + B_k(t,T) X_k(t) ] ),
    B_k(t,T) = (exp(-lam_k (T-t)) - 1) / lam_k  <= 0,
    A_k(t,T) = int_t^T ( -mu(s)/n + int (exp(sigma_k B_k(s,T) z) - 1) nu_k(dz) ) ds.

In units where eps = 1 and sigma = eta = sigma/eps (see :mod:`.model`), the
jump part of A, the option exponents of :mod:`.options` and the transform
constant of :mod:`.transforms` are all one integral: the gamma cumulant
cum(g) = alpha g / (1 - g) along a path  g(s) = c0 + c1 e^{lam s}.  With
d = 1 - c0 the one antiderivative is

    int ds / (d - c1 e^{lam s}) = [lam s - log(d - c1 e^{lam s})] / (d lam),

so that, with  shift = -lam c0  and  scale = lam + shift,

    int_{t1}^{t2} cum(g(s)) ds
        = -alpha shift (t2-t1) / scale
          - alpha / scale * log( (1 - g(t2)) / (1 - g(t1)) ).

The bond path g = eta B(s,T) and the option paths have c0 = -eta/lam, so
shift = eta; the transform path i u eta e^{-lam (t-s)} has c0 = 0, so
shift = 0.  The logarithm is taken as log1p((g(t1) - g(t2)) / (1 - g(t1))),
which stays exact as t1 -> t2.  For complex g it is the principal branch, and
that is the right one when Re(1 - g) > 0 at both ends: Re g is monotone in
s, so the two ends certify the whole path, and the ratio of two right
half-plane numbers has argument in (-pi, pi) (Lord & Kahl, "Complex logarithms
in Heston-like models", Math. Finance 2010).  Real bond paths have g <= 0 and
need no check.  Where a real g(t1) dwarfs 1 so far that the ratio rounds to
-1, the logarithm is taken as log(1 - g(t2)) - log(1 - g(t1)) instead, for
every bond-path caller: bond prices, the pathwise and Monte Carlo bonds and
the Fourier compensator.  The Fourier exponent at expiry = maturity is such
a real path too, the same for every y, so it takes the same fallback.

The maturity-tilted integral behind forward rates collapses to

    int_{t1}^{t2} eta e^{-lam(T-s)} alpha / (1 - eta B(s,T))^2 ds
        = alpha ((b2 - b1) / ((1 - b1) (1 - b2))),   b_i = eta B(t_i,T),

one fraction, where alpha / (1 - b2) - alpha / (1 - b1) would cancel.

Each public closed form branches once on ``method``: ``"closed"`` evaluates it
from the path's two end values in scalar arithmetic (complex ends on the
transform path), and ``"quadrature"`` runs its twin, the same integrand in
NumPy on adaptive Gauss-Kronrod nodes, kept as a permanent oracle against
derivation errors.  Any other name raises ValueError.  Each bond-path integral
has one twin integrand, the factor-summed sum_k cum_k(eta_k B_k(s,T)) or its
tilted sum, on (k, 1) factor columns.  The spec-level twins of ``bond_price``
and ``forward_rate`` integrate it in one adaptive pass on the columns that a
:class:`.ModelSpec` builds once in ``_columns``; ``cumulant_time_integral``
and ``tilted_time_integral`` integrate it on their factor's one row, so a
one-factor spec gives the per-factor twin's bits.  With more factors the
panels are the sum's own, and the value moves by about an ulp from the sum of
per-factor twins.  :func:`.transforms.factor_exponent` keeps its own twin on
the complex transform path.  Every twin runs through :func:`_twin`, which
starts from a first round planned once in units of the span, graded toward
the upper end t2, where the bond, tilted and transform paths all vary fastest,
on a scale of 1/lam.  So a twin with lam (t2 - t1) up to about 20 settles in
one vectorized round: a round costs tens of NumPy calls, a point a fraction of
a microsecond.

The path-free parts of both closed forms, lam, eta, alpha, -alpha shift, scale
and alpha / scale, are Python floats from :func:`.model._path_constants`, which
a :class:`.ModelSpec` keeps per factor in ``_paths`` and ``calibrate_floor`` and
the per-factor functions call themselves.  The bond path's end value
g(T) = eta B(T,T) is -0.0 for every factor, so the closed forms pass it as a
literal.  Times pass the interval check as Python floats, so no NumPy scalar
reaches this arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    FactorParams,
    ModelSpec,
    PiecewiseLinearFloor,
    _check_interval,
    _check_state,
    _factor_columns,
    _path_constants,
    _slope,
)
from .quadrature import _plan, gauss_kronrod

__all__ = [
    "ForwardCurve",
    "bond_B",
    "bond_B_dT",
    "cumulant_time_integral",
    "tilted_time_integral",
    "bond_price",
    "forward_rate",
    "yield_curve",
    "calibrate_floor",
]

_QUAD_TOL = 1e-13
# the twins' first round: gauss_kronrod's plan on the unit mesh 1 - 2^{-k/2}, k = 1..8, in order
_TWIN_PLAN = _plan(tuple(1.0 - 2.0 ** (-k / 2) for k in range(1, 9)))


def _twin(method: str, integrand, t1: float, t2: float):
    """int_{t1}^{t2} integrand ds by adaptive quadrature: the twin of a ``method="closed"`` form.

    Starts from :data:`_TWIN_PLAN`, whose panels narrow toward t2, each 0.29
    of its far end's distance from t2, down to the last, span / 16 wide: the
    least depth that settles every twin of the tests' and the benchmark's specs
    in one round, with lam (t2 - t1) up to about 20; a stiffer factor bisects
    the failing panels near t2.  From a ratio of 2, a third of the forward-rate
    twins take a second round.  Acceptance is gauss_kronrod's, at abs_tol 1e-13.
    """
    if method != "quadrature":
        raise ValueError("method must be one of ('closed', 'quadrature')")
    return gauss_kronrod(integrand, t1, t2, abs_tol=_QUAD_TOL, breakpoints=_TWIN_PLAN)[0]


def bond_B(factor: FactorParams, t: float, T: float) -> float:
    """Affine slope B(t,T) = (exp(-lam (T-t)) - 1) / lam <= 0."""
    t, T = _check_interval(t, T)
    return _slope(factor.lam, T - t)


def bond_B_dT(factor: FactorParams, t: float, T: float) -> float:
    """Maturity derivative of the slope, -exp(-lam (T-t))."""
    t, T = _check_interval(t, T)
    return -math.exp(-factor.lam * (T - t))


def _check_half_plane(re_g1: float, re_g2: float) -> None:
    """ValueError unless Re g < 1 at both ends of a complex path: the principal log's condition."""
    if 1.0 <= max(re_g1, re_g2):
        raise ValueError("cumulant argument left the half-plane Re(g) < 1, g in units of epsilon")


def _cumulant_closed(c: tuple, g1, g2, span: float, log1p=math.log1p):
    """int_{t1}^{t2} cum(g(s)) ds along g(s) = c0 + c1 e^{lam s}, shift = -lam c0.

    The module docstring's closed form on a path's constants ``c`` (of
    :func:`.model._path_constants` with that shift), from its end values
    g1 = g(t1) and g2 = g(t2) and its span t2 - t1.  Real ends are a bond
    path, whose log falls back to log(1 - g2) - log(1 - g1) where
    ``math.log1p`` raises on a ratio rounded to -1; inf or nan where the term
    overflows.  Complex ends take ``log1p=np.log1p``, which never raises, and
    must have passed :func:`_check_half_plane`.
    """
    _, _, _, drift_rate, scale, weight = c
    try:
        log_ratio = log1p((g1 - g2) / (1.0 - g1))
    except ValueError:  # math.log1p(-1): g1 dwarfs 1 so far that the ratio rounded to -1
        log_ratio = math.log(1.0 - g2) - math.log(1.0 - g1)
    return drift_rate * span / scale - weight * log_ratio


def _tilted_closed(c: tuple, b1: float, b2: float) -> float:
    """The module docstring's tilted integral from the bond path's end values b1 and b2."""
    return c[2] * ((b2 - b1) / ((1.0 - b1) * (1.0 - b2)))


def _bond_ends(c: tuple, t1: float, t2: float, T: float) -> tuple:
    """The bond path's end values eta B(t1,T) and eta B(t2,T), on a factor's constants."""
    lam, eta = c[0], c[1]
    return eta * _slope(lam, T - t1), eta * _slope(lam, T - t2)


def cumulant_time_integral(
    factor: FactorParams,
    t1: float,
    t2: float,
    T: float,
    method: str = "closed",
) -> float:
    """int_{t1}^{t2} cum(eta B(s,T)) ds, the jump part of A over [t1, t2].

    Requires t1 <= t2 <= T.  The bond path of the module docstring (shift
    eta); ``method="quadrature"`` runs its twin, which must agree.
    """
    t1, t2 = _check_interval(t1, t2, T, ("t1", "t2", "T"))
    T = float(T)
    c = _path_constants(factor)
    if method == "closed":
        return _cumulant_closed(c, *_bond_ends(c, t1, t2, T), t2 - t1)
    return _twin(method, _summed_cumulant(_factor_columns((c,)), T), t1, t2)


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
    t1, t2 = _check_interval(t1, t2, T, ("t1", "t2", "T"))
    T = float(T)
    c = _path_constants(factor)
    if method == "closed":
        return _tilted_closed(c, *_bond_ends(c, t1, t2, T))
    return _twin(method, _summed_tilted(_factor_columns((c,)), T), t1, t2)


def _summed_cumulant(columns: tuple, T: float):
    """s -> sum_k cum_k(eta_k B_k(s,T)) on factor columns, the bond-path twins' integrand.

    Row k is alpha_k b / (1 - b) at b = eta_k B_k(s,T), the expression of
    ``levy_cumulant`` with eps = 1.  The bond path stays at or below 0 < 1,
    where its half-plane check cannot fail, so none is made.
    """
    lam, eta, alpha = columns

    def integrand(s):
        b = eta * (np.expm1(-lam * (T - s)) / lam)
        return np.add.reduce(alpha * b / (1.0 - b), axis=0)

    return integrand


def _summed_tilted(columns: tuple, T: float):
    """s -> sum_k eta_k e^{-lam_k(T-s)} tilted mean_k, the tilted twins' integrand.

    On factor columns, row k takes the mean at b = eta_k B_k(s,T) as
    alpha_k / (1 - b)^2, the expression of ``tilted_mean`` with eps = 1.
    """
    lam, eta, alpha = columns

    def integrand(s):
        decay = -lam * (T - s)
        b = eta * (np.expm1(decay) / lam)
        return np.add.reduce(eta * np.exp(decay) * (alpha / (1.0 - b) ** 2), axis=0)

    return integrand


def _name_overflowing_factor(spec: ModelSpec, t: float, T: float, state) -> None:
    """Raise the OverflowError naming the first factor whose closed-form bond term is not finite.

    A rescan of the loop of :func:`bond_price`, run only once log P is not
    finite, so that the loop itself checks nothing.
    """
    tau = T - t
    for i, (c, x, f) in enumerate(zip(spec._paths, state, spec.factors)):
        slope = _slope(c[0], tau)
        term = _cumulant_closed(c, c[1] * slope, -0.0, tau) + slope * x  # g(T) = eta B(T,T)
        if not math.isfinite(term):
            raise OverflowError(
                f"factor index {i}: the bond's term {term} over [{t}, {T}] overflows "
                f"double precision (sigma={f.sigma})")


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
    exp(-int_t^T mu) whenever every factor value is nonnegative.  Finite
    also where eta B(t,T) dwarfs 1 so far that the cumulant log's
    ratio rounds to -1 (see :func:`_cumulant_closed`).  Raises OverflowError
    when the closed forms overflow double precision, naming the factor index
    and sigma of the first factor whose term is not finite.
    """
    t, T = _check_interval(t, T, spec.horizon)
    # Python floats: the same IEEE products as numpy scalars, at less overhead
    state = spec._state0 if state is None else _check_state(state, spec.n_factors)
    log_p = -spec.floor.integral(t, T)
    tau = T - t
    if method == "closed":
        if T == t:  # exactly, also where -alpha eta overflows and times the span 0 is nan
            return 1.0
        for c, x in zip(spec._paths, state):
            slope = _slope(c[0], tau)  # B(t,T): one expm1 for the jump and the state term
            log_p += _cumulant_closed(c, c[1] * slope, -0.0, tau)  # g(T) = eta B(T,T)
            log_p += slope * x
    else:
        log_p += _twin(method, _summed_cumulant(spec._columns, T), t, T)
        for c, x in zip(spec._paths, state):
            log_p += _slope(c[0], tau) * x
    if not math.isfinite(log_p):
        if method == "closed":
            _name_overflowing_factor(spec, t, T, state)
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
    which collapses to mu(T) - sum_k cum(eta B_k(t,T)) + decayed state in
    closed form.  Satisfies f(t,t) = r(t).  Raises OverflowError when the
    closed forms overflow double precision.
    """
    t, T = _check_interval(t, T, spec.horizon)
    state = spec._state0 if state is None else _check_state(state, spec.n_factors)
    rate = float(spec.floor.value(T))
    tau = T - t
    if method == "closed":
        for c, x in zip(spec._paths, state):
            rate += _tilted_closed(c, c[1] * _slope(c[0], tau), -0.0)  # g(T) = eta B(T,T)
            rate += x * math.exp(-c[0] * tau)
    else:
        rate += _twin(method, _summed_tilted(spec._columns, T), t, T)
        for c, x in zip(spec._paths, state):
            rate += x * math.exp(-c[0] * tau)
    if not math.isfinite(rate):
        raise OverflowError(f"f({t}, {T}) = {rate} overflows double precision")
    return rate


def yield_curve(spec: ModelSpec, t: float, T: float, state=None) -> float:
    """Continuously-compounded spot rate R(t,T) = log P(t,T) / (t - T).

    Raises OverflowError when P(t,T) underflows to 0.
    """
    t, T = _check_interval(t, T, spec.horizon)
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
    # Python floats throughout: the factors' constants once, the market grid as a list
    starts = [(float(f.x0), _path_constants(f)) for f in factors]
    levels = []
    for T, f_mkt in zip(market.maturities.tolist(), market.rates.tolist()):
        adj = 0.0
        for x0, c in starts:
            adj += x0 * math.exp(-c[0] * T)
            adj += _tilted_closed(c, *_bond_ends(c, 0.0, T, T))
        level = f_mkt - adj
        if not math.isfinite(level):
            raise OverflowError(f"calibrated floor level at maturity {T} is {level}, not finite")
        levels.append(level)
    return PiecewiseLinearFloor(tuple(market.maturities), tuple(levels))
