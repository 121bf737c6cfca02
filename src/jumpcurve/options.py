"""Fourier pricing of calls on zero-coupon bonds.

The time-0 price of a call with strike K, expiry tau, on the bond maturing
at T >= tau is the dampened-payoff Fourier integral

    C_0 = int_R  w(y) exp( Theta(y) + sum_k Psi_k(y) ) dy,

with dampening a > 1 and

    w(y)     = P(0,T)^{a+iy} / ( 2 pi (a+iy)(a+iy-1) K^{a+iy-1} ),
    Theta(y) = (a+iy-1) ( int_0^tau mu - sum_k x_k B_k(0,tau) )
               - (a+iy) sum_k int_0^tau cum_k( sigma_k B_k(s,T) ) ds,
    Psi_k(y) = int_t^tau cum_k( gamma_k(s,y) ) ds,
    gamma_k(s,y) = sigma_k [ (a+iy) B_k(s,T) - (a+iy-1) B_k(s,tau) ].

Re(gamma) <= 0 for a > 1 (B is more negative at the longer maturity).
gamma_k(., y) is a cumulant path with c0 = -sigma/lam, so Psi_k is the one
cumulant-path integral of :mod:`.curves`, whose module docstring states the
antiderivative and its principal-branch argument.  The closed form is the
default route; the time-quadrature twin stays available as its oracle.

The y-integral is folded onto [0, inf) by conjugate symmetry and integrated
adaptively on the head [0, A], A = 200.  Beyond it the integrand is the phase
e^{isy} of the asymptotic slope s times an amplitude c/y^2 + O(1/y^3), where c
weighs the no-jump outcome P(tau,T) = P_nj, the supremum of P(tau,T).  The
c/y^2 term is integrated in closed form, c E_2(-isA)/A, and the remainder by
one double-exponential Fourier rule on 482 fixed nodes (Ooura & Mori, J.
Comput. Appl. Math. 112, 1999) in one vectorized call.  As K -> P_nj, s =
log(P_nj/K) -> 0; below |s| = 1e-10 the rule runs at frequency 1e-10, which
moves the tail by at most 1e-10 int_0^inf x |r(A+x)| dx.  So prices keep to the
sharp bound C_0 <= P(0,tau) (P_nj - K)^+ at every strike, K = P_nj included.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import exp1

from .curves import _cumulant_integral, _slope, bond_price, cumulant_time_integral
from .model import FactorParams, ModelSpec
from .quadrature import QuadratureError, gauss_kronrod
from .simulation import _jump_free_integral, _jump_weights, integrated_rate

__all__ = [
    "OptionSpec",
    "PricingError",
    "call_jump_coefficient",
    "call_jump_exponent",
    "call_drift_exponent",
    "payoff_fourier_weight",
    "fourier_call_price",
    "fourier_call_price_at",
]

# The y-integral: adaptive Gauss-Kronrod on [0, _HEAD_RANGE], a DE rule beyond it at
# frequency >= _MIN_FREQUENCY, with the amplitude's 1/y^2 coefficient read at _FAR_Y.
_HEAD_RANGE = 200.0
_HEAD_ABS_TOL = 1e-11
_MIN_FREQUENCY = 1e-10
_FAR_Y = 1e8
# a price below -_NEGATIVE_PRICE_TOL is a quadrature failure, not a small price
_NEGATIVE_PRICE_TOL = 1e-9


class PricingError(RuntimeError):
    """Raised when the Fourier integral fails its numerical sanity checks."""


@dataclass(frozen=True)
class OptionSpec:
    """Call on a zero-coupon bond: strike, expiry, bond maturity, dampening."""

    strike: float
    option_maturity: float
    bond_maturity: float
    dampening: float = 1.5

    def __post_init__(self):
        if self.strike <= 0:
            raise ValueError("strike must be positive")
        if not 0 < self.option_maturity <= self.bond_maturity:
            raise ValueError("need 0 < option maturity <= bond maturity")
        if self.dampening <= 1:
            raise ValueError("dampening must exceed 1 for an integrable payoff")


def call_jump_coefficient(
    factor: FactorParams, s, y, option: OptionSpec
) -> complex:
    """z-coefficient gamma_k(s, y) of the dampened payoff's jump exponent.

    Takes s in [0, option maturity] and y, either of them an array.
    Guaranteed Re <= 0: B(s,T) <= B(s,tau) <= 0 and a > 1.
    """
    if not isinstance(s, np.ndarray) and not 0 <= s <= option.option_maturity:
        raise ValueError("need 0 <= s <= option maturity")
    u = option.dampening + 1j * y
    b_long = _slope(factor.lam, option.bond_maturity - s)
    b_short = _slope(factor.lam, option.option_maturity - s)
    return factor.sigma * (u * b_long - (u - 1.0) * b_short)


def call_jump_exponent(
    factor: FactorParams,
    t: float,
    y,
    option: OptionSpec,
    method: str = "closed",
) -> complex:
    """Time integral of the cumulant along gamma_k(s, y) from t to expiry.

    The cumulant-path integral of :mod:`.curves` with shift sigma, which
    checks that Re(eps - gamma) > 0 at both ends.  Accepts a scalar or array
    y in closed form and a scalar y in quadrature.
    """
    tau = option.option_maturity
    if not 0 <= t <= tau:
        raise ValueError("need 0 <= t <= option maturity")
    y_arr = np.asarray(y, dtype=complex)
    out = _cumulant_integral(
        factor, lambda s: call_jump_coefficient(factor, s, y_arr, option),
        factor.sigma, t, tau, method,
    )
    return out if y_arr.ndim else complex(out)


def _theta_parts(spec: ModelSpec, option: OptionSpec) -> tuple:
    """The y-independent pieces of Theta: the floor term and the compensator.

    floor term = int_0^tau mu - sum_k x_k B_k(0,tau), the jump-free I_tau;
    compensator = sum_k int_0^tau cum_k( sigma_k B_k(s,T) ) ds.
    """
    tau, T = option.option_maturity, option.bond_maturity
    compensator = sum(cumulant_time_integral(f, 0.0, tau, T) for f in spec.factors)
    return _jump_free_integral(spec, tau), compensator


def call_drift_exponent(spec: ModelSpec, option: OptionSpec, y) -> complex:
    """Deterministic exponent Theta(y) of the dampened payoff transform."""
    floor_term, compensator = _theta_parts(spec, option)
    y_arr = np.asarray(y, dtype=float)
    u = option.dampening + 1j * y_arr
    out = (u - 1.0) * floor_term - u * compensator
    return out if y_arr.ndim else complex(out)


def payoff_fourier_weight(y, option: OptionSpec, p0T: float) -> complex:
    """Fourier transform w(y) of the dampened call payoff.

    Decays like 1/y^2, which is what lets the y-integral be truncated.
    """
    if p0T <= 0:
        raise ValueError("need a positive initial bond price")
    a, strike = option.dampening, option.strike
    y_arr = np.asarray(y, dtype=float)
    u = a + 1j * y_arr
    out = np.exp(u * math.log(p0T) - (u - 1.0) * math.log(strike)) / (2.0 * math.pi * u * (u - 1.0))
    return out if y_arr.ndim else complex(out)


def _integrand_factory(spec: ModelSpec, option: OptionSpec, t: float = 0.0, path=None):
    """Vectorized integrand y -> w(y) exp(Theta + sum_k Psi_k [+ path terms]), and its slope.

    Psi_k runs from t to expiry.  Given a path, the exponent gains the time-t
    terms  I_t + (a+iy) S_T - (a+iy-1) S_tau  with
    S_m = sum_k sum_{u_j <= t} sigma_k B_k(u_j, m) z_j;  they are linear in
    (a+iy), so the two jump sums are collected once.  The slope is the
    asymptotic d/dy of the phase, the Fourier frequency of the tail.
    """
    tau, T, a = option.option_maturity, option.bond_maturity, option.dampening
    p0T = bond_price(spec, 0.0, T)
    floor_term, compensator = _theta_parts(spec, option)
    slope = floor_term - compensator + math.log(p0T / option.strike)
    if path is not None:
        i_t = integrated_rate(spec, path, t)
        sum_long = sum_short = 0.0
        for f, rec in zip(spec.factors, path.jumps):
            sum_long += f.sigma * float(_jump_weights(f, rec.times, t, T, "bond") @ rec.sizes)
            sum_short += f.sigma * float(_jump_weights(f, rec.times, t, tau, "bond") @ rec.sizes)
        slope = slope + sum_long - sum_short

    def integrand(y):
        u = a + 1j * y
        exponent = (u - 1.0) * floor_term - u * compensator
        for f in spec.factors:
            exponent = exponent + call_jump_exponent(f, t, y, option)
        if path is not None:
            exponent = exponent + (i_t + u * sum_long - (u - 1.0) * sum_short)
        return payoff_fourier_weight(y, option, p0T) * np.exp(exponent)

    return integrand, slope


@cache
def _fourier_rule() -> tuple:
    """Nodes x and weights w with int_0^inf f(x) e^{ix} dx ~ sum w f(x), built once.

    x = M phi(t), phi(t) = t / (1 - exp(-2t - a(1 - e^-t) - b(e^t - 1))), M h = pi,
    at t = n h (sine part) and t = (n - 1/2) h (cosine part): the nodes fall
    double-exponentially fast onto the zeros of each part.
    """
    h, b = 0.05, 0.25
    m = math.pi / h
    a = b / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    n = np.arange(-140, 101)  # t in [-7, 5]; the end weights are below 1e-14 of the peak
    t = np.concatenate([n * h, (n - 0.5) * h])
    zero, c = t == 0.0, 2.0 + a + b  # phi is 0/0 at t = 0: take its limits there
    d = np.where(zero, 1.0, -np.expm1(-2.0 * t + a * np.expm1(-t) - b * np.expm1(t)))
    phi = np.where(zero, 1.0 / c, t / d)
    dphi = np.where(zero, 0.5 + (a - b) / (2.0 * c * c),
                    (d - t * (1.0 - d) * (2.0 + a * np.exp(-t) + b * np.exp(t))) / d**2)
    x = m * phi
    return x, m * h * dphi * np.where(np.arange(t.size) < n.size, 1j * np.sin(x), np.cos(x))


def _half_line_integral(integrand, slope: float) -> complex:
    """int_0^inf integrand(y) dy: adaptive head plus the module docstring's DE tail."""
    head, _ = gauss_kronrod(integrand, 0.0, _HEAD_RANGE, abs_tol=_HEAD_ABS_TOL, rel_tol=0.0)
    nodes, weights = _fourier_rule()
    freq = max(abs(slope), _MIN_FREQUENCY)
    y = np.append(_HEAD_RANGE + nodes / freq, _FAR_Y)
    amplitude = integrand(y) * np.exp(-1j * slope * y)
    lead = amplitude[-1] * _FAR_Y**2
    remainder = (amplitude[:-1] - lead / y[:-1] ** 2) @ (weights if slope >= 0 else weights.conj())
    z = -1j * slope * _HEAD_RANGE  # E_2(z) = e^{-z} - z E_1(z), and E_2(0) = 1
    e2 = cmath.exp(-z) - (z * complex(exp1(z)) if slope else 0.0)
    tail = cmath.exp(-z) * remainder / freq + lead * e2 / _HEAD_RANGE
    if not cmath.isfinite(tail):
        raise QuadratureError(f"Fourier tail diverged beyond y={_HEAD_RANGE} (phase slope {slope})")
    return head + complex(tail)


def fourier_call_price(spec: ModelSpec, option: OptionSpec) -> float:
    """Time-0 call price from the dampened Fourier representation.

    The full-line integral is twice the real part of the half-line integral,
    since the integrand is conjugate-symmetric in y; the imaginary part of
    the half-line result is not used.  A price below -1e-9 raises
    :class:`PricingError`, and a smaller negative one is clipped to 0.  This
    is the time-0, path-free case of :func:`fourier_call_price_at`.
    """
    return fourier_call_price_at(spec, option, None, 0.0)


def fourier_call_price_at(
    spec: ModelSpec,
    option: OptionSpec,
    path,
    t: float,
) -> float:
    """Time-t call price along a simulated path.

    Extends the time-0 integrand with the accumulated jump exponent
    sum_k sum_{u_j <= t} gamma_k(u_j, y) z_j and the integrated-rate factor
    exp(I_t); at t = 0 this reduces exactly to :func:`fourier_call_price`.
    """
    if not 0 <= t <= option.option_maturity:
        raise ValueError("need 0 <= t <= option maturity")
    if option.bond_maturity > spec.horizon:
        raise ValueError("bond maturity exceeds the model horizon")
    integrand, slope = _integrand_factory(spec, option, t, path)
    price = 2.0 * _half_line_integral(integrand, slope).real
    if price < -_NEGATIVE_PRICE_TOL:
        raise PricingError(
            f"Fourier price {price} is negative beyond tolerance; "
            "the quadrature did not converge"
        )
    return max(price, 0.0)
