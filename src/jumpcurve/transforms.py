"""Characteristic functions, moment generating functions, density recovery.

The short rate at time t has the affine characteristic function

    CF[r_t](u) = exp(i u mu(t)) * prod_k exp( psi_k(t,u) x_k + rho_k(t,u) ),
    psi_k(t,u) = i u e^{-lam_k t},
    rho_k(t,u) = int_0^t cum_k( i u sigma_k e^{-lam_k (t-s)} ) ds,

where cum_k is the jump-measure cumulant.  For the gamma measure the time
integral also has the closed form

    rho_k(t,u) = (alpha/lam) * Log( (eps - i u sigma e^{-lam t}) / (eps - i u sigma) ),

valid with the principal logarithm because the argument stays in the right
half-plane whenever Re(i u) sigma < eps; on the real axis u = -i v this is
the moment-generating-function form used by :func:`short_rate_mgf`.
The driving subordinator itself has CF  exp( i u alpha t / (eps - i u) ),
an atom of mass exp(-alpha t) at zero, and an absolutely continuous part
recovered here by Fourier inversion of the atom-subtracted CF.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _sciint

from .model import FactorParams, GammaJumpMeasure, ModelSpec
from .quadrature import QuadratureError, gauss_kronrod

__all__ = [
    "AffineExponent",
    "factor_exponent",
    "short_rate_char_fn",
    "short_rate_mgf",
    "levy_char_fn",
    "levy_zero_atom",
    "levy_density",
]

# QAWFE controls for the density's Fourier inversion
_DENSITY_ABS_TOL = 1e-10
_DENSITY_LIMIT = 400


@dataclass(frozen=True)
class AffineExponent:
    """State coefficient and constant term of one factor's log-CF."""

    psi: complex
    rho: complex


def _check_exponent_domain(factor: FactorParams, u: complex) -> None:
    # cum(i u sigma e^{-lam (t-s)}) needs Re(i u) sigma < eps along [0, t];
    # the decay factor lies in (0, 1], so s = t is the binding point.
    growth = (1j * u).real * factor.sigma
    if growth >= factor.measure.epsilon:
        raise ValueError(
            "characteristic exponent undefined: Re(i u) * sigma must stay "
            f"below epsilon={factor.measure.epsilon}"
        )


def factor_exponent(
    factor: FactorParams,
    t: float,
    u: complex,
    method: str = "quadrature",
) -> AffineExponent:
    """Affine exponent (psi, rho) of one factor at transform argument u.

    The constant term is the time integral of the gamma cumulant along the
    decaying argument i u sigma e^{-lam (t-s)}, evaluated adaptively by
    default; ``method="closed"`` uses the principal-log antiderivative.
    """
    if t < 0:
        raise ValueError("need t >= 0")
    _check_exponent_domain(factor, u)
    lam, sigma = factor.lam, factor.sigma
    psi = 1j * u * math.exp(-lam * t)
    if t == 0:
        return AffineExponent(psi=complex(psi), rho=0j)
    if method == "closed":
        eps = factor.measure.epsilon
        alpha = factor.measure.alpha
        num = eps - 1j * u * sigma * math.exp(-lam * t)
        den = eps - 1j * u * sigma
        rho = (alpha / lam) * cmath.log(num / den)
        return AffineExponent(psi=complex(psi), rho=complex(rho))
    if method != "quadrature":
        raise ValueError("method must be 'closed' or 'quadrature'")

    def integrand(s):
        return factor.measure.levy_cumulant(
            1j * u * sigma * np.exp(-lam * (t - s))
        )

    rho, _ = gauss_kronrod(integrand, 0.0, t, abs_tol=1e-13, rel_tol=1e-11)
    return AffineExponent(psi=complex(psi), rho=complex(rho))


def short_rate_char_fn(spec: ModelSpec, t: float, u: float) -> complex:
    """CF[r_t](u) = exp(i u mu(t)) * prod_k exp(psi_k x_k + rho_k).

    Modulus is at most 1 for real u, with equality at u = 0.
    """
    if t < 0 or t > spec.horizon:
        raise ValueError("need 0 <= t <= horizon")
    exponent = 1j * u * float(spec.floor.value(t))
    for f in spec.factors:
        part = factor_exponent(f, t, u)
        exponent += part.psi * f.x0 + part.rho
    return cmath.exp(exponent)


def short_rate_mgf(spec: ModelSpec, t: float, v: float) -> float:
    """E[exp(v r_t)] from the gamma closed forms.

    exp( v mu(t) + sum_k (alpha/lam) log|(eps - v sigma e^{-lam t})/(eps - v sigma)|
         + sum_k v e^{-lam t} x_k ),
    defined for v below min_k eps_k / sigma_k.
    """
    if t < 0 or t > spec.horizon:
        raise ValueError("need 0 <= t <= horizon")
    bound = min(f.measure.epsilon / f.sigma for f in spec.factors)
    if v >= bound:
        raise ValueError(f"mgf diverges: v must stay below min eps/sigma = {bound}")
    exponent = v * float(spec.floor.value(t))
    for f in spec.factors:
        lam, sigma = f.lam, f.sigma
        eps, alpha = f.measure.epsilon, f.measure.alpha
        decay = math.exp(-lam * t)
        exponent += alpha / lam * math.log(
            abs((eps - v * sigma * decay) / (eps - v * sigma))
        )
        exponent += v * decay * f.x0
    return math.exp(exponent)


def levy_char_fn(measure: GammaJumpMeasure, t: float, u: float) -> complex:
    """CF of the subordinator at time t: exp( i u alpha t / (eps - i u) )."""
    if t < 0:
        raise ValueError("need t >= 0")
    return cmath.exp(1j * u * measure.alpha * t / (measure.epsilon - 1j * u))


def levy_zero_atom(measure: GammaJumpMeasure, t: float) -> float:
    """Mass of the atom at zero, exp(-alpha t): the no-jump probability."""
    if t < 0:
        raise ValueError("need t >= 0")
    return math.exp(-measure.alpha * t)


def levy_density(measure: GammaJumpMeasure, t: float, x: float) -> float:
    """Absolutely continuous density of the subordinator law at x > 0.

    Inverts the atom-subtracted characteristic function over the full real
    line, using Hermitian symmetry to fold it onto [0, inf):

        f(x) = (1/pi) int_0^inf Re CF_ac(u) cos(u x) + Im CF_ac(u) sin(u x) du,
        CF_ac(u) = exp(-alpha t) * ( exp(alpha t eps / (eps - i u)) - 1 ).

    The atom exp(-alpha t) at zero is never folded into the density; query it
    via :func:`levy_zero_atom`.  The oscillatory half-line integrals are
    evaluated with Fourier-weighted extrapolated quadrature.
    """
    if t <= 0:
        raise ValueError("need t > 0")
    if x <= 0:
        raise ValueError("density defined on the support interior x > 0")
    alpha, eps = measure.alpha, measure.epsilon
    atom = math.exp(-alpha * t)

    def cf_ac(u):
        return atom * (np.exp(alpha * t * eps / (eps - 1j * u)) - 1.0)

    real_part, real_err = _sciint.quad(
        lambda u: cf_ac(u).real, 0.0, np.inf,
        weight="cos", wvar=x, epsabs=_DENSITY_ABS_TOL, limit=_DENSITY_LIMIT,
    )
    imag_part, imag_err = _sciint.quad(
        lambda u: cf_ac(u).imag, 0.0, np.inf,
        weight="sin", wvar=x, epsabs=_DENSITY_ABS_TOL, limit=_DENSITY_LIMIT,
    )
    if not (math.isfinite(real_part) and math.isfinite(imag_part)):
        raise QuadratureError("Fourier inversion did not converge")
    return (real_part + imag_part) / math.pi
