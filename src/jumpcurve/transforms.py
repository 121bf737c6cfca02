"""Characteristic functions, moment generating functions, the subordinator density.

The short rate at time t has the affine characteristic function

    CF[r_t](u) = exp(i u mu(t)) * prod_k exp( psi_k(t,u) x_k + rho_k(t,u) ),
    psi_k(t,u) = i u e^{-lam_k t},
    rho_k(t,u) = int_0^t cum_k( i u sigma_k e^{-lam_k (t-s)} ) ds,

where cum_k is the jump-measure cumulant.  With eps = 1, the path
i u eta e^{-lam (t-s)}, eta = sigma/eps, has c0 = 0: rho_k is the cumulant-path
integral of :mod:`.curves` with shift 0, whose principal branch holds whenever
Re(i u) eta < 1.  On the real axis u = -i v the same closed form gives
:func:`short_rate_mgf`.
The driving subordinator itself has CF  exp( i u alpha t / (eps - i u) ):
a Poisson(alpha t) mixture of Gamma(m, eps) laws, with an atom exp(-alpha t)
at zero (:func:`levy_zero_atom`) and on x > 0 the randomized gamma density
e^{-alpha t - eps x} sqrt(alpha t eps / x) I_1(2 sqrt(alpha t eps x)) of Feller
(Vol. II, ch. II), in closed form in :func:`levy_density`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curves import _check_half_plane, _cumulant_closed, _twin
from .model import FactorParams, GammaJumpMeasure, ModelSpec, _check_interval, _path_constants

__all__ = [
    "AffineExponent",
    "factor_exponent",
    "short_rate_char_fn",
    "short_rate_mgf",
    "levy_char_fn",
    "levy_zero_atom",
    "levy_density",
]


@dataclass(frozen=True)
class AffineExponent:
    """State coefficient and constant term of one factor's log-CF."""

    psi: complex
    rho: complex


def factor_exponent(
    factor: FactorParams,
    t: float,
    u: complex,
    method: str = "closed",
) -> AffineExponent:
    """Affine exponent (psi, rho) of one factor at transform argument u.

    The constant term is the time integral of the gamma cumulant along the
    decaying argument i u eta e^{-lam (t-s)}, eta = sigma/eps, by the principal-log
    antiderivative; ``method="quadrature"`` runs its adaptive twin in sigma and eps.
    Raises ValueError unless u is finite and Re(i u) eta < 1, where the cumulant converges.
    """
    t, _ = _check_interval(t, t)
    if not cmath.isfinite(u):
        raise ValueError(f"need a finite u, got u={u}")
    c = _path_constants(factor, 0.0)
    lam, eta = c[0], c[1]
    g1, g2 = 1j * u * eta * math.exp(-lam * t), 1j * u * eta  # the path at s = 0 and s = t
    _check_half_plane(g1.real, g2.real)
    if method == "closed":
        rho = _cumulant_closed(c, g1, g2, t, np.log1p)
    else:
        cumulant, sigma = factor.measure.levy_cumulant, factor.sigma
        rho = _twin(method, lambda s: cumulant(1j * u * sigma * np.exp(-lam * (t - s))), 0.0, t)
    return AffineExponent(psi=complex(1j * u * math.exp(-lam * t)), rho=complex(rho))


def short_rate_char_fn(spec: ModelSpec, t: float, u: float) -> complex:
    """CF[r_t](u) = exp(i u mu(t)) * prod_k exp(psi_k x_k + rho_k).

    Modulus is at most 1 for real u, with equality at u = 0.
    """
    t, _ = _check_interval(t, t, spec.horizon, ("t", "t", "horizon"))
    exponent = 1j * u * float(spec.floor.value(t))
    for f in spec.factors:
        part = factor_exponent(f, t, u)
        exponent += part.psi * f.x0 + part.rho
    return cmath.exp(exponent)


def short_rate_mgf(spec: ModelSpec, t: float, v: float) -> float:
    """E[exp(v r_t)]: the characteristic function at u = -i v, in closed form.

    Defined for v below min_k 1 / eta_k = eps_k / sigma_k.
    """
    bound = min(1.0 / c[1] for c in spec._paths)
    if not -math.inf < v < bound:
        raise ValueError(f"need a finite v below min eps/sigma = {bound}, got v={v}")
    return short_rate_char_fn(spec, t, -1j * v).real


def levy_char_fn(measure: GammaJumpMeasure, t: float, u: float) -> complex:
    """CF of the subordinator at time t: exp( i u alpha t / (eps - i u) ), for a finite u."""
    t, _ = _check_interval(t, t)
    if not cmath.isfinite(u):
        raise ValueError(f"need a finite u, got u={u}")
    return cmath.exp(1j * u * measure.alpha * t / (measure.epsilon - 1j * u))


def levy_zero_atom(measure: GammaJumpMeasure, t: float) -> float:
    """Mass of the atom at zero, exp(-alpha t): the no-jump probability."""
    t, _ = _check_interval(t, t)
    return math.exp(-measure.alpha * t)


def levy_density(measure: GammaJumpMeasure, t: float, x: float) -> float:
    """Absolutely continuous density of the subordinator law at x > 0.

    Given m >= 1 jumps by time t, the sum of m Exp(eps) sizes is Gamma(m, eps),
    and m is Poisson(alpha t).  Summing the mixture over m gives the modified
    Bessel series of the randomized gamma law (Feller, An Introduction to
    Probability Theory and Its Applications, Vol. II, ch. II):

        f(x) = e^{-alpha t - eps x} sqrt(alpha t eps / x) I_1(2 sqrt(alpha t eps x))
             = e^{-(sqrt(eps x) - sqrt(alpha t))^2} (kappa / x) i1e(2 kappa),

    with kappa = sqrt(alpha t eps x) and the scaled Bessel function
    i1e(z) = e^{-z} I_1(z).  Each square root is taken factor by factor, so
    the form stays finite from subnormal x to heavy factors; OverflowError is
    raised only once alpha t eps x or alpha t eps / x leaves double range.  The
    atom exp(-alpha t) at zero is reported by :func:`levy_zero_atom`, never
    folded into the density.
    """
    from scipy.special import i1e  # on first use, so `import jumpcurve` loads no scipy

    if not 0 < t < math.inf:
        raise ValueError(f"need 0 < t < inf, got t={t}")
    if not 0 < x < math.inf:
        raise ValueError(f"density defined on the support interior 0 < x < inf, got x={x}")
    root_ex = math.sqrt(measure.epsilon) * math.sqrt(x)
    root_at = math.sqrt(measure.alpha) * math.sqrt(t)
    kappa, gap = root_ex * root_at, root_ex - root_at
    density = math.exp(-gap * gap) * kappa / x * float(i1e(2.0 * kappa))
    if not math.isfinite(density):  # kappa or kappa / x beyond double range
        raise OverflowError(f"density at t={t}, x={x} overflows double precision")
    return density
