"""Fourier pricing of calls on zero-coupon bonds.

The time-0 price of a call with strike K, expiry tau, on the bond maturing
at T >= tau is the dampened-payoff Fourier integral

    C_0 = int_R  w(y) exp( Theta(y) + sum_k Psi_k(y) ) dy,

with dampening a > 1 and

    w(y)     = P(0,T)^{a+iy} / ( 2 pi (a+iy)(a+iy-1) K^{a+iy-1} ),
    Theta(y) = (a+iy-1) ( int_0^tau mu - sum_k x_k B_k(0,tau) )
               - (a+iy) sum_k int_0^tau cum_k( sigma_k B_k(s,T) ) ds,
    Psi_k(y) = int_t^tau cum_k( gamma_k(s,y) ) ds,
    gamma_k(s,y) = eta_k [ (a+iy) B_k(s,T) - (a+iy-1) B_k(s,tau) ],  eps = 1 (:mod:`.curves`).

Re(gamma) <= 0 for a > 1 (B is more negative at the longer maturity).
gamma_k(., y) is a cumulant path with c0 = -eta/lam, so Psi_k is the one
cumulant-path integral of :mod:`.curves`, whose module docstring states the
antiderivative, its principal-branch argument and the half-plane check.  Here
Psi_k has only the closed form; the test suite keeps its time-quadrature twin.

The y-integral is folded onto [0, inf) by conjugate symmetry.  Adaptive
Gauss-Kronrod integrates the head [0, A], A = 200, from the mesh 0, A 2^{-k/2}
(k = 20..0), graded by a ratio of sqrt 2 toward the poles of w at y = ia and
i(a-1).  Near the forward at dampenings 1.5 to 3 it settles in its first
integrand call; far from it an outer panel, where the phase turns fastest, may
take one or two more, and at a = 1.1, poles 0.1 from the axis, it takes four.
Beyond A the integrand is the phase e^{isy} of the asymptotic slope s times an
amplitude c/y^2 + O(1/y^3), where c weighs the no-jump outcome
P(tau,T) = P_nj, the supremum of P(tau,T).  The c/y^2 term is
integrated in closed form, c E_2(-isA)/A, and the remainder by the DE Fourier
rule of :mod:`.quadrature`: at step 0.2 (122 nodes) where 0.5 <= |s| A < 100,
at step 0.05 (482 nodes) elsewhere.  In the rule's variable x = |s| (y - A) the
remainder's pole at y = 0 lies |s| A from the tail's start, so below the band
the coarse step misses it, and above the band it moves prices by an ulp.  A
high-activity factor can leave the amplitude far from c/y^2 at A: where
|A^2 amp(A) - c| > 2 |c| the remainder has a shape of its own, and the tail is
redone on the dense rule in one more call of 483 points.  So it is where
|c| > 0.2 (a large dampening in the money), as the coarse rule's error, up to
about 3e-16 |c|, would pass 1e-16 there.  The first rule's nodes ride in the
head's first call, so a price makes one or two vectorized calls in all, of 438
to 798 points on the test grid: near the forward, one call of 438 or 798.  The
integrand's y-free scalars, B_k at the ends of each gamma_k path among them,
are computed once per price.  As K -> P_nj, s = log(P_nj/K) -> 0; below
|s| = 1e-10 the rule runs at frequency 1e-10, which moves the tail by at most
1e-10 int_0^inf x |r(A+x)| dx.  So prices keep to the sharp bound
C_0 <= P(0,tau) (P_nj - K)^+ at every strike, K = P_nj included, up to the
head's roundoff, which grows with a and stays inside the 1e-9 PricingError
tolerance (8.5e-12 above the bound at a = 6).  Far below the forward or at a
large dampening the rules cannot reach the price: a factor of the integrand
beyond e^600, a head error estimate above 1e-9, a head out of panels or a
non-finite integrand value raises QuadratureError naming the strike and a.
A time-0 price outside [0, P(0,T)] by more than 1e-9 raises PricingError,
and a smaller excess, noise around a tiny price, is clipped.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .curves import _bond_ends, _check_half_plane, _cumulant_closed, bond_price
from .model import ModelSpec, _check_interval, _slope
from .quadrature import QuadratureError, fourier_rule, gauss_kronrod
from .simulation import _jump_free_integral, _path_jump_sum, integrated_rate

__all__ = [
    "OptionSpec",
    "PricingError",
    "fourier_call_price",
    "fourier_call_price_at",
]

# The y-integral: adaptive Gauss-Kronrod on [0, _HEAD_RANGE] from _HEAD_MESH, a DE rule
# beyond it at frequency >= _MIN_FREQUENCY, with the amplitude's 1/y^2 coefficient at _FAR_Y.
_HEAD_RANGE = 200.0
# breakpoints A 2^{-k/2}, k = 20..1, in order: 21 panels graded toward the poles near y = 0, the
# first A / 1024 wide.  That depth is the least at which near-the-money prices at a = 1.5 and 2
# settle in the head's first call: from k = 19..1, whose first panel is sqrt 2 wider, three in
# five of them take a second call, and from the ratio-2 mesh 0, A 2^-k (k = 10..1) all of them.
_HEAD_MESH = tuple(_HEAD_RANGE * 2.0 ** (-k / 2) for k in range(20, 0, -1))
_HEAD_ABS_TOL = 1e-11
_MIN_FREQUENCY = 1e-10
_FAR_Y = 1e8
# the tail's DE rule at step 0.2 (122 nodes) where |s| _HEAD_RANGE lies in _COARSE_TAIL and the
# amplitude has settled at the head's end, |A^2 amp(A) - c| <= _SETTLED_TAIL |c|, to a lead
# |c| <= _SMALL_TAIL, below which the coarse rule's error, up to about 3e-16 |c|, stays under
# 1e-16; at the default step 0.05 (482 nodes) otherwise
_COARSE_TAIL = (0.5, 100.0)
_SETTLED_TAIL = 2.0
_SMALL_TAIL = 0.2
# log of the largest integrand factor the rules can sum without overflow
_MAX_LOG_SIZE = 600.0
# a time-0 price outside [0, P(0,T)] by more than _PRICE_TOL, or a head error estimate above it,
# fails: the head accepts panels at their roundoff noise, which a huge integrand makes large
_PRICE_TOL = 1e-9


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
        for name in ("strike", "option_maturity", "bond_maturity", "dampening"):
            # Python floats, as the interval check makes of times: no NumPy scalar reaches the
            # closed forms, and a str, None, complex or array fails here, not in a comparison
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not 0 < self.strike < math.inf:
            raise ValueError(f"strike must be positive and finite, got {self.strike}")
        if not 0 < self.option_maturity <= self.bond_maturity:
            raise ValueError("need 0 < option maturity <= bond maturity")
        if not 1 < self.dampening < math.inf:  # an integrable payoff needs a > 1
            raise ValueError(f"dampening must be finite and exceed 1, got {self.dampening}")


def _jump_exponent(c: tuple, t: float, option: OptionSpec):
    """Psi_k from t to expiry in closed form, as a function of (u, u - 1) at u = a + iy.

    The cumulant-path integral of :mod:`.curves` with shift eta, on the
    factor's bond-path constants ``c`` (a spec's ``_paths`` entry), whose
    y-free terms and half-plane check are computed once: B_k at both ends of
    gamma_k's path, and Re gamma_k = eta (a B(s,T) - (a-1) B(s,tau)) for every y.
    At tau = T, gamma_k = eta B(s,T) for every y, so Psi_k is one value:
    the complex route's at y = 0, which every node would give bit for bit,
    or the real bond-path form where eta B dwarfs 1 so far that the
    ratio rounds to -1 and np.log1p gives -inf.
    """
    tau, T, a = option.option_maturity, option.bond_maturity, option.dampening
    lam, eta = c[0], c[1]
    b_long1, b_short1 = _slope(lam, T - t), _slope(lam, tau - t)
    b_long2, b_short2 = _slope(lam, T - tau), _slope(lam, tau - tau)
    span = tau - t

    def psi(u, u_less_1):
        g1 = eta * (u * b_long1 - u_less_1 * b_short1)
        g2 = eta * (u * b_long2 - u_less_1 * b_short2)
        return _cumulant_closed(c, g1, g2, span, np.log1p)

    if tau == T:
        at_zero = np.array([a + 0j])
        with np.errstate(divide="ignore", invalid="ignore"):
            value = psi(at_zero, at_zero - 1.0)[0]
        if value.real == math.inf:  # -weight log1p(-1)
            value = complex(_cumulant_closed(c, eta * b_long1, 0.0, span))
        return lambda u, u_less_1: np.broadcast_to(value, np.shape(u))
    _check_half_plane(eta * (a * b_long1 - (a - 1.0) * b_short1),
                      eta * (a * b_long2 - (a - 1.0) * b_short2))
    return psi


def _payoff_weight(u, u_less_1, log_p: float, log_k: float):
    """Fourier transform w of the dampened call payoff at u = a + iy; decays like 1/y^2."""
    return np.exp(u * log_p - u_less_1 * log_k) / (2.0 * math.pi * u * u_less_1)


def _integrand_factory(spec: ModelSpec, option: OptionSpec, t: float = 0.0, path=None):
    """Vectorized integrand y -> w(y) exp(Theta + sum_k Psi_k [+ path terms]), and its slope.

    Psi_k runs from t to expiry.  Given a path, the exponent gains the time-t
    terms  I_t + (a+iy) S_T - (a+iy-1) S_tau  with
    S_m = sum_k sum_{u_j <= t} sigma_k B_k(u_j, m) z_j;  they are linear in
    (a+iy), so the two jump sums are collected once.  The slope is the
    asymptotic d/dy of the phase, the Fourier frequency of the tail.  Every
    y-free scalar is computed here, once per price; the integrand takes the
    rules' own nodes, finite by construction, and checks none of them.
    """
    tau, T, a = option.option_maturity, option.bond_maturity, option.dampening
    p0T = bond_price(spec, 0.0, T)
    if not p0T:
        raise OverflowError(f"P(0.0, {T}) underflows to 0.0, so the payoff transform has no log")
    log_p, log_k = math.log(p0T), math.log(option.strike)
    # Theta's y-free parts: the jump-free I_tau and sum_k int_0^tau cum_k(sigma_k B_k(s,T)) ds
    floor_term = _jump_free_integral(spec, tau)
    compensator = sum(_cumulant_closed(c, *_bond_ends(c, 0.0, tau, T), tau) for c in spec._paths)
    # the log of the ratio keeps the slope's bits; at extreme strikes the ratio leaves double range
    moneyness = p0T / option.strike
    slope = floor_term - compensator + (
        math.log(moneyness) if 0.0 < moneyness < math.inf else log_p - log_k)
    # log sizes of w's numerator and of exp(exponent): their real parts depend on y only
    # through Re Psi_k <= 0
    log_weight = a * log_p - (a - 1.0) * log_k
    log_rest = (a - 1.0) * floor_term - a * compensator
    if path is not None:
        i_t = integrated_rate(spec, path, t)
        sum_long = _path_jump_sum(spec, path, t, T, "bond")
        sum_short = _path_jump_sum(spec, path, t, tau, "bond")
        slope = slope + sum_long - sum_short
        log_rest += i_t + a * sum_long - (a - 1.0) * sum_short
    # with w's denominator 2 pi u (u - 1), of size 2 pi a^2 up to y^2 <= _FAR_Y^2
    sizes = (log_weight, log_rest, log_weight + log_rest, math.log(2.0 * math.pi * a * a))
    if not all(size <= _MAX_LOG_SIZE for size in sizes):
        raise QuadratureError(f"the dampened integrand leaves double range: log sizes {sizes}")
    jump_exponents = [_jump_exponent(c, t, option) for c in spec._paths]

    def integrand(y):
        u = a + 1j * y
        u_less_1 = u - 1.0
        exponent = u_less_1 * floor_term - u * compensator
        for psi in jump_exponents:
            exponent = exponent + psi(u, u_less_1)
        if path is not None:
            exponent = exponent + (i_t + u * sum_long - u_less_1 * sum_short)
        return _payoff_weight(u, u_less_1, log_p, log_k) * np.exp(exponent)

    return integrand, slope


def _half_line_integral(integrand, slope: float) -> complex:
    """int_0^inf integrand(y) dy: graded-mesh head plus the module docstring's DE tail.

    The head's first call also takes the tail's nodes, so a head that settles
    in its first round, as it does near the forward, makes the price's one
    vectorized call.  NumPy's floating-point errors are ignored: a
    non-finite value fails the head's error check, or after it the tail's.
    """
    from scipy.special import exp1  # on first use, so `import jumpcurve` loads no scipy

    freq = max(abs(slope), _MIN_FREQUENCY)
    coarse = _COARSE_TAIL[0] <= freq * _HEAD_RANGE < _COARSE_TAIL[1]
    nodes, weights = fourier_rule(0.2) if coarse else fourier_rule()
    y = np.append(_HEAD_RANGE + nodes / freq, _FAR_Y)
    tail_values = []  # the tail's values from the head's first call

    def head_integrand(x):
        if tail_values:
            return integrand(x)
        values = integrand(np.concatenate((x, y)))
        tail_values.append(values[x.size:])
        return values[:x.size]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        head, head_error = gauss_kronrod(head_integrand, 0.0, _HEAD_RANGE, abs_tol=_HEAD_ABS_TOL,
                                         rel_tol=0.0, breakpoints=_HEAD_MESH)
        if not head_error <= _PRICE_TOL:
            raise QuadratureError(f"Fourier head error estimate {head_error} exceeds {_PRICE_TOL}")
        amplitude = tail_values[0] * np.exp(-1j * slope * y)
        lead = amplitude[-1] * _FAR_Y**2
        if coarse and (abs(amplitude[0] * y[0] ** 2 - lead) > _SETTLED_TAIL * abs(lead)
                       or abs(lead) > _SMALL_TAIL):
            nodes, weights = fourier_rule()  # an unsettled or large amplitude: the dense rule
            y = np.append(_HEAD_RANGE + nodes / freq, _FAR_Y)
            amplitude = integrand(y) * np.exp(-1j * slope * y)
        weights = weights if slope >= 0 else weights.conj()
        remainder = (amplitude[:-1] - lead / y[:-1] ** 2) @ weights
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
    the half-line result is not used.  A price below 0 or above P(0,T) by
    more than 1e-9 raises :class:`PricingError`, and a smaller excess is
    clipped.  This is the time-0, path-free case of :func:`fourier_call_price_at`.
    """
    return fourier_call_price_at(spec, option, None, 0.0)


def fourier_call_price_at(spec: ModelSpec, option: OptionSpec, path, t: float) -> float:
    """Time-t call price along a simulated path.

    Extends the time-0 integrand with the accumulated jump exponent
    sum_k sum_{u_j <= t} gamma_k(u_j, y) z_j and the integrated-rate factor
    exp(I_t); at t = 0, the one time that needs no path, it is :func:`fourier_call_price`.
    """
    t, _ = _check_interval(t, t, option.option_maturity, ("t", "t", "option maturity"))
    if path is None and t:
        raise ValueError(f"a time-t price needs a path, got path=None at t={t}")
    try:  # the module docstring says when the rules fail; the error names the option
        integrand, slope = _integrand_factory(spec, option, t, path)
        price = 2.0 * _half_line_integral(integrand, slope).real
    except QuadratureError as exc:
        raise QuadratureError(
            f"{exc} at strike={option.strike}, dampening={option.dampening}") from exc
    if price < -_PRICE_TOL:
        raise PricingError(
            f"Fourier price {price} is negative beyond tolerance; "
            "the quadrature did not converge"
        )
    bound = math.inf if t else bond_price(spec, 0.0, option.bond_maturity)
    if price > bound + _PRICE_TOL:
        raise PricingError(f"Fourier price {price} exceeds P(0, {option.bond_maturity}) = "
                           f"{bound} beyond tolerance; the quadrature did not converge")
    return min(max(price, 0.0), bound)
