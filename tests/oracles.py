"""Independent oracles, by quadrature and by decimal arithmetic, used to freeze expected values."""

import cmath
import decimal
import math

import numpy as np
from scipy import integrate

from jumpcurve import (
    ConstantFloor,
    bond_price,
    cumulant_time_integral,
    evolve_factor,
    integrated_rate,
)
from jumpcurve.options import _integrand_factory
from jumpcurve.quadrature import QuadratureError, fourier_rule, gauss_kronrod
from jumpcurve.simulation import _jump_free_integral, _path_jump_sum


def _support_cutoff(measure, b) -> float:
    """Point past which the integrand tail is below machine noise.

    The base density decays like exp(-eps z); a tilt with Re(b) > 0 slows
    the effective decay to eps - Re(b).
    """
    rate = measure.epsilon - max(np.asarray(b).real.max(initial=-np.inf), 0.0)
    return 60.0 / rate


def cumulant_z_oracle(measure, b):
    """Quadrature oracle for int (exp(b z) - 1) nu(dz) over the support.

    Handles complex b by integrating real and imaginary parts separately.
    """
    upper = _support_cutoff(measure, b)

    def density(z):
        return measure.alpha * measure.epsilon * np.exp(-measure.epsilon * z)

    if np.iscomplexobj(np.asarray(b)):
        re, _ = gauss_kronrod(
            lambda z: (np.exp(b * z) - 1.0).real * density(z), 0.0, upper, abs_tol=1e-12
        )
        im, _ = gauss_kronrod(
            lambda z: (np.exp(b * z) - 1.0).imag * density(z), 0.0, upper, abs_tol=1e-12
        )
        return re + 1j * im
    value, _ = gauss_kronrod(
        lambda z: np.expm1(b * z) * density(z), 0.0, upper, abs_tol=1e-12
    )
    return value


def tilted_z_oracle(measure, b):
    """Quadrature oracle for int z exp(b z) nu(dz) over the support."""
    upper = _support_cutoff(measure, b)
    value, _ = gauss_kronrod(
        lambda z: z
        * np.exp(b * z)
        * measure.alpha
        * measure.epsilon
        * np.exp(-measure.epsilon * z),
        0.0,
        upper,
        abs_tol=1e-12,
    )
    return value


_DIGITS = 40


def _decimal_floor(floor, t, T):
    """(mu(T), int_t^T mu) of a constant or piecewise-linear floor, exact in Decimal."""
    D = decimal.Decimal
    if isinstance(floor, ConstantFloor):
        return D(floor.level), D(floor.level) * (T - t)
    xs, ys = [D(x) for x in floor.times], [D(y) for y in floor.values]

    def value(s):
        if s <= xs[0]:
            return ys[0]
        if s >= xs[-1]:
            return ys[-1]
        j = max(i for i, x in enumerate(xs) if x <= s)
        return ys[j] + (ys[j + 1] - ys[j]) * (s - xs[j]) / (xs[j + 1] - xs[j])

    breaks = [t, *(x for x in xs if t < x < T), T]
    return value(T), sum((value(a) + value(b)) / 2 * (b - a) for a, b in zip(breaks, breaks[1:]))


def decimal_bond_and_forward(spec, t, T, state=None):
    """(P(t,T), f(t,T)) at a state, the initial one by default, by the closed forms in 40 digits.

    Written in sigma and epsilon, as the paper states the model, so it shares
    no arithmetic with the library's jump-scale units: with B = (e^{-lam tau} - 1)/lam,

        log P = -int_t^T mu + sum_k [ -alpha sigma tau / (eps lam + sigma)
                  - alpha eps / (eps lam + sigma) log(eps / (eps - sigma B)) + B x ],
        f     = mu(T) + sum_k [ -alpha sigma B / (eps - sigma B) + x e^{-lam tau} ].

    Times, parameters and knots enter as the exact values of their floats.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = _DIGITS
        t, T = D(t), D(T)
        tau = T - t
        level, integral = _decimal_floor(spec.floor, t, T)
        log_p, rate = -integral, level
        state = [f.x0 for f in spec.factors] if state is None else state
        for f, x in zip(spec.factors, state, strict=True):
            lam, sigma, x = D(f.lam), D(f.sigma), D(x)
            alpha, eps = D(f.measure.alpha), D(f.measure.epsilon)
            slope = ((-lam * tau).exp() - 1) / lam
            scale = eps * lam + sigma
            jump = sigma * slope
            log_p += (-alpha * sigma * tau / scale
                      - alpha * eps / scale * (eps / (eps - jump)).ln() + slope * x)
            rate += -alpha * jump / (eps - jump) + x * (-lam * tau).exp()
        return float(log_p.exp()), float(rate)


def qawfe_half_line_integral(integrand, slope):
    """int_0^inf integrand(y) dy by adaptive head plus scipy QAWFE tail.

    The Fourier-weighted extrapolation route against the asymptotic phase
    slope, kept as the reference for the double-exponential tail.  It makes
    four scalar QAWFE passes; its reliable range is |slope| >= 1e-6.
    """
    head, _ = gauss_kronrod(integrand, 0.0, 200.0, abs_tol=1e-11, rel_tol=0.0)

    def tail(part, weight):
        value, _ = integrate.quad(
            lambda y: getattr(integrand(y) * cmath.exp(-1j * slope * y), part),
            200.0, np.inf, epsabs=1e-11, limit=1000, weight=weight, wvar=abs(slope),
        )
        return value

    flip = -1.0 if slope < 0 else 1.0
    tail_re = tail("real", "cos") - flip * tail("imag", "sin")
    tail_im = flip * tail("real", "sin") + tail("imag", "cos")
    assert math.isfinite(tail_re) and math.isfinite(tail_im)
    return head + complex(tail_re, tail_im)


def qawfe_call_price(spec, option, path=None, t=0.0):
    """Time-t call price through :func:`qawfe_half_line_integral`."""
    integrand, slope, _ = _integrand_factory(spec, option, t, path)
    return 2.0 * qawfe_half_line_integral(integrand, slope).real


def jump_coefficient(factor, s, u, option, scale=None):
    """gamma_k(s, y) = sigma_k [u B_k(s,T) - (u-1) B_k(s,tau)] at u = a + iy, for s in [0, tau].

    ``scale`` multiplies the bracket in place of sigma_k when given.  Scalar s
    on math.expm1, as the closed forms take it; array s on numpy's.
    """
    lam = factor.lam
    expm1 = math.expm1 if isinstance(s, float) else np.expm1
    b_long = expm1(-lam * (option.bond_maturity - s)) / lam
    b_short = expm1(-lam * (option.option_maturity - s)) / lam
    return (factor.sigma if scale is None else scale) * (u * b_long - (u - 1.0) * b_short)


def closed_jump_exponent(factor, t, y, option):
    """Psi_k(y) from t to expiry: the closed cumulant-path integral along gamma_k(., y).

    The route that ``options._jump_exponent`` replaced, kept as its bit
    reference: gamma_k at both ends, the half-plane check and the constants
    are recomputed at every call, in the order the closed form takes them,
    in units where epsilon = 1 and sigma = eta = sigma/epsilon.
    """
    alpha, eta = factor.measure.alpha, factor.sigma / factor.measure.epsilon
    tau, u = option.option_maturity, option.dampening + 1j * np.asarray(y)
    g1 = jump_coefficient(factor, t, u, option, eta)
    g2 = jump_coefficient(factor, tau, u, option, eta)
    if 1.0 <= max(np.max(g1.real), np.max(g2.real)):
        raise ValueError("cumulant argument left the half-plane Re(g) < 1")
    scale = factor.lam + eta
    ratio = (g1 - g2) / (1.0 - g1)
    return -alpha * eta * (tau - t) / scale - alpha / scale * np.log1p(ratio)


def quadrature_jump_exponent(factor, t, y, option):
    """Psi_k(y) from t to expiry at a scalar y: the cumulant integrated along gamma_k(., y).

    The time-quadrature twin of the closed form, against derivation errors.
    """
    u = option.dampening + 1j * y
    value, _ = gauss_kronrod(
        lambda s: factor.measure.levy_cumulant(jump_coefficient(factor, s, u, option)),
        t, option.option_maturity, abs_tol=1e-13,
    )
    return value


def per_factor_integrand(spec, option, t=0.0, path=None):
    """Fourier integrand y -> w(y) exp(Theta + sum_k Psi_k [+ path terms]), one factor at a time.

    The integrand that ``options._integrand_factory`` built before its y-free
    scalars were computed once per price, kept as its bit reference: each call
    builds u - 1 again for every term, takes Psi_k by
    :func:`closed_jump_exponent` and the payoff weight's logs anew.
    """
    tau, T, a = option.option_maturity, option.bond_maturity, option.dampening
    p0T = bond_price(spec, 0.0, T)
    floor_term = _jump_free_integral(spec, tau)
    compensator = sum(cumulant_time_integral(f, 0.0, tau, T) for f in spec.factors)
    if path is not None:
        i_t = integrated_rate(spec, path, t)
        sum_long = _path_jump_sum(spec, path, t, T, "bond")
        sum_short = _path_jump_sum(spec, path, t, tau, "bond")

    def integrand(y):
        u = a + 1j * y
        exponent = (u - 1.0) * floor_term - u * compensator
        for f in spec.factors:
            exponent = exponent + closed_jump_exponent(f, t, y, option)
        if path is not None:
            exponent = exponent + (i_t + u * sum_long - (u - 1.0) * sum_short)
        log_p, log_k = math.log(p0T), math.log(option.strike)
        weight = np.exp(u * log_p - (u - 1.0) * log_k) / (2.0 * math.pi * u * (u - 1.0))
        return weight * np.exp(exponent)

    return integrand


def qawf_levy_density(measure, t, x):
    """Subordinator density at x by two scipy QAWF passes on the untilted CF.

    f(x) = (1/pi) int_0^inf Re CF_ac(u) cos(ux) + Im CF_ac(u) sin(ux) du, the
    Fourier-weighted extrapolation route that ``levy_density`` replaced, kept
    as its reference.  Its absolute tolerance is 1e-10, and it overflows once
    alpha t exceeds about 709.
    """
    alpha, eps = measure.alpha, measure.epsilon
    atom = math.exp(-alpha * t)

    def cf_ac(u):
        return atom * (np.exp(alpha * t * eps / (eps - 1j * u)) - 1.0)

    parts = [
        integrate.quad(lambda u: getattr(cf_ac(u), part), 0.0, np.inf,
                       weight=weight, wvar=x, epsabs=1e-10, limit=400)[0]
        for part, weight in (("real", "cos"), ("imag", "sin"))
    ]
    assert all(math.isfinite(p) for p in parts)
    return sum(parts) / math.pi


def tilted_levy_density(measure, t, x):
    """Subordinator density at x > 0 by DE Fourier inversion along an Esscher-tilted line.

    The inversion that ``levy_density``'s closed Bessel form replaced, kept as
    its reference.

    Inverts CF_ac(u) = exp(-alpha t) (exp(alpha t eps / (eps - i u)) - 1), the
    atom-subtracted CF, along Im u = kappa/x - eps, kappa = sqrt(alpha t eps x):
    an Esscher tilt that centres the law on x and keeps relative accuracy in
    both tails.  With v = u x and z = kappa^2 / (kappa - i v), and the one-jump
    term z inverted in closed form,

        f(x) = alpha t eps e^{-alpha t - eps x} + e^{-(sqrt(eps x) - sqrt(alpha t))^2}
               / (pi x) Re int_0^inf e^{-kappa} (e^z - 1 - z) e^{-iv} dv,

    whose O(1/v^2) integrand takes one call of the DE Fourier rule.  Above
    kappa = 200 it is e^{-v^2/(kappa - iv)} up to e^{-kappa}: a bump of width
    sqrt(kappa) with no oscillation for the rule to match, integrated by
    Gauss-Kronrod on [0, 10 sqrt(kappa)].  The atom exp(-alpha t) at zero is
    reported by ``levy_zero_atom``, never folded into the density.
    """
    if t <= 0:
        raise ValueError("need t > 0")
    if x <= 0:
        raise ValueError("density defined on the support interior x > 0")
    alpha, eps = measure.alpha, measure.epsilon
    root_ex, root_at = math.sqrt(eps) * math.sqrt(x), math.sqrt(alpha) * math.sqrt(t)  # finite
    kappa, gap = root_ex * root_at, root_ex - root_at
    if kappa <= 200.0:
        nodes, weights = fourier_rule()
        z = kappa * kappa / (kappa - 1j * nodes)
        body = math.exp(-kappa) * ((np.expm1(z) - z) @ weights.conj()).real
    else:
        w = math.sqrt(kappa)
        body = gauss_kronrod(lambda v: np.exp(-v * v / (kappa - 1j * v)).real, 0.0, 10.0 * w,
                             abs_tol=0.0, rel_tol=1e-13, breakpoints=w * np.arange(1.0, 10.0))[0]
    density = alpha * t * eps * math.exp(-alpha * t - eps * x)
    density += math.exp(-gap * gap) * body / (math.pi * x)
    if not math.isfinite(density):
        raise QuadratureError("Fourier inversion did not converge")
    return density


def path_state(spec, path, t):
    """Factor values X_k(t) along a simulated path, one ``evolve_factor`` per record.

    ``strict`` zip: a path drawn from a model with another factor count fails
    here instead of yielding a shorter state.
    """
    return np.array([evolve_factor(f, rec, [t])[0]
                     for f, rec in zip(spec.factors, path.jumps, strict=True)])


def _guarded_interp(floor, t):
    """np.interp through a piecewise-linear floor's knots at a float array t, and the knot range.

    Where a span's slope overflows, np.interp's non-finite result becomes
    y0 + f (y1 - y0), with f the fraction of the span clipped to [0, 1] and
    the result clipped to [y0, y1].
    """
    xs, ys = np.asarray(floor.times), np.asarray(floor.values)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.interp(t, xs, ys)
        if not np.all(np.isfinite(np.diff(ys) / np.diff(xs))):
            bad = ~np.isfinite(out) & ~np.isnan(t)
            i = np.clip(np.searchsorted(xs, t[bad], side="right") - 1, 0, xs.size - 2)
            frac = np.clip((t[bad] - xs[i]) / (xs[i + 1] - xs[i]), 0.0, 1.0)
            y0, y1 = ys[i], ys[i + 1]
            out[bad] = np.clip(y0 + frac * (y1 - y0), np.minimum(y0, y1), np.maximum(y0, y1))
    return out, float(ys.min()), float(ys.max())


def interp_floor_value(floor, t):
    """mu(t) of a piecewise-linear floor at a scalar t, by np.interp, clamped to the knot range.

    The NumPy route that ``PiecewiseLinearFloor.value``'s scalar branch
    replaced, kept as its bit reference: the clamp is Python's min and max.
    """
    out, low, high = _guarded_interp(floor, np.array([float(t)]))
    return min(max(float(out[0]), low), high)


def trapezoid_floor_integral(floor, t0, t1):
    """int_{t0}^{t1} mu of a piecewise-linear floor: np.sum of the trapezoids between its knots.

    The NumPy route that ``PiecewiseLinearFloor.integral`` replaced, kept as
    its bit reference: heights by np.interp with NumPy's clamp, and one
    ``np.sum``, which adds in sequence below eight terms and pairwise from eight.
    """
    if t1 == t0:
        return 0.0
    xs = np.asarray(floor.times)
    breaks = np.concatenate([[t0], xs[(xs > t0) & (xs < t1)], [t1]])
    heights, low, high = _guarded_interp(floor, breaks)
    heights = np.minimum(np.maximum(heights, low), high)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(0.5 * (heights[1:] + heights[:-1]) * np.diff(breaks)))


def pointwise_cumulative(floor, grid):
    """int_0^g mu at every grid point, one scalar ``floor.integral(0, g)`` per point.

    The per-point loop that ``FloorFunction.cumulative`` replaced in the
    path engine, kept as the reference for it.
    """
    return np.array([floor.integral(0.0, float(g)) for g in grid])


def rowwise_export_paths_csv(paths, destination):
    """Row-by-row trajectory writer that formats every cell from a numpy scalar.

    The writer that CLI ``simulate``'s ``paths.csv`` writer replaced, kept as its byte reference.
    """
    with open(destination, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("path_id,time,factor_index,X,short_rate,integrated_rate\n")
        for path_id, path in enumerate(paths):
            n = path.factors.shape[0]
            for i, t in enumerate(path.grid):
                for k in range(n):
                    handle.write(
                        f"{path_id},{t:.17g},{k + 1},{path.factors[k, i]:.17g},"
                        f"{path.short_rate[i]:.17g},{path.integrated[i]:.17g}\n"
                    )


def rowwise_export_jumps_csv(paths, destination):
    """Row-by-row jump writer that formats every cell from a numpy scalar.

    The writer that CLI ``simulate``'s ``jumps.csv`` writer replaced, kept as its byte reference.
    """
    with open(destination, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("path_id,factor_index,jump_time,jump_size\n")
        for path_id, path in enumerate(paths):
            for k, rec in enumerate(path.jumps):
                for t, z in zip(rec.times, rec.sizes):
                    handle.write(f"{path_id},{k + 1},{t:.17g},{z:.17g}\n")


def philox4x32_10(counter, seed):
    """Philox4x32-10 on Python ints: the four 32-bit output words of one counter block.

    The reference for the NumPy kernel of ``simulation._philox`` (Salmon et
    al., "Parallel random numbers: as easy as 1, 2, 3", SC'11): the 64-bit
    seed's two words are the key, bumped by the Weyl constants after every
    round, and each round multiplies, splits and XORs exactly as written in
    the paper, with no array arithmetic to share a defect with the kernel.
    """
    mask = 0xFFFFFFFF
    c0, c1, c2, c3 = counter
    k0, k1 = seed & mask, seed >> 32
    for _ in range(10):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & mask, (p0 >> 32) ^ c3 ^ k1, p0 & mask
        k0, k1 = (k0 + 0x9E3779B9) & mask, (k1 + 0xBB67AE85) & mask
    return c0, c1, c2, c3
