"""Independent quadrature oracles used to freeze expected values."""

import cmath
import math

import numpy as np
from scipy import integrate

from jumpcurve.options import _integrand_factory
from jumpcurve.quadrature import gauss_kronrod


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
    integrand, slope = _integrand_factory(spec, option, t, path)
    return 2.0 * qawfe_half_line_integral(integrand, slope).real


def pointwise_cumulative(floor, grid):
    """int_0^g mu at every grid point, one scalar ``floor.integral(0, g)`` per point.

    The per-point loop that ``FloorFunction.cumulative`` replaced in the
    path engine, kept as the reference for it.
    """
    return np.array([floor.integral(0.0, float(g)) for g in grid])


def rowwise_export_paths_csv(paths, destination):
    """Row-by-row trajectory writer that formats every cell from a numpy scalar.

    The writer that ``export_paths_csv`` replaced, kept as its byte reference.
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

    The writer that ``export_jumps_csv`` replaced, kept as its byte reference.
    """
    with open(destination, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("path_id,factor_index,jump_time,jump_size\n")
        for path_id, path in enumerate(paths):
            for k, rec in enumerate(path.jumps):
                for t, z in zip(rec.times, rec.sizes):
                    handle.write(f"{path_id},{k + 1},{t:.17g},{z:.17g}\n")
