"""Adaptive Gauss-Kronrod quadrature for real- and complex-valued integrands.

A single 15-point Kronrod rule with embedded 7-point Gauss rule drives every
numerical time integral in the library.  The integrator keeps a worklist of
panels, evaluates the integrand on all pending panels in one vectorized call,
and bisects panels whose local Gauss/Kronrod discrepancy exceeds a
width-proportional share of the tolerance.  This numerical route is kept alive
permanently as the cross-check twin of every closed-form integral.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "gauss_kronrod"]


class QuadratureError(RuntimeError):
    """Raised when an adaptive rule cannot reach the requested tolerance."""


# 15-point Kronrod abscissae on [-1, 1] and weights; every second node is a
# 7-point Gauss node with the weights in _W_GAUSS.
_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_W_KRONROD = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_W_GAUSS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_SLICE = slice(1, 15, 2)


def gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-12,
    max_panels: int = 16384,
):
    """Integrate a vectorized integrand over [a, b].

    ``f`` receives a flat array of evaluation points and must return an array
    of the same length (real or complex).  Returns ``(value, error_estimate)``.
    Panels are accepted once their Gauss/Kronrod discrepancy is below the
    panel's width-share of the tolerance; the panel budget guards against
    integrands the rule cannot resolve.
    """
    if not np.isfinite(a) or not np.isfinite(b):
        raise ValueError("finite integration bounds required")
    if b == a:
        return 0.0, 0.0
    span = b - a
    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    done_values = []
    done_errors = []
    total_panels = 1
    while lo.size:
        if total_panels > max_panels:
            raise QuadratureError(
                f"adaptive Gauss-Kronrod exceeded {max_panels} panels on "
                f"[{a}, {b}] (abs_tol={abs_tol}, rel_tol={rel_tol})"
            )
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        points = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
        values = np.asarray(f(points)).reshape(lo.size, _NODES.size)
        kron = (values * _W_KRONROD).sum(axis=1) * half
        gauss = (values[:, _GAUSS_SLICE] * _W_GAUSS).sum(axis=1) * half
        err = np.abs(kron - gauss)
        coarse = np.sum(kron) + (np.sum(done_values) if done_values else 0.0)
        allowance = max(abs_tol, rel_tol * abs(coarse))
        # splitting cannot push a panel below its own roundoff noise
        noise = 100.0 * np.finfo(float).eps * np.abs(half) * np.abs(values).max(axis=1)
        ok = (err <= allowance * np.abs(hi - lo) / abs(span)) | (err <= noise)
        done_values.extend(kron[ok])
        done_errors.extend(err[ok])
        bad_lo, bad_hi, bad_mid = lo[~ok], hi[~ok], mid[~ok]
        lo = np.concatenate([bad_lo, bad_mid])
        hi = np.concatenate([bad_mid, bad_hi])
        total_panels += int(np.count_nonzero(~ok))
    value = np.sum(np.asarray(done_values))
    error = float(np.sum(np.asarray(done_errors)))
    return (complex(value) if np.iscomplexobj(value) else float(value)), error

