"""Adaptive Gauss-Kronrod quadrature and a double-exponential Fourier rule.

A single 15-point Kronrod rule with embedded 7-point Gauss rule drives every
numerical time integral in the library.  The integrator keeps a worklist of
panels, from [a, b] or a caller's mesh, evaluates the integrand on all pending
panels in one vectorized call, and bisects panels whose local Gauss/Kronrod
discrepancy exceeds a width-proportional share of the tolerance.  Each round
of that loop costs a fixed few dozen NumPy calls, while each point costs a
fraction of a microsecond, so callers that know where their integrand varies
fast build a first round once on a mesh graded there by a ratio of sqrt 2, so
that most of their integrals settle in it: the Fourier head's toward y = 0,
with the meshed call's bits, and the time-quadrature twins' toward the upper
end, as a plan on [0, 1] whose weights carry its panels' half-widths, so that
a call maps only the points.  This numerical route is kept alive permanently
as the cross-check twin of every closed-form integral.  The
Fourier rule (Ooura & Mori, J. Comput. Appl. Math. 112, 1999), built once for
each step h, serves the option-price tail: its error falls like exp(-c/h), so
the tail takes a coarse step where the remainder is smooth on the scale of the
phase's period and the default step elsewhere.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache
from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "fourier_rule", "gauss_kronrod"]


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
_NOISE = 100.0 * np.finfo(float).eps  # roundoff noise per unit of a panel's half-width and size


# gauss_kronrod's first round on [a, b]: its panels' setup, as _panels returns it; a plan's is
# on [0, 1], for any [a, b], with its Kronrod and Kronrod - Gauss weights times their half-widths
_Round = namedtuple("_Round", "a b panels folded", defaults=(None,))


def _panels(lo, hi):
    """One round's setup: (lo, hi, mid, half, points, |hi - lo|) of the panels [lo, hi]."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    points = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    return lo, hi, mid, half, points, np.abs(hi - lo)


def _first_round(a, b, breakpoints):
    """The first round on [a, b] from the mesh a, *breakpoints, b: every plain call builds it."""
    edges = np.array([a, *breakpoints, b], dtype=float)
    return _Round(a, b, _panels(edges[:-1], edges[1:]))


def _prebuilt_round(a: float, b: float, breakpoints=()) -> _Round:
    """A first round to pass as :func:`gauss_kronrod`'s ``breakpoints``, with read-only arrays."""
    first = _first_round(a, b, breakpoints)
    for array in first.panels:
        array.flags.writeable = False
    return first


def _plan(breakpoints) -> _Round:
    """A read-only first round on the unit mesh 0, *breakpoints, 1 that serves any [a, b]:
    its widths are shares of the span, and its weights carry their panels' half-widths."""
    first = _prebuilt_round(0.0, 1.0, breakpoints)
    difference = _W_KRONROD.copy()
    difference[_GAUSS_SLICE] -= _W_GAUSS
    half = first.panels[3][:, None]
    kronrod, difference = _W_KRONROD * half, difference * half
    kronrod.flags.writeable = difference.flags.writeable = False
    return first._replace(folded=(kronrod, difference))


def gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-12,
    max_panels: int = 16384,
    breakpoints=(),
):
    """Integrate a vectorized integrand over [a, b].

    ``f`` receives a flat array of evaluation points and must return an array
    of the same length (real or complex).  Returns ``(value, error_estimate)``.
    Panels are accepted once their Gauss/Kronrod discrepancy is below the
    panel's width-share of the tolerance; the panel budget guards against
    integrands the rule cannot resolve.  ``breakpoints``, inside the interval
    and in order from a to b, split [a, b] into the initial mesh, or are a
    :func:`_prebuilt_round` of it for these a and b (other ends raise ``ValueError``),
    whose read-only points ``f`` gets first, or a :func:`_plan` on [0, 1] mapped onto
    [a, b].  A settled first round returns unconcatenated.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("finite integration bounds required")
    first = breakpoints if isinstance(breakpoints, _Round) else _first_round(a, b, breakpoints)
    folded = first.folded
    if folded is None and (first.a, first.b) != (a, b):
        raise ValueError(f"a round built for [{first.a}, {first.b}] cannot serve [{a}, {b}]")
    if b == a:
        return 0.0, 0.0
    add = np.add.reduce
    lo, hi, mid, half, points, width = first.panels
    span, length = b - a, abs(b - a)
    if folded:  # a plan's widths are shares of the span already
        points, length = a + span * points, 1.0
    done_values = []  # the accepted panels' Kronrod sums and errors, one array per unsettled round
    done_errors = []
    total_panels = lo.size
    while True:
        if total_panels > max_panels:
            raise QuadratureError(
                f"adaptive Gauss-Kronrod exceeded {max_panels} panels on "
                f"[{a}, {b}] (abs_tol={abs_tol}, rel_tol={rel_tol})"
            )
        values = np.asarray(f(points)).reshape(lo.size, _NODES.size)
        # np.add.reduce is what np.sum and .sum call, less their Python wrappers
        if folded:
            kron = add(values * folded[0], axis=1) * span
            err = np.abs(add(values * folded[1], axis=1) * span)
        else:
            kron = add(values * _W_KRONROD, axis=1) * half
            gauss = add(values[:, _GAUSS_SLICE] * _W_GAUSS, axis=1) * half
            err = np.abs(kron - gauss)
        allowance = abs_tol
        if rel_tol:
            total = add(kron)
            coarse = total + add(np.concatenate(done_values)) if done_values else total
            allowance = max(abs_tol, rel_tol * abs(coarse))
        ok = err <= allowance * width / length
        settled = ok.all()
        if not settled:
            if folded:  # a plan's round goes on from its panels mapped onto [a, b]
                lo, hi, mid, half = a + span * lo, a + span * hi, a + span * mid, span * half
                folded, length = None, abs(span)
            # splitting cannot push a panel below its own roundoff noise; needed
            # only where a panel fails its share, as that test and this one are or-ed
            ok |= err <= _NOISE * np.abs(half) * np.abs(values).max(axis=1)
            settled = ok.all()
        if settled:
            break
        done_values.append(kron[ok])
        done_errors.append(err[ok])
        bad_lo, bad_hi, bad_mid = lo[~ok], hi[~ok], mid[~ok]
        lo, hi, mid, half, points, width = _panels(np.concatenate([bad_lo, bad_mid]),
                                                   np.concatenate([bad_mid, bad_hi]))
        total_panels += bad_lo.size
    if done_values:
        kron = np.concatenate([*done_values, kron])
        err = np.concatenate([*done_errors, err])
    value = total if rel_tol and not done_values else add(kron)  # a settled first round's sum
    return (complex(value) if np.iscomplexobj(value) else float(value)), float(add(err))


@cache
def fourier_rule(h: float = 0.05) -> tuple:
    """Nodes x and weights w with int_0^inf f(x) e^{ix} dx ~ sum w f(x) at step h, built once.

    x = M phi(t), phi(t) = t / (1 - exp(-2t - a(1 - e^-t) - b(e^t - 1))), M h = pi,
    at t = n h (sine part) and t = (n - 1/2) h (cosine part), n h in [-7, 5]:
    2 (12/h + 1) nodes, which fall double-exponentially fast onto the zeros of
    each part.  The error falls like exp(-c/h), c growing with the distance
    from the positive axis to f's nearest singularity, so an f that turns fast
    near x = 0 needs a small step: the default's 482 nodes.
    """
    b = 0.25
    m = math.pi / h
    a = b / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    # t in [-7, 5]; at steps 0.05 and 0.2 the end weights are below 1e-14 of the peak
    n = np.arange(round(-7.0 / h), round(5.0 / h) + 1)
    t = np.concatenate([n * h, (n - 0.5) * h])
    zero, c = t == 0.0, 2.0 + a + b  # phi is 0/0 at t = 0: take its limits there
    d = np.where(zero, 1.0, -np.expm1(-2.0 * t + a * np.expm1(-t) - b * np.expm1(t)))
    phi = np.where(zero, 1.0 / c, t / d)
    dphi = np.where(zero, 0.5 + (a - b) / (2.0 * c * c),
                    (d - t * (1.0 - d) * (2.0 + a * np.exp(-t) + b * np.exp(t))) / d**2)
    x = m * phi
    return x, m * h * dphi * np.where(np.arange(t.size) < n.size, 1j * np.sin(x), np.cos(x))
