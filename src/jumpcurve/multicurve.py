"""Dual-curve extension: rate spread, fictitious bond, OIS and LIBOR forwards.

The short-rate spread is itself a floored sum of pure-jump factors,

    s(t) = mu*(t) + sum_{k=n+1}^{l} X_k(t),    mu*(t) >= 0,

and the fictitious (nontraded) short rate r_bar = r + s is again a model of
the same affine family with floor mu_bar = mu + mu* and factor set 1..l, so
every single-curve formula carries over verbatim.  Because mu* >= 0 forces
s >= 0 pathwise, the fictitious discount bond never exceeds the traded one:

    P_bar(t,T) <= P(t,T).

Simple-compounding forwards follow as bond ratios: the OIS forward from the
traded curve, the LIBOR forward from the fictitious curve,

    F(t,T1,T2) = ( P(t,T1)/P(t,T2) - 1 ) / delta,
    L(t,T1,T2) = ( P_bar(t,T1)/P_bar(t,T2) - 1 ) / delta,
    delta = T2 - T1.

Sharing factors between rate and spread correlates them: the last
``shared_factor_count`` base factors also enter the spread sum, so they hit
r_bar with coefficient two.  Since 2 X_k solves the same mean-reverting SDE
with doubled volatility and doubled start, the fictitious model stays inside
the affine family with those factors' sigma and x0 doubled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import bond_price, forward_rate
from .model import ConstantFloor, FloorFunction, InvalidModelError, ModelSpec, SummedFloor
from .model import _check_interval, _check_state
from .simulation import _bond_path

__all__ = [
    "DualCurveSpec",
    "fictitious_bond_price",
    "forward_spread",
    "ois_forward",
    "libor_forward",
    "libor_path_closed_form",
]


@dataclass(frozen=True)
class DualCurveSpec:
    """Base model plus spread factors, spread floor, and optional sharing.

    ``shared_factor_count`` marks how many of the base model's trailing
    factors also appear in the spread sum.  State vectors for the dual-curve
    operations hold one entry per distinct factor: base factors first, then
    the new spread factors.

    ``fictitious`` is the affine model of the fictitious short rate r_bar,
    built and validated once at construction: shared factors enter doubled
    (sigma and x0 scaled by two) and the floor is the pointwise sum mu + mu*.
    """

    base: ModelSpec
    spread_factors: tuple = ()
    spread_floor: FloorFunction = field(default_factory=lambda: ConstantFloor(0.0))
    shared_factor_count: int = 0
    fictitious: ModelSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "spread_factors", tuple(self.spread_factors))
        if not 0 <= self.shared_factor_count <= self.n_base:
            raise InvalidModelError([f"shared_factor_count {self.shared_factor_count} "
                                     f"must lie in [0, {self.n_base}]"])
        shared_from = self.n_base - self.shared_factor_count
        factors = tuple(
            replace(f, sigma=2.0 * f.sigma, x0=2.0 * f.x0) if k >= shared_from else f
            for k, f in enumerate(self.base.factors)
        )
        fictitious = ModelSpec(
            factors=factors + self.spread_factors,
            floor=SummedFloor((self.base.floor, self.spread_floor)),
            horizon=self.base.horizon,
        )
        # after the model check, which rejects a knotless floor that minimum() cannot read
        if (low := self.spread_floor.minimum()) < 0:
            raise InvalidModelError([f"spread floor minimum {low} must be nonnegative"])
        object.__setattr__(self, "fictitious", fictitious)

    @property
    def n_base(self) -> int:
        return self.base.n_factors

    @property
    def n_distinct(self) -> int:
        return self.base.n_factors + len(self.spread_factors)


def _states(dual: DualCurveSpec, state):
    """The base and the fictitious model's states; None for both initial states.

    The fictitious state is the distinct-factor state with the shared factors doubled.
    """
    if state is None:
        return None, None
    eff_state = np.array(_check_state(state, dual.n_distinct))
    eff_state[dual.n_base - dual.shared_factor_count: dual.n_base] *= 2.0
    return np.asarray(state, dtype=float)[: dual.n_base], eff_state


def fictitious_bond_price(dual: DualCurveSpec, t: float, T: float, state=None) -> float:
    """Nontraded discount bond P_bar(t,T) of the spread-augmented rate."""
    return bond_price(dual.fictitious, t, T, _states(dual, state)[1])


def forward_spread(dual: DualCurveSpec, t: float, T: float, state=None) -> float:
    """Forward-rate spread g(t,T) = f_bar(t,T) - f(t,T) >= 0, with g(t,t) = s(t)."""
    base_state, eff_state = _states(dual, state)
    f_bar = forward_rate(dual.fictitious, t, T, eff_state)
    f = forward_rate(dual.base, t, T, base_state)
    spread = f_bar - f
    if spread < -1e-12:
        raise AssertionError(
            f"forward spread {spread} is negative: internal consistency failure"
        )
    return spread


def _simple_forward(spec: ModelSpec, t: float, T1: float, T2: float, bond) -> float:
    """( P(t,T1)/P(t,T2) - 1 ) / (T2 - T1) on one model from bond(T) = P(t,T), for 0 <= t <= T1 < T2."""
    t, T1 = _check_interval(t, T1, T2, ("t", "T1", "T2"))
    if not T1 < T2 <= spec.horizon:
        raise ValueError(f"need T1 < T2 <= horizon = {spec.horizon}, got T1={T1}, T2={T2}")
    T2 = float(T2)
    p1, p2 = bond(T1), bond(T2)
    if not (p2 and math.isfinite(p1 / p2)):
        raise OverflowError(f"P({t}, {T2}) underflows to {p2}, so the forward from {T1} overflows")
    return (p1 / p2 - 1.0) / (T2 - T1)


def _bond_forward(spec: ModelSpec, t: float, T1: float, T2: float, state, near=None) -> float:
    """The simple forward on ``spec``'s closed-form bonds; ``near``, if given, is P(t,T1)."""
    return _simple_forward(spec, t, T1, T2, lambda T: near if near is not None and T == T1
                           else bond_price(spec, t, T, state))


def ois_forward(dual: DualCurveSpec, t: float, T1: float, T2: float, state=None) -> float:
    """Simple-compounding forward from the traded discount curve."""
    return _bond_forward(dual.base, t, T1, T2, _states(dual, state)[0])


def libor_forward(dual: DualCurveSpec, t: float, T1: float, T2: float, state=None) -> float:
    """Simple-compounding forward from the fictitious discount curve.

    Never below the OIS forward when the spread floor is nonnegative.
    """
    return _bond_forward(dual.fictitious, t, T1, T2, _states(dual, state)[1])


def _initial_bonds_and_forwards(dual: DualCurveSpec, T: float, tenor: float) -> tuple:
    """P(0,T), P_bar(0,T), and the OIS and LIBOR forwards over [T, T + tenor], reusing both."""
    p, p_bar = bond_price(dual.base, 0.0, T), fictitious_bond_price(dual, 0.0, T)
    return (p, p_bar, _bond_forward(dual.base, 0.0, T, T + tenor, None, p),
            _bond_forward(dual.fictitious, 0.0, T, T + tenor, None, p_bar))


def libor_path_closed_form(dual: DualCurveSpec, path, t: float, T1: float, T2: float) -> float:
    """Pathwise LIBOR forward from the two-maturity jump representation of the fictitious model.

    I_t cancels in the ratio of two pathwise bonds, which leaves
    P_bar(0,T1)/P_bar(0,T2) prod_k exp( int_0^t [cum_k(sigma B(s,T2)) - cum_k(sigma B(s,T1))] ds
    + sum_{u_j <= t} sigma_k (B_k(u_j,T1) - B_k(u_j,T2)) z_j ): the ratio of the two
    discounted bonds exp(-I_t) P_bar(t,T), so I_t is never computed.  ``path`` must be
    simulated from ``dual.fictitious``, the effective (l-factor) model.
    """
    eff, end = dual.fictitious, path.grid[-1]
    return _simple_forward(eff, t, T1, T2,
                           lambda T: _bond_path(eff, path, *_check_interval(t, T, end), 0.0))
