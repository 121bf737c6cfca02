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

from .curves import bond_price, cumulant_time_integral, forward_rate
from .model import ConstantFloor, FloorFunction, ModelSpec, SummedFloor
from .simulation import _jump_weights

__all__ = [
    "DualCurveSpec",
    "BondOrdering",
    "effective_state",
    "fictitious_bond_price",
    "bond_ordering_check",
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
        if not 0 <= self.shared_factor_count <= self.base.n_factors:
            raise ValueError("shared factor count must lie in [0, n]")
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
        if self.spread_floor.minimum() < 0:
            raise ValueError("spread floor must be nonnegative everywhere")
        object.__setattr__(self, "fictitious", fictitious)

    @property
    def n_base(self) -> int:
        return self.base.n_factors

    @property
    def n_distinct(self) -> int:
        return self.base.n_factors + len(self.spread_factors)


def effective_state(dual: DualCurveSpec, state) -> np.ndarray:
    """Map a distinct-factor state onto the effective (doubled) factors."""
    state = np.asarray(state, dtype=float)
    if state.shape != (dual.n_distinct,):
        raise ValueError("state must hold one value per distinct factor")
    out = state.copy()
    shared_from = dual.n_base - dual.shared_factor_count
    out[shared_from: dual.n_base] *= 2.0
    return out


def _states(dual: DualCurveSpec, state):
    if state is None:
        base_state = dual.base.initial_state()
        eff_state = None
    else:
        state = np.asarray(state, dtype=float)
        base_state = state[: dual.n_base]
        eff_state = effective_state(dual, state)
    return base_state, eff_state


def fictitious_bond_price(dual: DualCurveSpec, t: float, T: float, state=None) -> float:
    """Nontraded discount bond P_bar(t,T) of the spread-augmented rate."""
    _, eff_state = _states(dual, state)
    return bond_price(dual.fictitious, t, T, eff_state)


@dataclass(frozen=True)
class BondOrdering:
    """Fictitious and traded bond prices with the ordering verdict."""

    fictitious: float
    traded: float
    ordered: bool


def bond_ordering_check(
    dual: DualCurveSpec, t: float, T: float, state=None, slack: float = 1e-12
) -> BondOrdering:
    """Evaluate both bonds and confirm P_bar <= P.

    A violation indicates an internal inconsistency (the nonnegative spread
    makes the ordering a theorem), so it raises rather than returning.
    """
    base_state, eff_state = _states(dual, state)
    p_bar = bond_price(dual.fictitious, t, T, eff_state)
    p = bond_price(dual.base, t, T, base_state)
    ordered = p_bar <= p * (1.0 + slack) + slack
    if not ordered:
        raise AssertionError(
            f"fictitious bond {p_bar} exceeds traded bond {p}: "
            "internal consistency failure"
        )
    return BondOrdering(fictitious=p_bar, traded=p, ordered=ordered)


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


def _check_tenor(t: float, T1: float, T2: float) -> None:
    if not 0 <= t <= T1:
        raise ValueError("need 0 <= t <= T1")
    if T1 >= T2:
        raise ValueError("need T1 < T2")


def ois_forward(dual: DualCurveSpec, t: float, T1: float, T2: float, state=None) -> float:
    """Simple-compounding forward from the traded discount curve."""
    _check_tenor(t, T1, T2)
    base_state, _ = _states(dual, state)
    delta = T2 - T1
    p1 = bond_price(dual.base, t, T1, base_state)
    p2 = bond_price(dual.base, t, T2, base_state)
    return (p1 / p2 - 1.0) / delta


def libor_forward(dual: DualCurveSpec, t: float, T1: float, T2: float, state=None) -> float:
    """Simple-compounding forward from the fictitious discount curve.

    Never below the OIS forward when the spread floor is nonnegative.
    """
    _check_tenor(t, T1, T2)
    _, eff_state = _states(dual, state)
    eff = dual.fictitious
    delta = T2 - T1
    p1 = bond_price(eff, t, T1, eff_state)
    p2 = bond_price(eff, t, T2, eff_state)
    return (p1 / p2 - 1.0) / delta


def libor_path_closed_form(
    dual: DualCurveSpec, path, t: float, T1: float, T2: float
) -> float:
    """Pathwise LIBOR forward from the two-maturity jump representation.

    L(t,T1,T2) = ( P_bar(0,T1)/P_bar(0,T2)
                   * prod_k exp( int_0^t [cum_k(sigma B(s,T2)) - cum_k(sigma B(s,T1))] ds
                                 + sum_{u_j <= t} sigma_k (B_k(u_j,T1) - B_k(u_j,T2)) z_j )
                   - 1 ) / delta,

    where ``path`` is a simulated path of the effective (l-factor) model.
    Must match the bond-ratio definition at the path's state exactly.
    """
    _check_tenor(t, T1, T2)
    eff = dual.fictitious
    delta = T2 - T1
    log_ratio = math.log(
        bond_price(eff, 0.0, T1) / bond_price(eff, 0.0, T2)
    )
    for f, rec in zip(eff.factors, path.jumps):
        log_ratio += cumulant_time_integral(f, 0.0, t, T2)
        log_ratio -= cumulant_time_integral(f, 0.0, t, T1)
        b1 = _jump_weights(f, rec.times, t, T1, "bond")
        b2 = _jump_weights(f, rec.times, t, T2, "bond")
        log_ratio += f.sigma * float((b1 - b2) @ rec.sizes)
    return (math.exp(log_ratio) - 1.0) / delta
