import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpcurve import (
    ConstantFloor,
    DualCurveSpec,
    FactorParams,
    GammaJumpMeasure,
    InvalidModelError,
    ModelSpec,
    OptionSpec,
    bond_B,
    bond_path,
    bond_price,
    fictitious_bond_price,
    forward_rate,
    forward_spread,
    fourier_call_price_at,
    hjm_forward_path,
    integrated_rate,
    libor_forward,
    libor_path_closed_form,
    mc_bond_price,
    mc_discounted_bond,
    ois_forward,
    simulate_path,
)
from jumpcurve.multicurve import _states
from oracles import path_state


@pytest.fixture
def spread_factor():
    return FactorParams(lam=2.0, sigma=0.5, x0=0.005, measure=GammaJumpMeasure(1.0, 20.0))


@pytest.fixture
def dual(baseline_spec, spread_factor):
    return DualCurveSpec(
        base=baseline_spec,
        spread_factors=(spread_factor,),
        spread_floor=ConstantFloor(0.005),
    )


def random_dual(rng):
    n = int(rng.integers(1, 3))
    factors = tuple(
        FactorParams(
            lam=float(rng.uniform(0.1, 3.0)),
            sigma=float(rng.uniform(0.1, 2.0)),
            x0=float(rng.uniform(0.0, 0.05)),
            measure=GammaJumpMeasure(
                float(rng.uniform(0.2, 4.0)), float(rng.uniform(4.0, 40.0))
            ),
        )
        for _ in range(n)
    )
    base = ModelSpec(
        factors=factors,
        floor=ConstantFloor(float(rng.uniform(-0.01, 0.04))),
        horizon=12.0,
    )
    n_spread = int(rng.integers(0, 2))
    spread = tuple(
        FactorParams(
            lam=float(rng.uniform(0.2, 3.0)),
            sigma=float(rng.uniform(0.1, 1.0)),
            x0=float(rng.uniform(0.0, 0.02)),
            measure=GammaJumpMeasure(
                float(rng.uniform(0.2, 3.0)), float(rng.uniform(6.0, 40.0))
            ),
        )
        for _ in range(n_spread)
    )
    shared = int(rng.integers(0, n + 1)) if rng.random() < 0.4 else 0
    return DualCurveSpec(
        base=base,
        spread_factors=spread,
        spread_floor=ConstantFloor(float(rng.uniform(0.0, 0.03))),
        shared_factor_count=shared,
    )


class TestDualCurveSpec:
    def test_rejects_negative_spread_floor(self, baseline_spec):
        with pytest.raises(InvalidModelError, match="spread floor minimum -0.001") as info:
            DualCurveSpec(base=baseline_spec, spread_floor=ConstantFloor(-0.001))
        assert info.value.violations == ("spread floor minimum -0.001 must be nonnegative",)

    def test_rejects_bad_shared_count(self, baseline_spec):
        with pytest.raises(InvalidModelError, match="shared_factor_count 2") as info:
            DualCurveSpec(base=baseline_spec, shared_factor_count=2)
        assert info.value.violations == ("shared_factor_count 2 must lie in [0, 1]",)

    def test_effective_state_doubles_shared(self, baseline_spec, spread_factor):
        dual = DualCurveSpec(
            base=baseline_spec,
            spread_factors=(spread_factor,),
            spread_floor=ConstantFloor(0.0),
            shared_factor_count=1,
        )
        mapped = _states(dual, [0.03, 0.007])[1]
        assert np.allclose(mapped, [0.06, 0.007])
        eff = dual.fictitious
        assert eff.factors[0].sigma == 2.0 * baseline_spec.factors[0].sigma
        assert eff.factors[0].x0 == 2.0 * baseline_spec.factors[0].x0


class TestFictitiousBond:
    def test_single_curve_collapse_is_bit_exact(self, baseline_spec):
        dual = DualCurveSpec(base=baseline_spec)
        for T in (0.25, 1.0, 5.0):
            assert fictitious_bond_price(dual, 0.0, T) == bond_price(
                baseline_spec, 0.0, T
            )

    def test_terminal_is_one(self, dual):
        assert fictitious_bond_price(dual, 2.0, 2.0, [0.1, 0.01]) == 1.0

    def test_monte_carlo_oracle(self, dual):
        eff = dual.fictitious
        est = mc_bond_price(eff, 1.0, 20_000, seed=17)
        analytic = fictitious_bond_price(dual, 0.0, 1.0)
        assert abs(est.value - analytic) < 3.0 * est.std_error

    def test_discounted_fictitious_bond_is_martingale(self, dual):
        eff = dual.fictitious
        analytic = fictitious_bond_price(dual, 0.0, 1.0)
        est = mc_discounted_bond(eff, 0.5, 1.0, 20_000, seed=19)
        assert abs(est.value - analytic) < 3.0 * est.std_error

    def test_floor_bound(self, dual):
        p_bar = fictitious_bond_price(dual, 0.0, 2.0)
        eff = dual.fictitious
        assert 0.0 < p_bar <= math.exp(-eff.floor.integral(0.0, 2.0))


def assert_ordered(dual, t, T, state=None):
    """P_bar(t,T) <= P(t,T), up to 1e-12 relative and absolute; returns both bonds."""
    p_bar = fictitious_bond_price(dual, t, T, state)
    p = bond_price(dual.base, t, T, None if state is None else state[: dual.n_base])
    assert p_bar <= p * (1 + 1e-12) + 1e-12
    return p_bar, p


class TestBondOrdering:
    def test_equality_without_spread(self, baseline_spec):
        dual = DualCurveSpec(base=baseline_spec)
        p_bar, p = assert_ordered(dual, 0.0, 1.0)
        assert p_bar == p

    def test_deterministic_spread(self, baseline_spec):
        dual = DualCurveSpec(base=baseline_spec, spread_floor=ConstantFloor(0.01))
        p_bar, p = assert_ordered(dual, 0.5, 2.0, state=[0.04])
        assert p_bar == pytest.approx(p * math.exp(-0.01 * 1.5), rel=1e-12)
        assert p_bar < p

    def test_random_configuration_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            dual = random_dual(rng)
            state = rng.uniform(0.0, 0.1, size=dual.n_distinct)
            t = float(rng.uniform(0.0, 2.0))
            T = t + float(rng.uniform(0.1, 8.0))
            assert_ordered(dual, t, T, state=state)


class TestForwardSpread:
    def test_zero_without_spread(self, baseline_spec):
        dual = DualCurveSpec(base=baseline_spec)
        assert forward_spread(dual, 0.0, 2.0) == 0.0

    def test_settles_to_rate_spread(self, dual):
        got = forward_spread(dual, 0.75, 0.75, [0.03, 0.008])
        assert got == pytest.approx(0.005 + 0.008, rel=1e-12)

    def test_settles_to_rate_spread_with_sharing(self, baseline_spec, spread_factor):
        dual = DualCurveSpec(
            base=baseline_spec,
            spread_factors=(spread_factor,),
            spread_floor=ConstantFloor(0.002),
            shared_factor_count=1,
        )
        got = forward_spread(dual, 0.5, 0.5, [0.03, 0.008])
        assert got == pytest.approx(0.002 + 0.03 + 0.008, rel=1e-12)

    def test_nonnegative_on_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            dual = random_dual(rng)
            state = rng.uniform(0.0, 0.08, size=dual.n_distinct)
            t = float(rng.uniform(0.0, 1.5))
            for dT in (0.1, 1.0, 4.0):
                assert forward_spread(dual, t, t + dT, state) >= -1e-12


class TestOisForward:
    def test_flat_deterministic_curve(self):
        spec = ModelSpec(
            factors=(
                FactorParams(lam=1.0, sigma=1.0, x0=0.0, measure=GammaJumpMeasure(1e-13, 10.0)),
            ),
            floor=ConstantFloor(0.03),
            horizon=5.0,
        )
        dual = DualCurveSpec(base=spec)
        delta = 0.5
        got = ois_forward(dual, 0.0, 1.0, 1.5)
        assert got == pytest.approx((math.exp(0.03 * delta) - 1.0) / delta, rel=1e-10)

    def test_instantaneous_limit(self, dual):
        delta = 1e-4
        got = ois_forward(dual, 0.0, 1.0, 1.0 + delta)
        assert got == pytest.approx(forward_rate(dual.base, 0.0, 1.0), abs=1e-4)

    def test_flat_bond_ratio_gives_zero(self):
        spec = ModelSpec(
            factors=(
                FactorParams(lam=1.0, sigma=1.0, x0=0.0, measure=GammaJumpMeasure(1e-13, 10.0)),
            ),
            floor=ConstantFloor(0.0),
            horizon=5.0,
        )
        dual = DualCurveSpec(base=spec)
        assert ois_forward(dual, 0.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_tenor(self, dual):
        with pytest.raises(ValueError):
            ois_forward(dual, 0.0, 2.0, 2.0)


class TestLiborForward:
    def test_collapse_to_ois(self, baseline_spec):
        dual = DualCurveSpec(base=baseline_spec)
        assert libor_forward(dual, 0.0, 1.0, 1.5) == ois_forward(dual, 0.0, 1.0, 1.5)

    def test_deterministic_spread_hand_value(self, baseline_spec):
        m = 0.01
        dual = DualCurveSpec(base=baseline_spec, spread_floor=ConstantFloor(m))
        delta = 0.5
        p1 = bond_price(baseline_spec, 0.0, 1.0)
        p2 = bond_price(baseline_spec, 0.0, 1.5)
        expected = (p1 / p2 * math.exp(m * delta) - 1.0) / delta
        assert libor_forward(dual, 0.0, 1.0, 1.5) == pytest.approx(expected, rel=1e-12)

    def test_dominates_ois_on_grid(self, dual):
        for T1 in (0.25, 1.0, 3.0):
            for delta in (0.25, 0.5, 1.0):
                L = libor_forward(dual, 0.0, T1, T1 + delta)
                F = ois_forward(dual, 0.0, T1, T1 + delta)
                assert L >= F - 1e-12


class TestLiborPathClosedForm:
    def test_initial_condition(self, dual):
        eff = dual.fictitious
        path = simulate_path(eff, seed=23, path_index=0)
        got = libor_path_closed_form(dual, path, 0.0, 1.0, 1.5)
        p1 = fictitious_bond_price(dual, 0.0, 1.0)
        p2 = fictitious_bond_price(dual, 0.0, 1.5)
        assert got == pytest.approx((p1 / p2 - 1.0) / 0.5, rel=1e-12)

    def test_pathwise_identity(self, dual):
        eff = dual.fictitious
        worst = 0.0
        for p in range(30):
            path = simulate_path(eff, seed=29, path_index=p)
            for t in (0.2, 0.6, 0.95):
                eff_state = path_state(eff, path, t)
                delta = 0.5
                p1 = bond_price(eff, t, 1.0, eff_state)
                p2 = bond_price(eff, t, 1.5, eff_state)
                ratio = (p1 / p2 - 1.0) / delta
                closed = libor_path_closed_form(dual, path, t, 1.0, 1.5)
                worst = max(worst, abs(closed / ratio - 1.0))
        assert worst < 1e-10

    def test_pathwise_identity_with_sharing(self, baseline_spec, spread_factor):
        dual = DualCurveSpec(
            base=baseline_spec,
            spread_factors=(spread_factor,),
            spread_floor=ConstantFloor(0.002),
            shared_factor_count=1,
        )
        eff = dual.fictitious
        path = simulate_path(eff, seed=31, path_index=2)
        t = 0.5
        eff_state = path_state(eff, path, t)
        p1 = bond_price(eff, t, 1.0, eff_state)
        p2 = bond_price(eff, t, 2.0, eff_state)
        ratio = (p1 / p2 - 1.0) / 1.0
        closed = libor_path_closed_form(dual, path, t, 1.0, 2.0)
        assert closed == pytest.approx(ratio, rel=1e-10)

    def test_sign_of_deterministic_weights(self, dual):
        # exp(sigma B(s,T2) z) - exp(sigma B(s,T1) z) < 0 and
        # sigma (B(s,T1) - B(s,T2)) z > 0 for T1 < T2
        f = dual.base.factors[0]
        for s in (0.0, 0.4, 0.9):
            for z in (0.01, 0.2, 1.0):
                b1 = bond_B(f, s, 1.0)
                b2 = bond_B(f, s, 1.5)
                assert math.exp(f.sigma * b2 * z) - math.exp(f.sigma * b1 * z) < 0
                assert f.sigma * (b1 - b2) * z > 0



class TestOverflow:
    @pytest.mark.parametrize(
        "function, args",
        [
            (fictitious_bond_price, (0.0, 1.0)),
            (forward_spread, (0.0, 1.0)),
            (ois_forward, (0.0, 1.0, 1.25)),
            (libor_forward, (0.0, 1.0, 1.25)),
        ],
    )
    def test_inherits_overflow_error(self, spread_factor, function, args):
        # eta = 480 / 24 = 20, so the bond's drift -alpha eta overflows; the forward
        # f(0, 1) adds the jumps' 1.6e308 and the decayed state's 1.0e308
        huge = 1.7e308
        factor = FactorParams(lam=0.5, sigma=480.0, x0=huge, measure=GammaJumpMeasure(huge, 24.0))
        base = ModelSpec(factors=(factor,), floor=ConstantFloor(0.02), horizon=10.0)
        dual = DualCurveSpec(base=base, spread_factors=(spread_factor,),
                             spread_floor=ConstantFloor(0.005))
        with pytest.raises(OverflowError):
            function(dual, *args)

    # a base floor of 300 discounts P(0, 3.25) to 0.0 and P(0, 2.46) to a
    # subnormal 2.3e-321; the forward once failed with "float division by zero"
    @pytest.mark.parametrize("function", [ois_forward, libor_forward])
    @pytest.mark.parametrize("T1, T2, small", [(3.0, 3.25, r"0\.0"), (0.01, 2.46, r"2\.\d+e-321")],
                             ids=["zero", "subnormal"])
    def test_underflowing_bond_names_itself(self, baseline_factor, spread_factor, function,
                                            T1, T2, small):
        base = ModelSpec(factors=(baseline_factor,), floor=ConstantFloor(300.0), horizon=10.0)
        dual = DualCurveSpec(base=base, spread_factors=(spread_factor,),
                             spread_floor=ConstantFloor(0.005))
        message = rf"^P\(0\.0, {T2}\) underflows to {small}, so the forward from {T1} overflows$"
        with pytest.raises(OverflowError, match=message):
            function(dual, 0.0, T1, T2)

    # bond_path took math.log(P(0, T)) and failed with "math domain error"
    def test_underflowing_pathwise_bond_names_itself(self, baseline_factor, spread_factor):
        base = ModelSpec(factors=(baseline_factor,), floor=ConstantFloor(300.0), horizon=10.0)
        dual = DualCurveSpec(base=base, spread_factors=(spread_factor,),
                             spread_floor=ConstantFloor(0.005))
        path = simulate_path(dual.fictitious, seed=3)
        message = r"^P\(0\.0, 3\.0\) underflows to 0\.0, so the pathwise bond has no log$"
        with pytest.raises(OverflowError, match=message):
            bond_path(dual.fictitious, path, 0.0, 3.0)
        with pytest.raises(OverflowError, match=message):
            libor_path_closed_form(dual, path, 0.0, 3.0, 3.25)


class TestArgumentContract:
    @pytest.mark.parametrize(
        "state", [[math.nan, 0.01], [0.01, math.inf], [-math.inf, 0.01], [0.01]])
    def test_fictitious_bond_rejects_bad_state(self, dual, state):
        with pytest.raises(ValueError, match="state must hold a finite value per factor, 2 in all"):
            fictitious_bond_price(dual, 0.0, 1.0, state)

    @pytest.mark.parametrize("T2, message", [
        (2.0, r"need T1 < T2 <= horizon = 10.0, got T1=2.0, T2=2.0"),
        (math.nan, r"need T1 <= T2 = nan, got T1=2.0"),
        (math.inf, r"need T1 < T2 <= horizon = 10.0, got T1=2.0, T2=inf"),
    ])
    def test_forwards_reject_bad_tenor_by_name(self, dual, T2, message):
        path = simulate_path(dual.fictitious, seed=3)
        calls = (
            lambda: ois_forward(dual, 0.5, 2.0, T2),
            lambda: libor_forward(dual, 0.5, 2.0, T2),
            lambda: libor_path_closed_form(dual, path, 0.5, 2.0, T2),
        )
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


def _contract_model():
    base = ModelSpec(
        factors=(FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0)),),
        floor=ConstantFloor(0.02),
        horizon=10.0,
    )
    spread = FactorParams(lam=2.0, sigma=0.5, x0=0.005, measure=GammaJumpMeasure(1.0, 20.0))
    dual = DualCurveSpec(base=base, spread_factors=(spread,), spread_floor=ConstantFloor(0.005))
    return dual, simulate_path(dual.fictitious, seed=3)


_DUAL, _PATH = _contract_model()
_SPEC = _DUAL.fictitious
# each entry point and the names of its time arguments, in order
_TIMED_ENTRY_POINTS = {
    "ois_forward": (lambda t, T1, T2: ois_forward(_DUAL, t, T1, T2), ("t", "T1", "T2")),
    "libor_forward": (lambda t, T1, T2: libor_forward(_DUAL, t, T1, T2), ("t", "T1", "T2")),
    "libor_path_closed_form": (
        lambda t, T1, T2: libor_path_closed_form(_DUAL, _PATH, t, T1, T2), ("t", "T1", "T2")),
    "integrated_rate": (lambda t: integrated_rate(_SPEC, _PATH, t), ("t",)),
    "bond_path": (lambda t, T: bond_path(_SPEC, _PATH, t, T), ("t", "T")),
    "hjm_forward_path": (lambda t, T: hjm_forward_path(_SPEC, _PATH, t, T), ("t", "T")),
}
_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=12.0),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 10.0]),
)


@given(name=st.sampled_from(sorted(_TIMED_ENTRY_POINTS)),
       times=st.lists(_TIMES, min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_times_give_finite_values_or_errors_that_name_them(name, times):
    call, names = _TIMED_ENTRY_POINTS[name]
    try:
        value = call(*times[: len(names)])
    except (ValueError, ArithmeticError) as exc:
        assert re.search(rf"\b({'|'.join(names)})=", str(exc)), str(exc)
    else:
        assert math.isfinite(value)


_BASE_PATH = simulate_path(_DUAL.base, seed=3)
_OPTION = OptionSpec(strike=0.94, option_maturity=2.5, bond_maturity=3.0)
# each pathwise entry point as (dual, path) -> value, priced on dual.fictitious
_PATHWISE = {
    "integrated_rate": lambda dual, path: integrated_rate(dual.fictitious, path, 2.0),
    "bond_path": lambda dual, path: bond_path(dual.fictitious, path, 2.0, 3.0),
    "hjm_forward_path": lambda dual, path: hjm_forward_path(dual.fictitious, path, 2.0, 3.0),
    "fourier_call_price_at": (
        lambda dual, path: fourier_call_price_at(dual.fictitious, _OPTION, path, 2.0)),
    "libor_path_closed_form": (
        lambda dual, path: libor_path_closed_form(dual, path, 2.0, 3.0, 3.5)),
}


@pytest.mark.parametrize("name", sorted(_PATHWISE))
@pytest.mark.parametrize("dual, wrong, right, records, factors", [
    # a one-factor base path priced on the two-factor fictitious model
    (_DUAL, _BASE_PATH, _PATH, 1, 2),
    # a two-factor fictitious path priced on the one-factor fictitious model of a spread-free dual
    (DualCurveSpec(base=_DUAL.base), _PATH, _BASE_PATH, 2, 1),
], ids=["record-too-few", "record-too-many"])
def test_path_from_another_model_raises(name, dual, wrong, right, records, factors):
    # zip over factors and records once stopped at the shorter and gave a wrong number
    call = _PATHWISE[name]
    assert math.isfinite(call(dual, right))
    with pytest.raises(ValueError, match=f"the path has {records}, the model {factors}$"):
        call(dual, wrong)
