import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpcurve import (
    ConstantFloor,
    DualCurveSpec,
    FactorParams,
    ForwardCurve,
    GammaJumpMeasure,
    InvalidModelError,
    ModelSpec,
    OptionSpec,
    PiecewiseLinearFloor,
    bond_B,
    bond_B_dT,
    bond_path,
    bond_price,
    calibrate_floor,
    conditional_moments,
    cumulant_time_integral,
    factor_exponent,
    fictitious_bond_price,
    forward_rate,
    forward_spread,
    fourier_call_price,
    hjm_forward_path,
    integrated_rate,
    levy_char_fn,
    levy_density,
    levy_zero_atom,
    libor_forward,
    mc_bond_price,
    mc_discounted_bond,
    mc_option_price,
    ois_forward,
    short_rate_char_fn,
    short_rate_mgf,
    simulate_path,
    tilted_time_integral,
    yield_curve,
)
from jumpcurve import curves
from jumpcurve.quadrature import gauss_kronrod
from oracles import decimal_bond_and_forward


def deterministic_spec(level=0.03, lam=1.0, x0=0.0):
    """Jump intensity driven to zero: the rate collapses to mu + x e^{-lam t}."""
    return ModelSpec(
        factors=(
            FactorParams(lam=lam, sigma=1.0, x0=x0, measure=GammaJumpMeasure(1e-14, 10.0)),
        ),
        floor=ConstantFloor(level),
        horizon=10.0,
    )


class TestBondB:
    def test_terminal(self, baseline_factor):
        assert bond_B(baseline_factor, 1.0, 1.0) == 0.0

    def test_long_maturity_limit(self, baseline_factor):
        assert bond_B(baseline_factor, 0.0, 10.0) == pytest.approx(-1.0, rel=1e-4)

    def test_hand_value(self, baseline_factor):
        assert bond_B(baseline_factor, 0.0, math.log(2.0)) == pytest.approx(-0.5, rel=1e-14)

    def test_rejects_reversed(self, baseline_factor):
        with pytest.raises(ValueError):
            bond_B(baseline_factor, 2.0, 1.0)

    @given(
        lam=st.floats(min_value=0.05, max_value=5.0),
        t=st.floats(min_value=0.0, max_value=4.0),
        dt=st.floats(min_value=0.01, max_value=4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotonicity_and_ode(self, lam, t, dt):
        f = FactorParams(lam=lam, sigma=1.0, x0=0.0, measure=GammaJumpMeasure(1.0, 5.0))
        T = t + dt
        b = bond_B(f, t, T)
        assert b < 0
        # increasing in t, decreasing in T
        assert bond_B(f, t + 0.4 * dt, T) > b
        assert bond_B(f, t, T + 0.5) < b
        # dB/dt = 1 + lam B pointwise
        assert math.exp(-lam * (T - t)) == pytest.approx(1.0 + lam * b, abs=1e-12)


class TestBondA:
    """The intercept A(t,T) = log P(t,T) at the zero state."""

    def test_terminal(self, baseline_spec):
        assert math.log(bond_price(baseline_spec, 1.0, 1.0, [0.0])) == 0.0

    def test_no_jump_limit(self):
        spec = deterministic_spec(level=0.03)
        a = math.log(bond_price(spec, 0.5, 2.0, [0.0]))
        assert a == pytest.approx(-0.03 * 1.5, rel=1e-10)

    def test_closed_vs_quadrature(self, baseline_factor):
        spec = ModelSpec(factors=(baseline_factor,), floor=ConstantFloor(0.0), horizon=10.0)
        closed = math.log(bond_price(spec, 0.0, 1.0, [0.0], method="closed"))
        quad = math.log(bond_price(spec, 0.0, 1.0, [0.0], method="quadrature"))
        assert closed == pytest.approx(quad, rel=1e-10)

    def test_closed_vs_quadrature_grid(self, two_factor_spec):
        third = FactorParams(lam=3.0, sigma=0.2, x0=0.0, measure=GammaJumpMeasure(5.0, 40.0))
        factors = two_factor_spec.factors + (third,)
        for f in factors:
            for (t, T) in ((0.0, 0.5), (0.25, 1.0), (1.0, 5.0), (3.0, 8.0)):
                c = cumulant_time_integral(f, t, T, T, method="closed")
                q = cumulant_time_integral(f, t, T, T, method="quadrature")
                assert c == pytest.approx(q, rel=1e-10, abs=1e-14)
                ct = tilted_time_integral(f, t, T, T, method="closed")
                qt = tilted_time_integral(f, t, T, T, method="quadrature")
                assert ct == pytest.approx(qt, rel=1e-10, abs=1e-14)


class TestBondDerivatives:
    def test_slope_derivative_at_terminal(self, baseline_factor):
        assert bond_B_dT(baseline_factor, 1.0, 1.0) == -1.0

    def test_slope_derivative_finite_difference(self, baseline_factor):
        h = 1e-6
        for (t, T) in ((0.0, 1.0), (0.5, 3.0)):
            fd = (bond_B(baseline_factor, t, T + h) - bond_B(baseline_factor, t, T - h)) / (2 * h)
            assert bond_B_dT(baseline_factor, t, T) == pytest.approx(fd, abs=1e-8)

    def test_intercept_derivative_finite_difference(self, baseline_spec):
        # dA/dT is minus the forward rate at the zero state
        zero = [0.0]
        h = 1e-6
        for (t, T) in ((0.0, 1.0), (0.5, 3.0)):
            fd = (
                math.log(bond_price(baseline_spec, t, T + h, zero))
                - math.log(bond_price(baseline_spec, t, T - h, zero))
            ) / (2 * h)
            closed = -forward_rate(baseline_spec, t, T, zero)
            assert closed == pytest.approx(fd, abs=1e-6)
            quad = -forward_rate(baseline_spec, t, T, zero, method="quadrature")
            assert closed == pytest.approx(quad, rel=1e-10)


class TestBondPrice:
    def test_terminal_is_one(self, baseline_spec):
        assert bond_price(baseline_spec, 1.0, 1.0, [0.3]) == 1.0

    def test_deterministic_limit(self):
        spec = deterministic_spec(level=0.03)
        assert bond_price(spec, 0.0, 2.0) == pytest.approx(math.exp(-0.06), rel=1e-10)

    def test_floor_bound(self, baseline_spec):
        for x in (0.0, 0.05, 0.4):
            p = bond_price(baseline_spec, 0.5, 3.0, [x])
            bound = math.exp(-baseline_spec.floor.integral(0.5, 3.0))
            assert p <= bound

    def test_monte_carlo_oracle(self, baseline_spec):
        est = mc_bond_price(baseline_spec, 1.0, 20_000, seed=31)
        analytic = bond_price(baseline_spec, 0.0, 1.0)
        assert abs(est.value - analytic) < 3.0 * est.std_error

    def test_zeta_nonpositive(self, baseline_factor):
        # exp(sigma B z) - 1 <= 0 for positive jump sizes
        for (t, T) in ((0.0, 1.0), (0.4, 2.0)):
            b = bond_B(baseline_factor, t, T)
            for z in (0.01, 0.1, 1.0, 5.0):
                assert math.expm1(baseline_factor.sigma * b * z) <= 0.0


class TestTimeContract:
    @pytest.mark.parametrize("function", [bond_price, forward_rate, yield_curve])
    @pytest.mark.parametrize("t, T, message", [
        (math.nan, 1.0, "need t >= 0, got t=nan"),
        (-0.5, 1.0, "need t >= 0, got t=-0.5"),
        (0.0, math.nan, "need t <= T, got t=0.0, T=nan"),
        (0.0, 11.0, "need T <= horizon = 10.0, got T=11.0"),
        (0.0, math.inf, "need T <= horizon = 10.0, got T=inf"),
    ])
    def test_bad_times_name_the_argument(self, baseline_spec, function, t, T, message):
        with pytest.raises(ValueError, match=message):
            function(baseline_spec, t, T)

    @pytest.mark.parametrize("function", [bond_price, forward_rate])
    def test_reversed_times_name_both(self, baseline_spec, function):
        with pytest.raises(ValueError, match="need t <= T, got t=2.0, T=1.0"):
            function(baseline_spec, 2.0, 1.0)

    @pytest.mark.parametrize("function", [bond_price, forward_rate, yield_curve])
    @pytest.mark.parametrize("state", [[math.nan], [math.inf], [-math.inf], [0.01, 0.02]])
    def test_bad_state_names_the_argument(self, baseline_spec, function, state):
        # a NaN state once made bond_price raise "log P(0.0, 1.0) = nan overflows"
        with pytest.raises(ValueError, match="state must hold a finite value per factor, 1 in all"):
            function(baseline_spec, 0.0, 1.0, state)

    def test_underflowing_price_names_its_yield(self, baseline_factor):
        # P underflows to 0.0, whose log once failed with "math domain error"
        spec = ModelSpec(factors=(baseline_factor,), floor=ConstantFloor(1e308), horizon=10.0)
        assert bond_price(spec, 0.0, 0.25) == 0.0
        with pytest.raises(OverflowError, match=r"P\(0.0, 0.25\) underflows to 0.0"):
            yield_curve(spec, 0.0, 0.25)

    def test_horizon_itself_is_inside(self, baseline_spec):
        assert 0.0 < bond_price(baseline_spec, 0.0, 10.0) < 1.0
        assert math.isfinite(forward_rate(baseline_spec, 10.0, 10.0))


class TestForwardRate:
    def test_short_maturity_is_short_rate(self, baseline_spec):
        got = forward_rate(baseline_spec, 0.7, 0.7, [0.04])
        assert got == pytest.approx(0.02 + 0.04, rel=1e-14)

    def test_no_jump_limit(self):
        spec = deterministic_spec(level=0.03, lam=2.0, x0=0.05)
        T = 1.5
        assert forward_rate(spec, 0.0, T) == pytest.approx(
            0.03 + 0.05 * math.exp(-2.0 * T), rel=1e-9
        )

    def test_matches_log_price_derivative(self, baseline_spec, two_factor_spec):
        h = 1e-5
        for spec in (baseline_spec, two_factor_spec):
            state = spec.initial_state() + 0.03
            for (t, T) in ((0.0, 1.0), (0.5, 2.5)):
                fd = -(
                    math.log(bond_price(spec, t, T + h, state))
                    - math.log(bond_price(spec, t, T - h, state))
                ) / (2 * h)
                assert forward_rate(spec, t, T, state) == pytest.approx(fd, abs=1e-6)

    def test_closed_vs_quadrature(self, baseline_spec):
        closed = forward_rate(baseline_spec, 0.25, 2.0)
        quad = forward_rate(baseline_spec, 0.25, 2.0, method="quadrature")
        assert closed == pytest.approx(quad, rel=1e-10)


_FACTORS = st.lists(
    st.builds(
        FactorParams,
        lam=st.floats(0.05, 5.0),
        sigma=st.floats(0.05, 3.0),
        x0=st.floats(0.0, 0.1),
        measure=st.builds(GammaJumpMeasure, st.floats(0.01, 10.0), st.floats(1.0, 50.0)),
    ),
    min_size=1,
    max_size=3,
)
_NONNEGATIVE_FLOORS = st.one_of(
    st.builds(ConstantFloor, st.floats(0.0, 0.1)),
    st.lists(st.tuples(st.floats(0.0, 12.0), st.floats(0.0, 0.1)), min_size=1, max_size=4,
             unique_by=lambda knot: knot[0]).map(
        lambda knots: PiecewiseLinearFloor(*zip(*sorted(knots)))),
)


class TestValidSpecProperties:
    @given(
        factors=_FACTORS,
        floor=_NONNEGATIVE_FLOORS,
        t=st.floats(0.0, 5.0),
        dt=st.floats(0.0, 5.0),
        state=st.lists(st.floats(0.0, 0.2), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_bond_and_forward_contract(self, factors, floor, t, dt, state):
        spec = ModelSpec(factors=factors, floor=floor, horizon=10.0)
        x = state[: spec.n_factors]
        T = t + dt
        p = bond_price(spec, t, T, x)
        assert 0.0 < p <= 1.0
        assert p == pytest.approx(bond_price(spec, t, T, x, method="quadrature"), rel=1e-10)
        f = forward_rate(spec, t, T, x)
        assert f == pytest.approx(forward_rate(spec, t, T, x, method="quadrature"), rel=1e-10, abs=1e-14)
        # f(t, t) = r(t) = mu(t) + sum_k X_k(t)
        assert forward_rate(spec, t, t, x) == pytest.approx(floor.value(t) + sum(x), rel=1e-14)


class TestYieldCurve:
    def test_flat_deterministic_inversion(self):
        spec = deterministic_spec(level=0.03)
        assert yield_curve(spec, 0.5, 2.0) == pytest.approx(0.03, rel=1e-12)

    def test_short_maturity_limit(self, baseline_spec):
        t = 0.5
        state = [0.03]
        r_t = forward_rate(baseline_spec, t, t, state)
        assert yield_curve(baseline_spec, t, t + 1e-6, state) == pytest.approx(
            r_t, abs=1e-6
        )

    def test_affine_form_identity(self, baseline_spec):
        t, T = 0.5, 3.0
        x = 0.07
        f = baseline_spec.factors[0]
        intercept = math.log(bond_price(baseline_spec, t, T, [0.0]))
        affine = (intercept + bond_B(f, t, T) * x) / (t - T)
        state = np.array([x])
        assert yield_curve(baseline_spec, t, T, state) == pytest.approx(
            affine, rel=1e-12
        )

    def test_rejects_degenerate(self, baseline_spec):
        with pytest.raises(ValueError, match=r"need t < T, got t=1.0, T=1.0"):
            yield_curve(baseline_spec, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"need t <= T, got t=1.0, T=0.5"):
            yield_curve(baseline_spec, 1.0, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, f: bond_price(spec, 0.0, 1.0, method="simpson"),
        lambda spec, f: forward_rate(spec, 0.0, 1.0, method="simpson"),
        lambda spec, f: cumulant_time_integral(f, 0.0, 1.0, 1.0, method="simpson"),
        lambda spec, f: tilted_time_integral(f, 0.0, 1.0, 1.0, method="simpson"),
        lambda spec, f: factor_exponent(f, 1.0, 2.0, method="simpson"),
    ],
    ids=["bond_price", "forward_rate", "cumulant_time_integral", "tilted_time_integral",
         "factor_exponent"],
)
def test_unknown_method_is_rejected(call, baseline_spec, baseline_factor):
    with pytest.raises(ValueError, match=re.escape("method must be one of ('closed', 'quadrature')")):
        call(baseline_spec, baseline_factor)


def _big_sigma_spec():
    # sigma B(0, 1) = -6.3e19 dwarfs epsilon = 1; P(0, 1) = exp(-1) to double precision
    huge = FactorParams(lam=1.0, sigma=1e20, x0=0.0, measure=GammaJumpMeasure(1.0, 1.0))
    return ModelSpec(factors=(huge,), floor=ConstantFloor(0.0), horizon=10.0)


class TestOverflow:
    """Finite parameters whose closed forms overflow fail loudly, not with inf/nan."""

    @pytest.fixture
    def overflowing_spec(self):
        # eta = 480 / 24 = 20, so the bond's drift -alpha eta overflows; the forward
        # f(0, 0.25) adds the jumps' 1.3e308 and the decayed state's 7.6e307
        huge = 1.7e308
        factor = FactorParams(lam=3.2, sigma=480.0, x0=huge, measure=GammaJumpMeasure(huge, 24.0))
        return ModelSpec(factors=(factor,), floor=ConstantFloor(0.02), horizon=10.0)

    @pytest.mark.parametrize("function", [bond_price, forward_rate, yield_curve])
    def test_raises_overflow_error(self, overflowing_spec, function):
        with pytest.raises(OverflowError, match="overflows double precision"):
            function(overflowing_spec, 0.0, 0.25)

    def test_huge_alpha_with_a_small_jump_scale_prices(self):
        # eta = 0.25 / 24: -alpha eta = -1.04e306 is finite, so P(0, 0.25)
        # underflows to 0.0 and f(0, 0.25) = 1.79e305 is finite; the closed forms
        # in sigma and epsilon once overflowed in alpha epsilon = 2.4e309
        factor = FactorParams(lam=3.2, sigma=0.25, x0=0.01, measure=GammaJumpMeasure(1e308, 24.0))
        spec = ModelSpec(factors=(factor,), floor=ConstantFloor(0.02), horizon=10.0)
        assert bond_price(spec, 0.0, 0.25) == 0.0
        rate = forward_rate(spec, 0.0, 0.25)
        assert rate == pytest.approx(1.7893414627796925e305, rel=1e-15)
        assert forward_rate(spec, 0.0, 0.25, method="quadrature") == pytest.approx(rate, rel=1e-12)

    def test_quadrature_twin_raises_overflow_error(self, two_factor_spec):
        # B(0, 5) X on the second factor is -2.16 * 1.7e308 = -inf
        with pytest.raises(OverflowError, match=r"log P\(0.0, 5.0\) = -inf overflows double"):
            bond_price(two_factor_spec, 0.0, 5.0, [0.01, 1.7e308], method="quadrature")

    # eta = 1.7e308 at epsilon = 1, so -alpha eta = -inf; the cumulant log once
    # failed with "math domain error", naming nothing
    @pytest.mark.parametrize("function", [bond_price, yield_curve])
    @pytest.mark.parametrize("index", [0, 1])
    def test_huge_sigma_names_the_factor(self, baseline_factor, function, index):
        huge = FactorParams(lam=1.0, sigma=1.7e308, x0=0.01, measure=GammaJumpMeasure(2.0, 1.0))
        factors = (huge, baseline_factor) if index == 0 else (baseline_factor, huge)
        spec = ModelSpec(factors=factors, floor=ConstantFloor(0.02), horizon=10.0)
        with pytest.raises(OverflowError, match=rf"^factor index {index}: .*\(sigma=1\.7e\+308\)$"):
            function(spec, 0.0, 1.0)
        # the forward rate's closed form has no such log
        assert math.isfinite(forward_rate(spec, 0.0, 1.0))

    # at T = 1e-300 the ratio stays clear of -1, and -alpha eta = -inf reaches
    # log P through the ordinary path; its error once named neither
    @pytest.mark.parametrize("function", [bond_price, yield_curve])
    @pytest.mark.parametrize("index", [0, 1])
    def test_huge_sigma_at_a_tiny_maturity_names_the_factor(self, baseline_factor, function,
                                                             index):
        huge = FactorParams(lam=1.0, sigma=1.7e308, x0=0.01, measure=GammaJumpMeasure(2.0, 1.0))
        factors = (huge, baseline_factor) if index == 0 else (baseline_factor, huge)
        spec = ModelSpec(factors=factors, floor=ConstantFloor(0.02), horizon=10.0)
        for T in (1e-300, 1e-10):
            with pytest.raises(OverflowError,
                               match=rf"^factor index {index}: .*\(sigma=1\.7e\+308\)$"):
                function(spec, 0.0, T)

    # sigma = 1.7e308 at epsilon = 10 is eta = 1.7e307: -alpha eta is finite, so
    # the bond prices, where the closed forms in sigma and epsilon overflowed and
    # the twin ran out of panels
    @pytest.mark.parametrize("index", [None, 0, 1])
    def test_huge_sigma_at_a_large_epsilon_prices_as_its_twin(self, baseline_factor, index):
        huge = FactorParams(lam=1.0, sigma=1.7e308, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0))
        factors = {None: (huge,), 0: (huge, baseline_factor), 1: (baseline_factor, huge)}[index]
        spec = ModelSpec(factors=factors, floor=ConstantFloor(0.02), horizon=10.0)
        for T in (1e-10, 0.25, 1.0, 5.0):
            price = bond_price(spec, 0.0, T)
            assert 0.0 < price < 1.0
            assert bond_price(spec, 0.0, T, method="quadrature") == pytest.approx(price, rel=1e-12)
            assert math.isfinite(yield_curve(spec, 0.0, T))
            assert math.isfinite(forward_rate(spec, 0.0, T))
        if index is not None:
            assert bond_price(spec, 0.0, 1.0) == 0.12208766525395814

    # sigma B(0, 1) = -6.3e19 against epsilon = 1: the ratio rounds to -1 but
    # its log, about -45, and the price are finite; the closed form once raised
    def test_huge_sigma_with_a_finite_log_prices_as_its_twin(self):
        huge = FactorParams(lam=1.0, sigma=1e20, x0=0.0, measure=GammaJumpMeasure(1.0, 1.0))
        spec = ModelSpec(factors=(huge,), floor=ConstantFloor(0.0), horizon=10.0)
        for T in (0.25, 1.0, 5.0):
            twin = bond_price(spec, 0.0, T, method="quadrature")
            assert bond_price(spec, 0.0, T) == pytest.approx(twin, rel=1e-12)
        assert yield_curve(spec, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    # bond_price's bits where the cumulant log falls back to log differences
    def test_huge_sigma_with_a_finite_log_keeps_its_bits(self):
        spec = _big_sigma_spec()
        pins = {0.25: "0x1.8ebef9eac820bp-1", 1.0: "0x1.78b56362cef38p-2",
                5.0: "0x1.b993fe00d5376p-8"}
        for T, pin in pins.items():
            assert bond_price(spec, 0.0, T).hex() == pin

    # the other bond-path closed forms once raised "math domain error" on this
    # model, which bond_price prices
    def test_huge_sigma_cumulant_integral_matches_its_twin(self):
        f = _big_sigma_spec().factors[0]
        twin = cumulant_time_integral(f, 0.0, 1.0, 1.0, method="quadrature")
        assert cumulant_time_integral(f, 0.0, 1.0, 1.0) == pytest.approx(twin, rel=1e-10)

    def test_huge_sigma_pathwise_bond_at_maturity_is_one(self):
        spec = _big_sigma_spec()
        assert bond_path(spec, simulate_path(spec, seed=1), 1.0, 1.0) == 1.0

    def test_huge_sigma_monte_carlo_discounted_bond(self):
        spec = _big_sigma_spec()
        est = mc_discounted_bond(spec, 0.5, 1.0, 1_000, seed=1)
        assert abs(est.value - bond_price(spec, 0.0, 1.0)) < 5.0 * est.std_error

    def test_huge_sigma_monte_carlo_option(self):
        spec = _big_sigma_spec()
        option = OptionSpec(0.3, 0.5, 1.0)
        est = mc_option_price(spec, option, 1_000, seed=1)
        assert abs(est.value - fourier_call_price(spec, option)) < 5.0 * est.std_error

    # at expiry = maturity the complex ratio of the Fourier exponent rounds to -1 as
    # well; its log once gave -inf, and the head ran out of panels
    @pytest.mark.parametrize("strike", [0.05, 0.3, 0.9])
    def test_huge_sigma_fourier_price_at_expiry_equals_maturity(self, strike):
        spec = _big_sigma_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            price = fourier_call_price(spec, OptionSpec(strike, 1.0, 1.0))
        # the payoff (P(1, 1) - K)^+ = 1 - K is known at expiry
        assert price == pytest.approx((1.0 - strike) * bond_price(spec, 0.0, 1.0), rel=1e-13)

    # -alpha sigma overflows to -inf, and -inf times the span 0 once gave log P = nan
    def test_bond_at_its_maturity_is_one(self, baseline_factor):
        huge = FactorParams(lam=1.0, sigma=1.7e308, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0))
        spec = ModelSpec(factors=(baseline_factor, huge), floor=ConstantFloor(0.02), horizon=10.0)
        for t in (0.0, 2.5, 10.0):
            assert bond_price(spec, t, t) == 1.0
            assert bond_price(spec, t, t, [0.3, 7.0]) == 1.0

    def test_calibrated_level_names_maturity(self):
        # each factor's tilt at maturity 1 is 1.5e308, so their sum and the fitted level
        # are infinite
        factor = FactorParams(lam=1.0, sigma=10.0, x0=0.01, measure=GammaJumpMeasure(1.7e308, 1.0))
        market = ForwardCurve(np.array([1.0, 2.0]), np.array([0.03, 0.031]))
        with pytest.raises(OverflowError, match="level at maturity 1.0 is -inf"):
            calibrate_floor((factor, factor), market)


class TestCalibration:
    def test_flat_market_no_jumps(self):
        factors = (
            FactorParams(lam=1.0, sigma=1.0, x0=0.0, measure=GammaJumpMeasure(1e-14, 10.0)),
        )
        market = ForwardCurve(np.linspace(0.25, 5.0, 20), np.full(20, 0.03))
        floor = calibrate_floor(factors, market)
        assert np.allclose(floor.values, 0.03, atol=1e-12)

    def test_round_trip(self, two_factor_spec):
        grid = np.linspace(0.1, 8.0, 50)
        market = ForwardCurve(
            grid, np.array([forward_rate(two_factor_spec, 0.0, T) for T in grid])
        )
        floor = calibrate_floor(two_factor_spec.factors, market)
        refit = ModelSpec(
            factors=two_factor_spec.factors, floor=floor, horizon=two_factor_spec.horizon
        )
        worst = max(
            abs(forward_rate(refit, 0.0, T) - f) for T, f in zip(grid, market.rates)
        )
        assert worst < 1e-8

    def test_recovers_known_floor(self, baseline_factor):
        # curve generated by a model with a known floor is refit exactly at knots
        true_floor = ConstantFloor(0.017)
        spec = ModelSpec(factors=(baseline_factor,), floor=true_floor, horizon=10.0)
        grid = np.linspace(0.25, 6.0, 24)
        market = ForwardCurve(
            grid, np.array([forward_rate(spec, 0.0, T) for T in grid])
        )
        floor = calibrate_floor(spec.factors, market)
        assert np.allclose(floor.values, 0.017, atol=1e-8)

    def test_negative_market_curve(self, baseline_factor):
        market = ForwardCurve(np.linspace(0.5, 5.0, 10), np.full(10, -0.005))
        floor = calibrate_floor((baseline_factor,), market)
        assert all(v < 0 for v in floor.values)
        refit = ModelSpec(factors=(baseline_factor,), floor=floor, horizon=10.0)
        assert forward_rate(refit, 0.0, 2.0) == pytest.approx(-0.005, abs=1e-10)

    def test_csv_round_trip(self, tmp_path):
        curve = ForwardCurve(np.array([0.5, 1.0, 2.0]), np.array([0.01, 0.02, 0.025]))
        path = tmp_path / "fwd.csv"
        curve.to_csv(path)
        back = ForwardCurve.from_csv(path)
        assert np.array_equal(back.maturities, curve.maturities)
        assert np.array_equal(back.rates, curve.rates)

    @pytest.mark.parametrize("maturities, rates, message", [
        ([1.0, 0.5], [0.01, 0.02], "maturity grid must be strictly increasing"),
        ([], [], "maturity grid must be a nonempty 1-d array"),
        ([[0.5, 1.0]], [[0.01, 0.02]], "maturity grid must be a nonempty 1-d array"),
        ([0.5, 1.0], [0.01], "maturities and rates must match in length"),
        ([0.5, math.inf], [0.01, 0.02], "curve entries must be finite"),
        ([0.5, 1.0], [0.01, math.nan], "curve entries must be finite"),
    ], ids=["unsorted", "empty", "2-d", "mismatched", "infinite-maturity", "nan-rate"])
    def test_rejects_bad_grid(self, maturities, rates, message):
        with pytest.raises(ValueError, match=message):
            ForwardCurve(np.array(maturities), np.array(rates))

    def test_non_numeric_csv_row_names_it(self, tmp_path):
        path = tmp_path / "fwd.csv"
        path.write_text("maturity,forward_rate\n0.5,0.01\n1.0,abc\n")
        with pytest.raises(ValueError, match="row 3: could not convert string to float: 'abc'"):
            ForwardCurve.from_csv(path)

    def test_needs_a_factor(self):
        market = ForwardCurve(np.array([1.0, 2.0]), np.array([0.03, 0.031]))
        with pytest.raises(ValueError, match="need at least one factor"):
            calibrate_floor((), market)


def _pinned_factors():
    return (
        FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0)),
        FactorParams(lam=0.4, sigma=0.6, x0=0.02, measure=GammaJumpMeasure(1.5, 25.0)),
        FactorParams(lam=3.0, sigma=0.2, x0=0.0, measure=GammaJumpMeasure(5.0, 40.0)),
    )


def _pinned_spec(n):
    floor = {
        1: ConstantFloor(0.02),
        2: ConstantFloor(0.015),
        3: PiecewiseLinearFloor((0.0, 1.0, 3.0, 7.0), (0.01, 0.015, 0.012, 0.02)),
    }[n]
    return ModelSpec(factors=_pinned_factors()[:n], floor=floor, horizon=10.0)


def _pinned_and_heavy_specs():
    # the heavy-jump factor puts log1p's argument near -0.5
    heavy = FactorParams(lam=0.7, sigma=1.5, x0=0.03, measure=GammaJumpMeasure(0.8, 2.0))
    return [*(_pinned_spec(n) for n in (1, 2, 3)),
            ModelSpec(factors=(heavy,), floor=ConstantFloor(0.01), horizon=10.0)]


class TestBitExactness:
    """Closed-form outputs pinned to the bit; a refactor must not move them."""

    @pytest.mark.parametrize(
        "n, t, T, state, price, rate",
        [
            (1, 0.0, 1.0, None, "0x1.d0cf804a0e971p-1", "0x1.240464c94c6acp-3"),
            (1, 0.5, 0.5 + 1e-9, (0.07,), "0x1.ffffffff3a168p-1", "0x1.70a3d7132c6cap-4"),
            (2, 0.25, 4.0, None, "0x1.d7ff3e954cf08p-2", "0x1.0ec55f44149d5p-2"),
            (2, 1.0, 1.0 + 1e-6, (0.03, 0.01), "0x1.fffffe278d809p-1", "0x1.c28fc89b9cf8bp-5"),
            (3, 0.0, 5.0, None, "0x1.46d72bbfc7011p-2", "0x1.208aacd34dd38p-2"),
            (3, 2.5, 6.5, (0.02, 0.0, 0.05), "0x1.b202e4bcc1651p-2", "0x1.199e7d80096adp-2"),
            (3, 2.9999999, 3.0, None, "0x1.ffffffdbec198p-1", "0x1.58106f599720dp-5"),
        ],
    )
    def test_bond_price_and_forward_rate(self, n, t, T, state, price, rate):
        spec = _pinned_spec(n)
        assert bond_price(spec, t, T, state).hex() == price
        assert forward_rate(spec, t, T, state).hex() == rate
        # the pins sit within 1e-15 of the 40-digit reference
        for pin, reference in zip((price, rate), decimal_bond_and_forward(spec, t, T, state)):
            assert float.fromhex(pin) == pytest.approx(reference, rel=1e-15, abs=0.0)

    def test_dense_grid_digest(self):
        # 120 distinct times to maturity per spec: numpy's log1p/expm1 differ from
        # math's in the last bit on a few percent of inputs, which a handful of
        # pinned values can miss
        specs = _pinned_and_heavy_specs()
        digest = hashlib.sha256()
        for spec in specs:
            for i in range(60):
                t = 0.07 * i
                for dT in (1e-9 * (i + 1), 0.05 + 0.0917 * i):
                    digest.update(bond_price(spec, t, t + dT).hex().encode())
                    digest.update(forward_rate(spec, t, t + dT).hex().encode())
        assert digest.hexdigest() == (
            "348b468c764ecf7266a9b871714df15d181b43d7d0f4684519a9b0495043a7f2"
        )

    @staticmethod
    def twin_digest(spec_twins_of, factor_twins=True):
        """SHA-256 of the twins on the pinned and heavy specs: the spec twins of the
        specs with a factor count in ``spec_twins_of``, and the per-factor ones."""
        digest = hashlib.sha256()

        def put(*values):
            for value in values:
                value = complex(value)
                digest.update(f"{value.real.hex()} {value.imag.hex()};".encode())

        for spec in _pinned_and_heavy_specs():
            for i in range(8):
                t = 0.35 * i
                T = t + 1e-7 + 0.43 * i
                if spec.n_factors in spec_twins_of:
                    put(bond_price(spec, t, T, method="quadrature"),
                        forward_rate(spec, t, T, method="quadrature"))
                if not factor_twins:
                    continue
                for u in (-3.0, 0.7, 25.0, 2.0 - 0.5j):
                    put(short_rate_char_fn(spec, T, u))
                for f in spec.factors:
                    put(cumulant_time_integral(f, 0.5 * t, t, T, method="quadrature"),
                        tilted_time_integral(f, 0.5 * t, t, T, method="quadrature"))
                    bound = f.measure.epsilon / f.sigma
                    for u in (-3.0, 0.7, 25.0, 4.0j, -0.5j, -0.9j * bound, 2.0 - 0.5j):
                        for method in ("closed", "quadrature"):
                            part = factor_exponent(f, T, u, method=method)
                            put(part.psi, part.rho)
        return digest.hexdigest()

    def test_twin_and_transform_digest(self):
        # the per-factor quadrature twins, both factor_exponent routes, the
        # short-rate CF and the one-factor spec twins: none of them runs through
        # the closed forms pinned above, so a change of route in any one of them
        # shows here; u stays where Re(i u) sigma < eps
        assert self.twin_digest(spec_twins_of=(1,)) == (
            "f82118948dfb2d441bd58a838b063e956c140450257db63893fe66a264b57ae6"
        )

    def test_multi_factor_spec_twin_digest(self):
        # a spec twin integrates the factor-summed integrand in one adaptive
        # pass, on panels no single factor's twin uses, so these sit apart
        assert self.twin_digest(spec_twins_of=(2, 3), factor_twins=False) == (
            "012a557e2ed61639e3547bf830e814772fa00292f71b1e301312b3f9d115f46c"
        )

    @pytest.mark.parametrize(
        "n, levels",
        [
            (1, ["-0x1.f1e8f7643f506p-5", "-0x1.93cf71823687cp-4",
                 "-0x1.0f687098a1920p-3", "-0x1.32bb39f24e7b4p-3"]),
            (2, ["-0x1.7e212ba32f4f6p-4", "-0x1.20f30adf7c6fap-3",
                 "-0x1.8410db98186dfp-3", "-0x1.cfca04be174c7p-3"]),
            (3, ["-0x1.989cc8d9bdca1p-4", "-0x1.312405924c58cp-3",
                 "-0x1.950fdc65a3d29p-3", "-0x1.e0d3d06f4fe05p-3"]),
        ],
    )
    def test_calibrated_floor(self, n, levels):
        market = ForwardCurve(np.array([0.5, 1.0, 2.0, 5.0]), np.array([0.021, 0.024, 0.028, 0.031]))
        floor = calibrate_floor(_pinned_factors()[:n], market)
        assert [v.hex() for v in floor.values] == levels

    def test_constant_readers_digest(self):
        # every caller that reads a factor's bond-path constants, beyond the
        # bond_price and forward_rate pins above: both integrals with t2 < T,
        # yield_curve, the pathwise identities, the dual-curve prices and
        # forwards, calibrated floors, the Fourier compensator and the Monte
        # Carlo affine bond
        specs = _pinned_and_heavy_specs()
        spread = FactorParams(lam=1.5, sigma=0.5, x0=0.002, measure=GammaJumpMeasure(1.0, 40.0))
        dual = DualCurveSpec(base=specs[1], spread_factors=(spread,),
                             spread_floor=ConstantFloor(0.004), shared_factor_count=1)
        market = ForwardCurve(np.array([0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0]),
                              np.array([0.02, 0.021, 0.024, 0.028, 0.03, 0.031, 0.029]))
        digest = hashlib.sha256()

        def put(*values):
            for value in values:
                digest.update(f"{float(value).hex()};".encode())

        for spec in specs:
            for i in range(12):
                t = 0.31 * i
                T = t + 1e-7 + 0.53 * i
                put(yield_curve(spec, t, T))
                for f in spec.factors:
                    for t1, t2 in ((0.5 * t, 0.5 * (t + T)), (0.0, t), (t, t)):
                        put(cumulant_time_integral(f, t1, t2, T), tilted_time_integral(f, t1, t2, T))
            path = simulate_path(spec, seed=13, path_index=1)
            for t in (0.0, 0.3, 1.7, 4.2):
                for T in (t, t + 1e-9, t + 0.8, 9.5):
                    put(bond_path(spec, path, t, T), hjm_forward_path(spec, path, t, T))
            put(*calibrate_floor(spec.factors, market).values)
            put(fourier_call_price(spec, OptionSpec(0.93, 0.5, 1.5)))
            put(mc_discounted_bond(spec, 0.5, 2.0, 200, seed=5).value)
        for i in range(10):
            t = 0.27 * i
            T1, T2 = t + 0.1 * i, t + 0.1 * i + 0.25
            for state in (None, (0.02, 0.01, 0.003)):
                put(fictitious_bond_price(dual, t, T2, state), ois_forward(dual, t, T1, T2, state),
                    libor_forward(dual, t, T1, T2, state))
        assert digest.hexdigest() == (
            "2180d2504d909be8370b4b6f4317887117305511354092f660b14b4187ab9e5b"
        )


class TestDecimalReference:
    """The closed forms against 40-digit decimal arithmetic in sigma and epsilon."""

    def test_dense_grid(self):
        # the dense-grid digest's points; the forward's two-term tilted form once
        # cancelled to 1.5e-14 here
        for spec in _pinned_and_heavy_specs():
            for i in range(60):
                t = 0.07 * i
                for dT in (1e-9 * (i + 1), 0.05 + 0.0917 * i):
                    price, rate = decimal_bond_and_forward(spec, t, t + dT)
                    assert bond_price(spec, t, t + dT) == pytest.approx(price, rel=1e-15, abs=0.0)
                    assert forward_rate(spec, t, t + dT) == pytest.approx(rate, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scale", [1e15, 1e20, 1e308])
    def test_tilted_closed_form_does_not_cancel(self, scale):
        # alpha = epsilon = scale: alpha eps / (eps - b2) - alpha eps / (eps - b1) once
        # read f(0, 1) = 0.625 at 1e15, 0.0 at 1e20 and nan at 1e308, against 0.63212
        factor = FactorParams(lam=1.0, sigma=1.0, x0=0.0, measure=GammaJumpMeasure(scale, scale))
        spec = ModelSpec(factors=(factor,), floor=ConstantFloor(0.0), horizon=10.0)
        for T in (0.25, 1.0, 5.0):
            twin = forward_rate(spec, 0.0, T, method="quadrature")
            assert forward_rate(spec, 0.0, T) == pytest.approx(twin, rel=1e-12, abs=0.0)
            for t1, t2 in ((0.0, T), (0.0, 0.5 * T), (0.5 * T, T)):
                twin = tilted_time_integral(factor, t1, t2, T, method="quadrature")
                assert tilted_time_integral(factor, t1, t2, T) == pytest.approx(
                    twin, rel=1e-12, abs=0.0)
        market = ForwardCurve(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        levels = calibrate_floor((factor,), market)
        assert all(map(math.isfinite, levels.values))


class TestSpecTwins:
    """bond_price and forward_rate twins: one adaptive pass over the factor-summed integrand."""

    @pytest.mark.parametrize("state", [None, (0.07,)])
    def test_one_factor_is_the_factor_route(self, state):
        # the summed integrand's one row is the cumulant and tilted mean of the
        # measure with epsilon = 1 along eta B, eta = sigma/epsilon, on the twins'
        # graded initial mesh
        heavy = _pinned_and_heavy_specs()[3]
        for spec in (_pinned_spec(1), heavy):
            f = spec.factors[0]
            lam, eta = f.lam, f.sigma / f.measure.epsilon
            measure = GammaJumpMeasure(f.measure.alpha, 1.0)
            x = f.x0 if state is None else state[0]
            for i in range(12):
                t = 0.29 * i
                T = t + 1e-8 + 0.47 * i
                b = lambda s: eta * (np.expm1(-lam * (T - s)) / lam)
                log_p = -spec.floor.integral(t, T)
                mesh = curves._twin_mesh(t, T)
                log_p += gauss_kronrod(lambda s: measure.levy_cumulant(b(s)), t, T,
                                       abs_tol=1e-13, breakpoints=mesh)[0]
                log_p += bond_B(f, t, T) * x
                assert bond_price(spec, t, T, state, method="quadrature") == math.exp(log_p)
                rate = spec.floor.value(T)
                rate += gauss_kronrod(lambda s: eta * np.exp(-lam * (T - s))
                                      * measure.tilted_mean(b(s)), t, T, abs_tol=1e-13,
                                      breakpoints=mesh)[0]
                rate += x * math.exp(-f.lam * (T - t))
                assert forward_rate(spec, t, T, state, method="quadrature") == rate

    def test_dense_grid_matches_the_closed_forms(self):
        # the bound is the worst case on this grid of the sum of per-factor
        # twins (1.52e-14, the three-factor forward rate), rounded up
        for spec in _pinned_and_heavy_specs():
            for i in range(60):
                t = 0.07 * i
                for dT in (1e-9 * (i + 1), 0.05 + 0.0917 * i):
                    T = t + dT
                    price = bond_price(spec, t, T)
                    assert bond_price(spec, t, T, method="quadrature") == pytest.approx(
                        price, rel=2e-14, abs=0.0)
                    rate = forward_rate(spec, t, T)
                    assert forward_rate(spec, t, T, method="quadrature") == pytest.approx(
                        rate, rel=2e-14, abs=0.0)

    def test_twins_settle_in_their_first_call(self, monkeypatch):
        # the graded initial mesh resolves each twin in one vectorized round;
        # from a single panel they took about three, and up to five
        calls = []

        def counting(factory):
            def counted_factory(columns, T):
                integrand = factory(columns, T)
                calls.append(0)

                def counted(s):
                    calls[-1] += 1
                    return integrand(s)

                return counted

            return counted_factory

        monkeypatch.setattr(curves, "_summed_cumulant", counting(curves._summed_cumulant))
        monkeypatch.setattr(curves, "_summed_tilted", counting(curves._summed_tilted))
        for n in (1, 2, 3):
            spec = _pinned_spec(n)
            for i in range(13):
                t = 0.25 * i
                for T in (t + 1e-9, t + 0.3, t + 1.7, t + 4.0, 10.0):
                    bond_price(spec, t, T, method="quadrature")
                    forward_rate(spec, t, T, method="quadrature")
        assert len(calls) == 3 * 13 * 5 * 2
        assert max(calls) == 1

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.9999999, 3.0])
    def test_degenerate_spans(self, t):
        # spans of one to four ulps, and 1e-7 at t near 3, where breakpoints of the
        # graded mesh round onto an end and leave panels of width 0
        spans = [math.ulp(t) * k if t else 5e-324 * k for k in (1, 2, 3, 4)] + [1e-7]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in _pinned_and_heavy_specs():
                for T in (t + span for span in spans):
                    assert bond_price(spec, t, T, method="quadrature") == pytest.approx(
                        bond_price(spec, t, T), rel=2e-14, abs=0.0)
                    assert forward_rate(spec, t, T, method="quadrature") == pytest.approx(
                        forward_rate(spec, t, T), rel=2e-14, abs=0.0)
                # t1 == t2: an empty integral, 0.0 exactly
                assert bond_price(spec, t, t, method="quadrature") == 1.0
                for f in spec.factors:
                    assert cumulant_time_integral(f, t, t, 5.0, method="quadrature") == 0.0
                    assert tilted_time_integral(f, t, t, 5.0, method="quadrature") == 0.0
                    assert factor_exponent(f, 0.0, 0.7, method="quadrature").rho == 0.0


class TestPathConstants:
    """Each spec holds its factors' closed-form constants; they must follow the factors."""

    @staticmethod
    def curve_bits(spec):
        bits = []
        for i in range(20):
            t = 0.21 * i
            for T in (t, t + 1e-9, t + 0.3 + 0.27 * i):
                bits.append((bond_price(spec, t, T).hex(), forward_rate(spec, t, T).hex()))
                if T > t:
                    bits.append(yield_curve(spec, t, T).hex())
        return bits

    def test_fictitious_model_matches_a_direct_spec(self):
        # DualCurveSpec doubles its shared factors with dataclasses.replace
        base = _pinned_spec(2)
        spread = FactorParams(lam=1.5, sigma=0.5, x0=0.002, measure=GammaJumpMeasure(1.0, 40.0))
        dual = DualCurveSpec(base=base, spread_factors=(spread,),
                             spread_floor=ConstantFloor(0.004), shared_factor_count=1)
        one, two = base.factors
        doubled = FactorParams(lam=two.lam, sigma=2.0 * two.sigma, x0=2.0 * two.x0,
                               measure=two.measure)
        direct = ModelSpec(factors=(one, doubled, spread), floor=dual.fictitious.floor,
                           horizon=base.horizon)
        assert self.curve_bits(dual.fictitious) == self.curve_bits(direct)
        state = (0.02, 0.01, 0.003)
        fictitious_state = (0.02, 0.02, 0.003)
        for T in (0.5, 2.0, 7.5):
            assert (fictitious_bond_price(dual, 0.25, T, state).hex()
                    == bond_price(direct, 0.25, T, fictitious_state).hex())

    @pytest.mark.parametrize("lam", [1.0, 1e308])
    def test_numpy_parameters_give_python_float_bits(self, lam):
        def factor(kind):
            return FactorParams(lam=kind(lam), sigma=kind(0.6), x0=kind(0.02),
                                measure=GammaJumpMeasure(kind(1.5), kind(25.0)))

        native, scalar = (ModelSpec(factors=(factor(kind), _pinned_factors()[0]),
                                    floor=ConstantFloor(0.015), horizon=10.0)
                          for kind in (float, np.float64))
        market = ForwardCurve(np.array([0.5, 1.0, 2.0, 5.0]), np.array([0.021, 0.024, 0.028, 0.031]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.curve_bits(scalar) == self.curve_bits(native)
            for t1, t2, T in ((0.0, 1.0, 1.0), (0.5, 1.5, 4.0)):
                for f, g in zip(scalar.factors, native.factors):
                    assert (cumulant_time_integral(f, t1, t2, T).hex()
                            == cumulant_time_integral(g, t1, t2, T).hex())
                    assert (tilted_time_integral(f, t1, t2, T).hex()
                            == tilted_time_integral(g, t1, t2, T).hex())
            assert (calibrate_floor(scalar.factors, market).values
                    == calibrate_floor(native.factors, market).values)

    def test_invalid_factors_keep_their_violations(self):
        # the constants divide by lambda: built before the checks, they would
        # raise ZeroDivisionError instead of the listed violations
        bad = FactorParams(lam=0.0, sigma=0.5, x0=0.01, measure=GammaJumpMeasure(2.0, math.nan))
        with pytest.raises(InvalidModelError) as info:
            ModelSpec(factors=(_pinned_factors()[0], bad), floor=ConstantFloor(0.02), horizon=10.0)
        assert info.value.violations == (
            "factor 2: lambda must be positive and finite",
            "factor 2: epsilon must be positive and finite",
        )


def _time_functions(spec, dual, path):
    """Every public function of one or two scalar times t <= T on a one-factor spec."""
    f, measure = spec.factors[0], spec.factors[0].measure
    return {
        "bond_price": lambda t, T: bond_price(spec, t, T),
        "forward_rate": lambda t, T: forward_rate(spec, t, T),
        "yield_curve": lambda t, T: yield_curve(spec, t, T + 0.25),
        "bond_B": lambda t, T: bond_B(f, t, T),
        "bond_B_dT": lambda t, T: bond_B_dT(f, t, T),
        "cumulant_time_integral": lambda t, T: cumulant_time_integral(f, t, T, T + 0.25),
        "tilted_time_integral": lambda t, T: tilted_time_integral(f, t, T, T + 0.25),
        "conditional_moments": lambda t, T: conditional_moments(spec, t, T, [0.01])[1],
        "factor_exponent": lambda t, T: factor_exponent(f, T, 0.7).rho,
        "short_rate_char_fn": lambda t, T: short_rate_char_fn(spec, T, 0.7),
        "short_rate_mgf": lambda t, T: short_rate_mgf(spec, T, 0.5),
        "levy_char_fn": lambda t, T: levy_char_fn(measure, T, 0.7),
        "levy_zero_atom": lambda t, T: levy_zero_atom(measure, T),
        "levy_density": lambda t, T: levy_density(measure, T + 0.25, 0.1),
        "integrated_rate": lambda t, T: integrated_rate(spec, path, T),
        "bond_path": lambda t, T: bond_path(spec, path, t, T),
        "hjm_forward_path": lambda t, T: hjm_forward_path(spec, path, t, T),
        "fictitious_bond_price": lambda t, T: fictitious_bond_price(dual, t, T),
        "forward_spread": lambda t, T: forward_spread(dual, t, T),
        "ois_forward": lambda t, T: ois_forward(dual, t, T, T + 0.5),
        "libor_forward": lambda t, T: libor_forward(dual, t, T, T + 0.5),
        # an OptionSpec stores its times as floats
        "fourier_call_price": lambda t, T: fourier_call_price(spec, OptionSpec(0.5, T + 0.25, T + 0.5)),
    }


class TestTimeTypes:
    """Times become Python floats at the interval check, so their type cannot move a bit."""

    @given(
        t=st.sampled_from([0, 1, 2]) | st.floats(min_value=0.0, max_value=3.0),
        dt=st.sampled_from([0, 1, 3]) | st.floats(min_value=0.0, max_value=4.0),
        lam=st.sampled_from([1.0, 1e308]),
    )
    # lambda = 1e308 overflows -lambda (T - t) once T - t > 1.8: NumPy scalar
    # times once warned there, where Python floats give -inf silently, and so
    # did a path's vectorized jump weights
    @example(t=0.5, dt=2.0, lam=1e308)
    @settings(max_examples=30, deadline=None)
    def test_float_int_numpy_scalar_and_0d_array_agree(self, t, dt, lam):
        factor = FactorParams(lam=lam, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0))
        spec = ModelSpec(factors=(factor,), floor=ConstantFloor(0.02), horizon=10.0)
        spread = FactorParams(lam=2.0, sigma=0.5, x0=0.005, measure=GammaJumpMeasure(1.0, 20.0))
        dual = DualCurveSpec(base=spec, spread_factors=(spread,), spread_floor=ConstantFloor(0.005))
        T = t + dt
        kinds = [float, np.float64, np.array]
        if float(t).is_integer() and float(T).is_integer():
            kinds.append(int)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = simulate_path(spec, seed=3)
            for name, function in _time_functions(spec, dual, path).items():
                values = [complex(function(kind(t), kind(T))) for kind in kinds]
                bits = {(v.real.hex(), v.imag.hex()) for v in values}
                assert len(bits) == 1, (name, values)
