import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpcurve import (
    ConstantFloor,
    FactorParams,
    GammaJumpMeasure,
    ModelSpec,
    OptionSpec,
    bond_B,
    bond_price,
    call_drift_exponent,
    call_jump_coefficient,
    call_jump_exponent,
    evolve_factor,
    fourier_call_price,
    fourier_call_price_at,
    integrated_rate,
    mc_option_price,
    payoff_fourier_weight,
    simulate_path,
)
from jumpcurve.options import _integrand_factory
from jumpcurve.quadrature import gauss_kronrod
from oracles import qawfe_call_price


@pytest.fixture
def baseline_option():
    return OptionSpec(strike=0.94, option_maturity=0.5, bond_maturity=1.0, dampening=1.5)


class TestOptionSpec:
    def test_valid(self, baseline_option):
        assert baseline_option.dampening == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(strike=0.0, option_maturity=0.5, bond_maturity=1.0),
            dict(strike=1.0, option_maturity=0.0, bond_maturity=1.0),
            dict(strike=1.0, option_maturity=2.0, bond_maturity=1.0),
            dict(strike=1.0, option_maturity=0.5, bond_maturity=1.0, dampening=1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            OptionSpec(**kwargs)


class TestJumpCoefficient:
    def test_vanishes_at_coincident_maturities(self, baseline_factor):
        option = OptionSpec(strike=1.0, option_maturity=1.0, bond_maturity=1.0)
        assert call_jump_coefficient(baseline_factor, 1.0, 0.7, option) == 0.0

    def test_equal_maturities_drop_the_dampening_pair(self, baseline_factor):
        option = OptionSpec(strike=1.0, option_maturity=1.0, bond_maturity=1.0)
        got = call_jump_coefficient(baseline_factor, 0.3, 2.0, option)
        expected = baseline_factor.sigma * bond_B(baseline_factor, 0.3, 1.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_hand_value(self, baseline_factor):
        option = OptionSpec(strike=1.0, option_maturity=0.5, bond_maturity=1.0, dampening=1.5)
        got = call_jump_coefficient(baseline_factor, 0.0, 0.0, option)
        expected = 1.5 * (math.exp(-1.0) - 1.0) - 0.5 * (math.exp(-0.5) - 1.0)
        assert got == pytest.approx(expected, rel=1e-14)

    @given(
        s=st.floats(min_value=0.0, max_value=0.5),
        y=st.floats(min_value=-300.0, max_value=300.0),
        a=st.floats(min_value=1.01, max_value=4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_real_part_nonpositive(self, s, y, a):
        f = FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0))
        option = OptionSpec(strike=0.9, option_maturity=0.5, bond_maturity=1.0, dampening=a)
        assert call_jump_coefficient(f, s, y, option).real <= 1e-15


class TestJumpExponent:
    def test_empty_interval(self, baseline_factor, baseline_option):
        assert call_jump_exponent(baseline_factor, 0.5, 0.0, baseline_option) == 0.0

    def test_real_path_agreement(self, baseline_factor, baseline_option):
        # y = 0 makes the coefficient real; compare with a real-axis quadrature
        got = call_jump_exponent(baseline_factor, 0.0, 0.0, baseline_option)
        assert got.imag == pytest.approx(0.0, abs=1e-14)

        def integrand(s):
            b_long = np.expm1(-1.0 * (1.0 - s)) / 1.0
            b_short = np.expm1(-1.0 * (0.5 - s)) / 1.0
            g = 1.5 * b_long - 0.5 * b_short
            return baseline_factor.measure.levy_cumulant(g)

        oracle, _ = gauss_kronrod(integrand, 0.0, 0.5, abs_tol=1e-13)
        assert got.real == pytest.approx(oracle, rel=1e-11)

    def test_no_jump_limit(self, baseline_option):
        f = FactorParams(lam=1.0, sigma=1.0, x0=0.0, measure=GammaJumpMeasure(1e-14, 10.0))
        got = call_jump_exponent(f, 0.0, 1.3, baseline_option)
        assert abs(got) < 1e-13

    def test_closed_matches_quadrature(self, baseline_factor, baseline_option):
        for t in (0.0, 0.2):
            for y in (0.0, 0.7, 3.0, 25.0, 400.0):
                closed = call_jump_exponent(baseline_factor, t, y, baseline_option)
                quad = call_jump_exponent(
                    baseline_factor, t, y, baseline_option, method="quadrature"
                )
                assert closed == pytest.approx(quad, rel=1e-10, abs=1e-12)


class TestDriftExponent:
    def test_no_jump_limit(self, baseline_option):
        spec = ModelSpec(
            factors=(
                FactorParams(lam=1.0, sigma=1.0, x0=0.05, measure=GammaJumpMeasure(1e-14, 10.0)),
            ),
            floor=ConstantFloor(0.03),
            horizon=5.0,
        )
        y = 1.7
        got = call_drift_exponent(spec, baseline_option, y)
        expected = (1.5 + 1j * y - 1.0) * (
            0.03 * 0.5 - 0.05 * bond_B(spec.factors[0], 0.0, 0.5)
        )
        assert got == pytest.approx(expected, rel=1e-9)

    def test_component_oracle(self, baseline_spec, baseline_option):
        from jumpcurve import cumulant_time_integral

        y = 0.0
        got = call_drift_exponent(baseline_spec, baseline_option, y)
        f = baseline_spec.factors[0]
        floor_term = 0.02 * 0.5 - 0.01 * bond_B(f, 0.0, 0.5)
        compensator = cumulant_time_integral(f, 0.0, 0.5, 1.0)
        expected = 0.5 * floor_term - 1.5 * compensator
        assert got.imag == 0.0
        assert got.real == pytest.approx(expected, rel=1e-13)


class TestPayoffWeight:
    def test_real_positive_on_axis(self, baseline_option):
        w = payoff_fourier_weight(0.0, baseline_option, 0.95)
        assert w.imag == pytest.approx(0.0, abs=1e-18)
        assert w.real > 0

    def test_hand_value_at_the_money(self):
        option = OptionSpec(strike=0.9, option_maturity=0.5, bond_maturity=1.0, dampening=2.0)
        w = payoff_fourier_weight(0.0, option, 0.9)
        assert w == pytest.approx(0.9 / (4.0 * math.pi), rel=1e-14)

    @given(y=st.floats(min_value=-500.0, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_hermitian_symmetry(self, y):
        option = OptionSpec(strike=0.93, option_maturity=0.5, bond_maturity=1.0)
        assert payoff_fourier_weight(-y, option, 0.95) == pytest.approx(
            payoff_fourier_weight(y, option, 0.95).conjugate(), rel=1e-12
        )

    def test_quadratic_decay(self, baseline_option):
        w1 = abs(payoff_fourier_weight(100.0, baseline_option, 0.95))
        w2 = abs(payoff_fourier_weight(200.0, baseline_option, 0.95))
        assert w2 == pytest.approx(w1 / 4.0, rel=0.05)


class TestFourierCallPrice:
    def test_dominated_payoff(self, baseline_spec):
        # strike above exp(-int_tau^T mu): payoff almost surely zero
        option = OptionSpec(strike=1.0, option_maturity=0.5, bond_maturity=1.0)
        assert fourier_call_price(baseline_spec, option) <= 1e-9

    def test_deterministic_limit(self):
        spec = ModelSpec(
            factors=(
                FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(1e-12, 10.0)),
            ),
            floor=ConstantFloor(0.02),
            horizon=5.0,
        )
        tau, T = 0.5, 1.0
        p_det = math.exp(
            -0.02 * (T - tau) - 0.01 * (math.exp(-tau) - math.exp(-T))
        )
        strike = 0.9 * p_det
        discount = math.exp(-0.02 * tau - 0.01 * (1.0 - math.exp(-tau)))
        expected = discount * (p_det - strike)
        option = OptionSpec(strike=strike, option_maturity=tau, bond_maturity=T)
        assert fourier_call_price(spec, option) == pytest.approx(expected, abs=1e-8)

    def test_monte_carlo_cross_oracle(self, baseline_spec, baseline_option):
        price = fourier_call_price(baseline_spec, baseline_option)
        est = mc_option_price(baseline_spec, baseline_option, 100_000, seed=314)
        assert abs(price - est.value) < 3.0 * est.std_error

    def test_dampening_invariance(self, baseline_spec):
        prices = [
            fourier_call_price(
                baseline_spec,
                OptionSpec(strike=0.94, option_maturity=0.5, bond_maturity=1.0, dampening=a),
            )
            for a in (1.25, 1.5, 2.0, 3.0)
        ]
        assert max(prices) - min(prices) < 1e-7

    def test_monotone_and_convex_in_strike(self, baseline_spec):
        strikes = np.linspace(0.88, 0.97, 10)
        prices = [
            fourier_call_price(
                baseline_spec, OptionSpec(strike=k, option_maturity=0.5, bond_maturity=1.0)
            )
            for k in strikes
        ]
        diffs = np.diff(prices)
        assert np.all(diffs <= 1e-12)
        assert np.all(np.diff(prices, 2) >= -1e-8)

    def test_bounds(self, baseline_spec, baseline_option):
        price = fourier_call_price(baseline_spec, baseline_option)
        assert 0.0 <= price <= bond_price(baseline_spec, 0.0, 1.0)

    def test_conjugate_symmetry_of_integrand(self, baseline_spec, baseline_option):
        from jumpcurve.options import _integrand_factory

        integrand, _ = _integrand_factory(baseline_spec, baseline_option)
        full, _ = gauss_kronrod(integrand, -150.0, 150.0, abs_tol=1e-13)
        half, _ = gauss_kronrod(integrand, 0.0, 150.0, abs_tol=1e-13)
        assert full.real == pytest.approx(2.0 * half.real, abs=1e-12)
        assert abs(full.imag) < 1e-12


class TestFourierCallPriceAt:
    def test_time_zero_reduction(self, baseline_spec, baseline_option):
        path = simulate_path(baseline_spec, seed=7, path_index=0)
        c0 = fourier_call_price(baseline_spec, baseline_option)
        c0_at = fourier_call_price_at(baseline_spec, baseline_option, path, 0.0)
        assert c0_at == pytest.approx(c0, rel=1e-12, abs=1e-14)

    def test_expiry_degeneracy(self, baseline_spec, baseline_option):
        # at t = tau the integral collapses to the realized payoff
        found_itm = False
        for p in range(12):
            path = simulate_path(baseline_spec, seed=29, path_index=p)
            state = np.array(
                [
                    evolve_factor(f, rec, [0.5])[0]
                    for f, rec in zip(baseline_spec.factors, path.jumps)
                ]
            )
            payoff = max(bond_price(baseline_spec, 0.5, 1.0, state) - 0.94, 0.0)
            got = fourier_call_price_at(baseline_spec, baseline_option, path, 0.5)
            assert got == pytest.approx(payoff, abs=2e-6)
            found_itm = found_itm or payoff > 1e-4
        assert found_itm

    def test_tower_property(self, baseline_spec, baseline_option):
        c0 = fourier_call_price(baseline_spec, baseline_option)
        t = 0.25
        n = 250
        values = np.empty(n)
        for p in range(n):
            path = simulate_path(baseline_spec, seed=55, path_index=p, points_per_year=16)
            c_t = fourier_call_price_at(baseline_spec, baseline_option, path, t)
            values[p] = math.exp(-integrated_rate(baseline_spec, path, t)) * c_t
        se = values.std(ddof=1) / math.sqrt(n)
        assert abs(values.mean() - c0) < 3.0 * se


def _path_state(spec, path, t):
    return np.array([evolve_factor(f, rec, [t])[0] for f, rec in zip(spec.factors, path.jumps)])


def _no_jump_bond(spec, state, t, tau, T):
    """P_nj: P(tau, T) along the jump-free path from ``state`` at t, the supremum of P(tau, T)."""
    decayed = [x * math.exp(-f.lam * (tau - t)) for f, x in zip(spec.factors, state)]
    return bond_price(spec, tau, T, decayed)


NEAR_SUPREMUM = (1e-6, 2e-8, 1e-9, 1e-12, 0.0, -1e-12, -1e-6)


class TestNearSupremumStrike:
    """K = P_nj (1 - delta): the phase slope log(P_nj/K) is about delta.

    P(tau,T) <= P_nj almost surely, so C_t <= P(t,tau) (P_nj - K)^+, a bound
    that is sharp: the no-jump outcome has positive probability.  A price
    below -1e-9 would raise PricingError and fail the test.
    """

    @staticmethod
    def check(price_at_dampening, bound):
        prices = [price_at_dampening(a) for a in (1.5, 2.0, 3.0)]
        for price in prices:
            assert 0.0 <= price <= bound + 1e-10
        assert max(prices) - min(prices) < 1e-7

    @pytest.mark.parametrize("delta", NEAR_SUPREMUM)
    @pytest.mark.parametrize("spec_name", ["baseline_spec", "two_factor_spec"])
    def test_time_zero(self, request, spec_name, delta):
        spec = request.getfixturevalue(spec_name)
        tau, T = 0.5, 1.5
        p_nj = _no_jump_bond(spec, spec.initial_state(), 0.0, tau, T)
        strike = p_nj * (1.0 - delta)
        bound = bond_price(spec, 0.0, tau) * max(p_nj - strike, 0.0)
        self.check(lambda a: fourier_call_price(spec, OptionSpec(strike, tau, T, a)), bound)

    @pytest.mark.parametrize("delta", NEAR_SUPREMUM)
    @pytest.mark.parametrize("spec_name", ["baseline_spec", "two_factor_spec"])
    def test_along_path(self, request, spec_name, delta):
        spec = request.getfixturevalue(spec_name)
        tau, T, t = 0.5, 1.5, 0.25
        path = simulate_path(spec, seed=7, path_index=0)
        state = _path_state(spec, path, t)
        p_nj = _no_jump_bond(spec, state, t, tau, T)
        strike = p_nj * (1.0 - delta)
        bound = bond_price(spec, t, tau, state) * max(p_nj - strike, 0.0)
        self.check(
            lambda a: fourier_call_price_at(spec, OptionSpec(strike, tau, T, a), path, t), bound
        )


ALPHA_50 = FactorParams(lam=2.0, sigma=0.5, x0=0.0, measure=GammaJumpMeasure(50.0, 400.0))


def _oracle_specs(baseline_spec, two_factor_spec):
    return {
        "one_factor": baseline_spec,
        "two_factor": two_factor_spec,
        "alpha_50": ModelSpec(
            factors=(baseline_spec.factors[0], ALPHA_50), floor=ConstantFloor(0.01), horizon=10.0
        ),
        "negative_floor": ModelSpec(
            factors=baseline_spec.factors, floor=ConstantFloor(-0.01), horizon=10.0
        ),
    }


class TestQawfeOracle:
    """The double-exponential tail against scipy's QAWFE route, to 1e-9 in price."""

    @pytest.mark.parametrize("name", ["one_factor", "two_factor", "alpha_50", "negative_floor"])
    def test_time_zero_grid(self, baseline_spec, two_factor_spec, name):
        spec = _oracle_specs(baseline_spec, two_factor_spec)[name]
        signs = set()
        for tau, T in ((0.25, 0.26), (0.5, 1.5), (2.0, 5.0)):
            forward = bond_price(spec, 0.0, T) / bond_price(spec, 0.0, tau)
            for moneyness in (0.9, 1.0, 1.1):
                for a in (1.5, 2.0, 3.0):
                    option = OptionSpec(forward * moneyness, tau, T, a)
                    slope = _integrand_factory(spec, option)[1]
                    assert abs(slope) >= 1e-6
                    signs.add(slope > 0)
                    assert fourier_call_price(spec, option) == pytest.approx(
                        qawfe_call_price(spec, option), abs=1e-9
                    )
        assert signs == {True, False}

    @pytest.mark.parametrize("spec_name", ["baseline_spec", "two_factor_spec"])
    def test_along_path(self, request, spec_name):
        spec = request.getfixturevalue(spec_name)
        tau, T = 0.5, 1.5
        path = simulate_path(spec, seed=11, path_index=3)
        for t in (0.1, 0.4, tau):
            state = _path_state(spec, path, t)
            forward = bond_price(spec, t, T, state) / bond_price(spec, t, tau, state)
            # at t = tau the forward is P_nj itself, where the slope is 0
            for moneyness in (0.9, 0.98, 1.02, 1.1):
                for a in (1.5, 3.0):
                    option = OptionSpec(forward * moneyness, tau, T, a)
                    assert abs(_integrand_factory(spec, option, t, path)[1]) >= 1e-6
                    assert fourier_call_price_at(spec, option, path, t) == pytest.approx(
                        qawfe_call_price(spec, option, path, t), abs=1e-9
                    )
