import cmath
import hashlib
import math
import re
import warnings

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
    factor_exponent,
    fourier_call_price,
    fourier_call_price_at,
    integrated_rate,
    mc_option_price,
    short_rate_char_fn,
    short_rate_mgf,
    simulate_path,
)
from jumpcurve import options, quadrature
from jumpcurve.model import _path_constants
from jumpcurve.options import (
    PricingError,
    _half_line_integral,
    _integrand_factory,
    _jump_exponent,
    _payoff_weight,
)
from jumpcurve.quadrature import QuadratureError, gauss_kronrod
from oracles import (
    closed_jump_exponent,
    jump_coefficient,
    path_state,
    per_factor_integrand,
    qawfe_call_price,
    quadrature_jump_exponent,
)


def _psi(factor, t, y, option):
    """Psi_k(y) from t to expiry by the closed form the integrand takes."""
    u = option.dampening + 1j * np.asarray(y)
    return _jump_exponent(_path_constants(factor), t, option)(u, u - 1.0)


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
            dict(strike=1.0, option_maturity=math.nan, bond_maturity=1.0),
            dict(strike=1.0, option_maturity=0.5, bond_maturity=math.nan),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            OptionSpec(**kwargs)

    @pytest.mark.parametrize("name", ["strike", "dampening"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        kwargs = dict(strike=0.94, option_maturity=0.5, bond_maturity=1.0, dampening=1.5)
        with pytest.raises(ValueError, match=f"{name} must be .*finite.*got {value}"):
            OptionSpec(**{**kwargs, name: value})

    # each once failed in a comparison: "'<' not supported between instances of 'int' and
    # 'str'" or NumPy's "truth value of an array ... is ambiguous", naming no field
    @pytest.mark.parametrize("name", ["strike", "option_maturity", "bond_maturity", "dampening"])
    @pytest.mark.parametrize("value", ["0.9", None, 0.9 + 0j, np.array([0.9, 0.95])],
                             ids=["str", "None", "complex", "array"])
    def test_rejects_non_real(self, name, value):
        kwargs = dict(strike=0.94, option_maturity=0.5, bond_maturity=1.0, dampening=1.5)
        with pytest.raises(TypeError, match=f"^{name} must be a real number, got "):
            OptionSpec(**{**kwargs, name: value})

    def test_real_numbers_become_floats(self):
        option = OptionSpec(np.float32(0.94), 1, np.int64(2), np.float64(1.5))
        assert [type(v) for v in vars(option).values()] == [float] * 4
        assert vars(option) == dict(strike=float(np.float32(0.94)), option_maturity=1.0,
                                    bond_maturity=2.0, dampening=1.5)


class TestJumpCoefficient:
    def test_vanishes_at_coincident_maturities(self, baseline_factor):
        option = OptionSpec(strike=1.0, option_maturity=1.0, bond_maturity=1.0)
        assert jump_coefficient(baseline_factor, 1.0, 1.5 + 0.7j, option) == 0.0

    def test_equal_maturities_drop_the_dampening_pair(self, baseline_factor):
        option = OptionSpec(strike=1.0, option_maturity=1.0, bond_maturity=1.0)
        got = jump_coefficient(baseline_factor, 0.3, 1.5 + 2.0j, option)
        expected = baseline_factor.sigma * bond_B(baseline_factor, 0.3, 1.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_hand_value(self, baseline_factor):
        option = OptionSpec(strike=1.0, option_maturity=0.5, bond_maturity=1.0, dampening=1.5)
        got = jump_coefficient(baseline_factor, 0.0, 1.5 + 0.0j, option)
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
        assert jump_coefficient(f, s, a + 1j * y, option).real <= 1e-15


class TestJumpExponent:
    def test_empty_interval(self, baseline_factor, baseline_option):
        assert _psi(baseline_factor, 0.5, 0.0, baseline_option) == 0.0

    def test_real_path_agreement(self, baseline_factor, baseline_option):
        # y = 0 makes the coefficient real; compare with a real-axis quadrature
        got = _psi(baseline_factor, 0.0, 0.0, baseline_option)
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
        got = _psi(f, 0.0, 1.3, baseline_option)
        assert abs(got) < 1e-13

    def test_closed_matches_quadrature(self, baseline_factor, baseline_option):
        for t in (0.0, 0.2):
            for y in (0.0, 0.7, 3.0, 25.0, 400.0):
                closed = _psi(baseline_factor, t, y, baseline_option)
                quad = quadrature_jump_exponent(baseline_factor, t, y, baseline_option)
                assert closed == pytest.approx(quad, rel=1e-10, abs=1e-12)


class TestDriftExponent:
    """Theta(y), read off the integrand w(y) exp(Theta(y) + sum_k Psi_k(y)) at t = 0."""

    @staticmethod
    def drift_exponent(spec, option, y):
        integrand, _, _ = _integrand_factory(spec, option)
        weight = TestPayoffWeight.weight(y, option, bond_price(spec, 0.0, option.bond_maturity))
        jumps = sum(_psi(f, 0.0, y, option) for f in spec.factors)
        return cmath.log(integrand(y) / weight) - jumps

    def test_no_jump_limit(self, baseline_option):
        spec = ModelSpec(
            factors=(
                FactorParams(lam=1.0, sigma=1.0, x0=0.05, measure=GammaJumpMeasure(1e-14, 10.0)),
            ),
            floor=ConstantFloor(0.03),
            horizon=5.0,
        )
        y = 1.7
        got = self.drift_exponent(spec, baseline_option, y)
        expected = (1.5 + 1j * y - 1.0) * (
            0.03 * 0.5 - 0.05 * bond_B(spec.factors[0], 0.0, 0.5)
        )
        assert got == pytest.approx(expected, rel=1e-9)

    def test_component_oracle(self, baseline_spec, baseline_option):
        from jumpcurve import cumulant_time_integral

        y = 0.0
        got = self.drift_exponent(baseline_spec, baseline_option, y)
        f = baseline_spec.factors[0]
        floor_term = 0.02 * 0.5 - 0.01 * bond_B(f, 0.0, 0.5)
        compensator = cumulant_time_integral(f, 0.0, 0.5, 1.0)
        expected = 0.5 * floor_term - 1.5 * compensator
        assert got.imag == 0.0
        assert got.real == pytest.approx(expected, rel=1e-13)


class TestPayoffWeight:
    @staticmethod
    def weight(y, option, p0T):
        u = option.dampening + 1j * y
        return _payoff_weight(u, u - 1.0, math.log(p0T), math.log(option.strike))

    def test_real_positive_on_axis(self, baseline_option):
        w = self.weight(0.0, baseline_option, 0.95)
        assert w.imag == pytest.approx(0.0, abs=1e-18)
        assert w.real > 0

    def test_hand_value_at_the_money(self):
        option = OptionSpec(strike=0.9, option_maturity=0.5, bond_maturity=1.0, dampening=2.0)
        w = self.weight(0.0, option, 0.9)
        assert w == pytest.approx(0.9 / (4.0 * math.pi), rel=1e-14)

    @given(y=st.floats(min_value=-500.0, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_hermitian_symmetry(self, y):
        option = OptionSpec(strike=0.93, option_maturity=0.5, bond_maturity=1.0)
        assert self.weight(-y, option, 0.95) == pytest.approx(
            self.weight(y, option, 0.95).conjugate(), rel=1e-12
        )

    def test_quadratic_decay(self, baseline_option):
        w1 = abs(self.weight(100.0, baseline_option, 0.95))
        w2 = abs(self.weight(200.0, baseline_option, 0.95))
        assert w2 == pytest.approx(w1 / 4.0, rel=0.05)


_WILD = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]))


def _arg(lo, hi, exclude_min=False):
    """A float from lo to hi three times in four; else any float, the non-finite ones included."""
    in_range = st.floats(lo, hi, exclude_min=exclude_min)
    return st.integers(0, 3).flatmap(lambda i: in_range if i else _WILD)


_FACTOR = FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0))
_SPEC = ModelSpec(factors=(_FACTOR,), floor=ConstantFloor(0.02), horizon=10.0)
_TIME = _arg(0.0, 10.0)
# each public transform or option entry point: its call, its arguments' names and
# strategies, and the contract of its value
_ARGUMENT_ENTRY_POINTS = {
    "factor_exponent": (
        lambda t, u: factor_exponent(_FACTOR, t, u), {"t": _TIME, "u": _arg(-1e3, 1e3)},
        lambda e: e.psi.real == 0.0 and cmath.isfinite(e.psi) and cmath.isfinite(e.rho)
        and e.rho.real <= 1e-12,
    ),
    "short_rate_char_fn": (
        lambda t, u: short_rate_char_fn(_SPEC, t, u), {"t": _TIME, "u": _arg(-1e3, 1e3)},
        lambda cf: abs(cf) <= 1.0 + 1e-12,
    ),
    "short_rate_mgf": (
        lambda t, v: short_rate_mgf(_SPEC, t, v), {"t": _TIME, "v": _arg(-1e2, 10.0)},
        lambda m: 0.0 <= m < math.inf,
    ),
    "fourier_call_price": (
        lambda k, tau, T, a: (fourier_call_price(_SPEC, OptionSpec(k, tau, T, a)),
                              bond_price(_SPEC, 0.0, T)),
        {"strike": _arg(0.0, 2.0, True), "option maturity": _arg(0.0, 5.0, True),
         "bond maturity": _TIME, "dampening": _arg(1.0, 5.0, True)},
        lambda price_and_bond: 0.0 <= price_and_bond[0] <= price_and_bond[1] + 1e-9,
    ),
}


@given(name=st.sampled_from(sorted(_ARGUMENT_ENTRY_POINTS)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_arguments_give_contract_values_or_errors_that_name_them(name, data):
    call, strategies, contract = _ARGUMENT_ENTRY_POINTS[name]
    args = [data.draw(strategy, label=arg) for arg, strategy in strategies.items()]
    names, errors = list(strategies), (ValueError, ArithmeticError)
    if name == "fourier_call_price":
        # bond_price names the bond maturity T; far below the forward or at a large
        # dampening the Fourier head fails, with a QuadratureError that names the option
        names, errors = [*names, "T"], (*errors, QuadratureError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call(*args)
        except errors as exc:
            assert re.search(rf"\b({'|'.join(names)})\b", str(exc)), str(exc)
        else:
            assert contract(value), value


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

    # dampening 3000 once returned 1.25e19, above P(0, T), and 1000 was 9e-7 off: the head
    # accepted panels at their roundoff noise.  Dampening 1e4 overflowed the integrand and
    # returned 3.4e106 after RuntimeWarnings, and 1e160 warned before the head failed.
    @pytest.mark.parametrize("strike, dampening, message", [
        (0.94, 1000.0, "head error estimate"),
        (0.94, 3000.0, "head error estimate"),
        (1e-10, 1.5, "exceeded 16384 panels"),
        (0.94, 1e4, "leaves double range"),
        (1.0, 1e160, "leaves double range"),
    ])
    def test_failed_integral_names_the_option(self, baseline_spec, strike, dampening, message):
        option = OptionSpec(strike, 0.5, 1.0, dampening)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match=message + ".* " + re.escape(
                    f"at strike={strike}, dampening={dampening}") + "$"):
                fourier_call_price(baseline_spec, option)

    # the integrand took math.log(P(0, T)) and failed with "math domain error"
    @pytest.mark.parametrize("option", [OptionSpec(0.5, 0.5, 3.0), OptionSpec(1e-300, 2.9, 3.0)])
    def test_underflowing_bond_names_itself(self, baseline_factor, option):
        spec = ModelSpec(factors=(baseline_factor,), floor=ConstantFloor(300.0), horizon=10.0)
        assert bond_price(spec, 0.0, 3.0) == 0.0
        message = r"^P\(0\.0, 3\.0\) underflows to 0\.0, so the payoff transform has no log$"
        with pytest.raises(OverflowError, match=message):
            fourier_call_price(spec, option)

    # the phase slope took math.log(P(0, T) / K), a log of 0.0: "math domain error"
    def test_strike_whose_moneyness_underflows(self, baseline_factor):
        spec = ModelSpec(factors=(baseline_factor,), floor=ConstantFloor(230.0), horizon=10.0)
        p0T = bond_price(spec, 0.0, 3.0)
        assert p0T / 1e300 == 0.0 < p0T
        assert 0.0 <= fourier_call_price(spec, OptionSpec(1e300, 0.5, 3.0)) <= p0T

    # the price of this call is P(0, 3) to double precision (K P(0, 0.5) underflows), yet
    # 1e-300 priced 1.75e-277 and 1e-310 priced 7.6e-273: below 1e-9 the integral is noise
    @pytest.mark.parametrize("strike", [1e-300, 1e-310])
    def test_price_keeps_below_the_bond(self, baseline_factor, strike):
        spec = ModelSpec(factors=(baseline_factor,), floor=ConstantFloor(230.0), horizon=10.0)
        assert fourier_call_price(spec, OptionSpec(strike, 0.5, 3.0)) == bond_price(spec, 0.0, 3.0)

    def test_price_above_the_bond_beyond_tolerance(self, baseline_spec, baseline_option,
                                                   monkeypatch):
        bound = bond_price(baseline_spec, 0.0, 1.0)
        monkeypatch.setattr(options, "_half_line_integral", lambda *args: 0.5 * bound + 1e-9)
        with pytest.raises(PricingError, match=re.escape(f"exceeds P(0, 1.0) = {bound} beyond")):
            fourier_call_price(baseline_spec, baseline_option)

    def test_negative_price_beyond_tolerance(self, baseline_spec, baseline_option, monkeypatch):
        monkeypatch.setattr(options, "_half_line_integral", lambda *args: -1e-9)
        with pytest.raises(PricingError, match="Fourier price -2e-09 is negative beyond tolerance"):
            fourier_call_price_at(baseline_spec, baseline_option, None, 0.0)

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

        integrand, _, _ = _integrand_factory(baseline_spec, baseline_option)
        full, _ = gauss_kronrod(integrand, -150.0, 150.0, abs_tol=1e-13)
        half, _ = gauss_kronrod(integrand, 0.0, 150.0, abs_tol=1e-13)
        assert full.real == pytest.approx(2.0 * half.real, abs=1e-12)
        assert abs(full.imag) < 1e-12


class TestFourierCallPriceAt:
    def test_needs_a_path_after_time_zero(self, baseline_spec, baseline_option):
        # without a path the time-t terms were dropped: t = 0.3 once gave 0.012538610654000257
        with pytest.raises(ValueError, match="a time-t price needs a path, got path=None at t=0.3"):
            fourier_call_price_at(baseline_spec, baseline_option, None, 0.3)

    @pytest.mark.parametrize("t, message", [
        (math.nan, "need {} >= 0, got {}=nan"),
        (-0.1, "need {} >= 0, got {}=-0.1"),
        (0.7, "need {} <= option maturity = 0.5, got {}=0.7"),
        (math.inf, "need {} <= option maturity = 0.5, got {}=inf"),
    ])
    def test_bad_times_name_the_argument(self, baseline_spec, baseline_option, t, message):
        path = simulate_path(baseline_spec, seed=7)
        with pytest.raises(ValueError, match=message.format("t", "t")):
            fourier_call_price_at(baseline_spec, baseline_option, path, t)

    def test_bond_maturity_past_the_horizon(self, baseline_spec):
        option = OptionSpec(strike=0.9, option_maturity=0.5, bond_maturity=12.0)
        with pytest.raises(ValueError, match="need T <= horizon = 10.0, got T=12.0"):
            fourier_call_price_at(baseline_spec, option, None, 0.0)

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
            state = path_state(baseline_spec, path, 0.5)
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
        state = path_state(spec, path, t)
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
            state = path_state(spec, path, t)
            forward = bond_price(spec, t, T, state) / bond_price(spec, t, tau, state)
            # at t = tau the forward is P_nj itself, where the slope is 0
            for moneyness in (0.9, 0.98, 1.02, 1.1):
                for a in (1.5, 3.0):
                    option = OptionSpec(forward * moneyness, tau, T, a)
                    assert abs(_integrand_factory(spec, option, t, path)[1]) >= 1e-6
                    assert fourier_call_price_at(spec, option, path, t) == pytest.approx(
                        qawfe_call_price(spec, option, path, t), abs=1e-9
                    )


# a first integrand call: 21 head panels of 15 Kronrod nodes, the far point and the DE
# rule's 122 nodes (step 0.2) or 482 (step 0.05)
COARSE_FIRST_CALL, DENSE_FIRST_CALL = 21 * 15 + 123, 21 * 15 + 483


class TestIntegrandCalls:
    """The sqrt-2 graded head settles in one or two calls; the first takes the tail's nodes too.

    Near the forward at the benchmark's dampenings every price makes one call.
    Far from the forward or at T = 5 an outer head panel, where the phase turns
    fastest, takes a second.  A dense-rule fallback adds one call of 483 points.
    """

    @staticmethod
    def count_calls(monkeypatch):
        calls = []

        def counting_factory(*args):
            integrand, *rest = _integrand_factory(*args)
            return (lambda y: calls.append(y.size) or integrand(y)), *rest

        monkeypatch.setattr(options, "_integrand_factory", counting_factory)
        return calls

    @pytest.mark.parametrize("spec_name", ["baseline_spec", "two_factor_spec"])
    def test_one_or_two_calls_per_price(self, request, monkeypatch, spec_name):
        spec = request.getfixturevalue(spec_name)
        calls = self.count_calls(monkeypatch)
        first_calls = set()
        for tau, T in ((0.25, 0.26), (0.5, 1.5), (2.0, 5.0)):
            forward = bond_price(spec, 0.0, T) / bond_price(spec, 0.0, tau)
            for moneyness in (0.9, 1.0, 1.1):
                for a in (1.5, 2.0, 3.0):
                    option = OptionSpec(forward * moneyness, tau, T, a)
                    calls.clear()
                    fourier_call_price(spec, option)
                    assert 1 <= len(calls) <= 2
                    # the coarse rule where 0.5 <= |s| A < 100, A = 200: on these two
                    # models and dampenings the amplitude at A has settled and is small,
                    # so nothing falls back
                    freq_a = abs(_integrand_factory(spec, option)[1]) * 200.0
                    coarse = 0.5 <= freq_a < 100.0
                    assert calls[0] == (COARSE_FIRST_CALL if coarse else DENSE_FIRST_CALL)
                    first_calls.add(calls[0])
        assert first_calls == {COARSE_FIRST_CALL, DENSE_FIRST_CALL}

    @pytest.mark.parametrize("spec_name", ["baseline_spec", "two_factor_spec"])
    def test_a_near_supremum_strike_takes_the_dense_rule(self, request, monkeypatch, spec_name):
        spec = request.getfixturevalue(spec_name)
        calls = self.count_calls(monkeypatch)
        tau, T = 0.5, 1.5
        p_nj = _no_jump_bond(spec, spec.initial_state(), 0.0, tau, T)
        fourier_call_price(spec, OptionSpec(p_nj * (1.0 - 1e-9), tau, T))  # |s| A is about 2e-7
        assert calls == [DENSE_FIRST_CALL]

    @pytest.mark.parametrize("spec_name", ["baseline_spec", "two_factor_spec"])
    def test_near_forward_prices_settle_in_one_call(self, request, monkeypatch, spec_name):
        # the fourier_options benchmark's traffic: its (tau, T) pairs, strikes near the
        # forward, its dampenings, at time 0 and along a path at t = tau / 2
        spec = request.getfixturevalue(spec_name)
        path = simulate_path(spec, seed=7, path_index=0)
        calls = self.count_calls(monkeypatch)
        for tau, T in ((0.5, 1.0), (1.0, 2.0), (0.5, 1.5), (0.75, 1.75)):
            for t in (0.0, 0.5 * tau):
                state = path_state(spec, path, t)
                forward = bond_price(spec, t, T, state) / bond_price(spec, t, tau, state)
                for moneyness in (0.98, 0.99, 1.0, 1.01, 1.02):
                    for a in (1.5, 2.0):
                        option = OptionSpec(forward * moneyness, tau, T, a)
                        calls.clear()
                        fourier_call_price_at(spec, option, path if t else None, t)
                        assert calls in ([COARSE_FIRST_CALL], [DENSE_FIRST_CALL]), (option, t)

    # alpha_50: the alpha = 50 factor's cumulant is far from its large-y limit at A = 200,
    # |A^2 amp(A) - c| is about 6e10 |c|; two_factor: at K = 0.8 F and a = 8 the dampened
    # amplitude has settled (1.3 |c|) but is large, |c| = 0.31; |s| A is 10.8 and 44.7.  The
    # head settles in one call and in three, the last refining outer panels, where the phase
    # turns fastest; the dense rule's 483 points follow the head in one call of their own
    @pytest.mark.parametrize("name, tau, T, moneyness, a, head_calls", [
        ("alpha_50", 0.5, 1.5, 1.0, 1.5, [COARSE_FIRST_CALL]),
        ("two_factor", 0.25, 0.26, 0.8, 8.0, [COARSE_FIRST_CALL, 6 * 15, 4 * 15]),
    ])
    def test_an_unsettled_or_large_amplitude_takes_the_dense_rule_in_one_more_call(
            self, baseline_spec, two_factor_spec, monkeypatch, name, tau, T, moneyness, a,
            head_calls):
        spec = _oracle_specs(baseline_spec, two_factor_spec)[name]
        forward = bond_price(spec, 0.0, T) / bond_price(spec, 0.0, tau)
        option = OptionSpec(forward * moneyness, tau, T, a)
        calls = self.count_calls(monkeypatch)
        price = fourier_call_price(spec, option)
        assert calls == [*head_calls, 483]
        monkeypatch.setattr(options, "_COARSE_TAIL", (math.inf, math.inf))
        assert fourier_call_price(spec, option) == price


class TestHeadPlan:
    """The head's first Gauss-Kronrod round, planned once on [0, 1], maps onto 0, A 2^{-k/2}."""

    def test_the_plan_maps_onto_the_mesh_bit_for_bit(self):
        lo, hi = options._HEAD_PLAN.panels[:2]
        mesh = [0.0, *(200.0 * 2.0 ** (-k / 2) for k in range(20, 0, -1)), 200.0]
        assert options._HEAD_PLAN.panels[4].size == 315
        assert (0.0 + options._HEAD_RANGE * np.append(lo, hi[-1])).tolist() == mesh

    def test_a_price_builds_no_round_and_a_plain_call_builds_one(self, baseline_spec,
                                                                 monkeypatch):
        built = []
        panels = quadrature._panels
        monkeypatch.setattr(quadrature, "_panels",
                            lambda *args: built.append(args) or panels(*args))
        forward = bond_price(baseline_spec, 0.0, 1.5) / bond_price(baseline_spec, 0.0, 0.5)
        fourier_call_price(baseline_spec, OptionSpec(0.99 * forward, 0.5, 1.5))
        assert built == []
        gauss_kronrod(np.cos, 0.5, 3.0, breakpoints=(1.0, 2.0))
        assert [(lo.tolist(), hi.tolist()) for lo, hi in built] == [
            ([0.5, 1.0, 2.0], [1.0, 2.0, 3.0])]

    # the three-round head of the dense-redo test above, and a near-forward one-round head:
    # the plan's round and the mesh's take the same calls, and differ by the rounding of
    # nodes and sums
    @pytest.mark.parametrize("moneyness, a", [(0.8, 8.0), (1.0, 1.5)])
    def test_the_plan_gives_the_mesh_values(self, two_factor_spec, moneyness, a):
        forward = bond_price(two_factor_spec, 0.0, 0.26) / bond_price(two_factor_spec, 0.0, 0.25)
        integrand, _, _ = _integrand_factory(
            two_factor_spec, OptionSpec(moneyness * forward, 0.25, 0.26, a))
        heads = []
        for mesh in (options._HEAD_PLAN, [200.0 * 2.0 ** (-k / 2) for k in range(20, 0, -1)]):
            sizes = []
            value, err = gauss_kronrod(lambda y: sizes.append(y.size) or integrand(y), 0.0,
                                       options._HEAD_RANGE, abs_tol=options._HEAD_ABS_TOL,
                                       rel_tol=0.0, breakpoints=mesh)
            heads.append((value, err, sizes))
        (plan, plan_err, plan_sizes), (meshed, meshed_err, meshed_sizes) = heads
        assert plan_sizes == meshed_sizes and len(plan_sizes) == (3 if a == 8.0 else 1)
        assert abs(plan - meshed) <= 1e-15 * abs(meshed)
        assert plan_err == pytest.approx(meshed_err, rel=0.01)


def test_fourier_price_digest(baseline_spec, two_factor_spec):
    # SHA-256 of float.hex over the time-0 and t = tau/2 path prices on the QAWFE oracle's four
    # specs: heads of one to five rounds, the coarse tail (438 first-call points), the dense one
    # (798) and the dense redo (483 more) on alpha_50, at every dampening the module docstring
    # names; then the three-round head with the redo, and a strike next to P_nj, where |s| A is
    # about 2e-7: a change of head, tail or integrand arithmetic shows here
    digest = hashlib.sha256()
    put = lambda price: digest.update(f"{price.hex()};".encode())
    for spec in _oracle_specs(baseline_spec, two_factor_spec).values():
        path = simulate_path(spec, seed=7, path_index=0)
        for tau, T in ((0.25, 0.26), (0.5, 1.5), (2.0, 5.0)):
            forward = bond_price(spec, 0.0, T) / bond_price(spec, 0.0, tau)
            for moneyness in (0.8, 1.0, 1.1):
                for a in (1.1, 1.5, 2.0, 3.0, 6.0):
                    option = OptionSpec(forward * moneyness, tau, T, a)
                    put(fourier_call_price(spec, option))
                    put(fourier_call_price_at(spec, option, path, 0.5 * tau))
    forward = bond_price(two_factor_spec, 0.0, 0.26) / bond_price(two_factor_spec, 0.0, 0.25)
    put(fourier_call_price(two_factor_spec, OptionSpec(0.8 * forward, 0.25, 0.26, 8.0)))
    p_nj = _no_jump_bond(baseline_spec, baseline_spec.initial_state(), 0.0, 0.5, 1.5)
    put(fourier_call_price(baseline_spec, OptionSpec(p_nj * (1.0 - 1e-9), 0.5, 1.5)))
    assert digest.hexdigest() == (
        "c257531d12797bd4af56045485501232d9ebc8719408e1ec2779cab597434797"
    )


def _same_bits(got, expected):
    """Equal real and imaginary parts, bit for bit (NaN payloads and signed zeros included)."""
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.shape == expected.shape and got.real.tobytes() == expected.real.tobytes()
            and got.imag.tobytes() == expected.imag.tobytes())


_ORACLE_FACTOR = st.builds(
    lambda lam, sigma, x0, alpha, eps: FactorParams(lam, sigma, x0, GammaJumpMeasure(alpha, eps)),
    st.floats(0.05, 3.0), st.floats(0.05, 2.0), st.floats(0.0, 0.05),
    st.floats(0.05, 50.0), st.floats(1.0, 400.0),
)


def _nodes(data, label):
    """1 to 700 points on [0, 10^k), k <= 12: the head's and the DE tail's ranges."""
    n = data.draw(st.integers(1, 700), label=f"{label} size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed"))
    return rng.uniform(0.0, 10.0 ** data.draw(st.integers(0, 12), label=f"{label} scale"), n)


class TestIntegrandOracle:
    """The hoisted integrand against the per-factor route it replaced, bit for bit.

    Vectorized NumPy loops may round a SIMD body and its remainder differently,
    so the sizes include ones that are not multiples of the vector width, and
    the head's first call, which also takes the tail's nodes, is checked
    against the two evaluated apart.
    """

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bits_match_the_per_factor_route(self, data):
        factors = tuple(data.draw(st.lists(_ORACLE_FACTOR, min_size=1, max_size=3), label="factors"))
        spec = ModelSpec(factors=factors, floor=ConstantFloor(data.draw(st.floats(-0.02, 0.06))),
                         horizon=10.0)
        tau = data.draw(st.floats(0.05, 4.0), label="option maturity")
        T = tau + data.draw(st.floats(0.0, 5.0), label="bond maturity - option maturity")
        forward = bond_price(spec, 0.0, T) / bond_price(spec, 0.0, tau)
        option = OptionSpec(forward * data.draw(st.floats(0.5, 1.5), label="moneyness"), tau, T,
                            data.draw(st.floats(1.05, 5.0), label="dampening"))
        path, t = None, 0.0
        if data.draw(st.booleans(), label="along a path"):
            path = simulate_path(spec, seed=data.draw(st.integers(0, 1000), label="path seed"))
            t = data.draw(st.floats(0.0, tau), label="t")
        head, tail = _nodes(data, "head"), _nodes(data, "tail")
        integrand, _, _ = _integrand_factory(spec, option, t, path)
        oracle = per_factor_integrand(spec, option, t, path)
        for y in (head, tail):
            assert _same_bits(integrand(y), oracle(y))
            for f in factors:
                assert _same_bits(_psi(f, t, y, option), closed_jump_exponent(f, t, y, option))
        merged = integrand(np.concatenate((head, tail)))
        assert _same_bits(merged, np.concatenate((integrand(head), integrand(tail))))


class TestHalfLineIntegral:
    """The head's first call also takes the tail's nodes; a failing head is reported first.

    NumPy's floating-point errors are ignored inside: a non-finite value fails
    the head's error check or the tail's finiteness check, with no warning.
    """

    @staticmethod
    def integrand(head, sizes):
        """``head`` times a factor that overflows at the far point y = 1e8 alone."""
        def f(y):
            sizes.append(y.size)
            return head(y) * np.exp(np.where(y > 1e7, y, 0.0))
        return f

    # at slope 1, |s| A = 200 lies above the coarse band [0.5, 100): the dense rule; at 0.1, the coarse
    RULES = pytest.mark.parametrize("slope, first_call", [(1.0, DENSE_FIRST_CALL),
                                                          (0.1, COARSE_FIRST_CALL)],
                                    ids=["dense", "coarse"])

    @pytest.mark.filterwarnings("error")
    @RULES
    def test_a_head_error_comes_before_a_tail_overflow(self, slope, first_call):
        sizes = []
        with pytest.raises(QuadratureError, match="^Fourier head error estimate"):
            _half_line_integral(self.integrand(lambda y: 1e12 * np.cos(y), sizes), slope)
        assert sizes[0] == first_call and not {123, 483} & set(sizes)

    # the overflow at the far point once raised "overflow encountered in exp" as a RuntimeWarning
    @pytest.mark.filterwarnings("error")
    @RULES
    def test_a_tail_overflow_fails_after_the_head(self, slope, first_call):
        sizes = []
        message = r"^Fourier tail diverged beyond y=200\.0 " + re.escape(f"(phase slope {slope})") + "$"
        with pytest.raises(QuadratureError, match=message):
            _half_line_integral(self.integrand(lambda y: 1.0 / (1.0 + y * y), sizes), slope)
        assert sizes[0] == first_call and not {123, 483} & set(sizes)


class TestTailRuleSwitch:
    """The coarse tail rule moves a price by at most 1e-16 from the dense rule's.

    The grid straddles both ends of the coarse band 0.5 <= |s| A < 100 on either
    sign of s; the phase slope s moves with -log K alone, so each strike is set
    from one reference strike's slope.  Taken below the band, the coarse rule
    moves these prices by up to 1.4e-13; above it, by one unit in the last
    place of prices above 0.5; at a = 6 with no bound on the lead |c|, by up
    to 1.1e-16.
    """

    FREQ_A = (0.05, 0.2, 0.3, 0.45, 0.55, 0.7, 1.0, 3.0, 10.0, 30.0, 90.0, 110.0, 150.0, 180.0, 600.0)

    @pytest.mark.parametrize("spec_name", ["baseline_spec", "two_factor_spec"])
    @pytest.mark.parametrize("along_path", [False, True])
    def test_prices_match_the_dense_rule(self, request, monkeypatch, spec_name, along_path):
        spec = request.getfixturevalue(spec_name)
        path = simulate_path(spec, seed=7, path_index=0) if along_path else None
        grid = []
        for tau, T in ((0.5, 1.0), (1.0, 2.0), (0.25, 5.0), (0.25, 0.26)):
            t = 0.5 * tau if along_path else 0.0
            for a in (1.5, 2.0, 6.0):
                slope = _integrand_factory(spec, OptionSpec(0.9, tau, T, a), t, path)[1]
                for freq_a in self.FREQ_A:
                    for sign in (1.0, -1.0):
                        grid.append((OptionSpec(0.9 * math.exp(slope - sign * freq_a / 200.0), tau, T, a), t))

        def price(option, t):
            if along_path:
                return fourier_call_price_at(spec, option, path, t)
            return fourier_call_price(spec, option)

        prices = [price(option, t) for option, t in grid]
        monkeypatch.setattr(options, "_COARSE_TAIL", (math.inf, math.inf))  # the dense rule alone
        gaps = [abs(got - price(option, t)) for (option, t), got in zip(grid, prices)]
        assert max(gaps) <= 1e-16