import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpcurve import (
    ConstantFloor,
    FactorParams,
    ForwardCurve,
    GammaJumpMeasure,
    ModelSpec,
    PiecewiseLinearFloor,
    bond_B,
    bond_B_dT,
    bond_price,
    calibrate_floor,
    conditional_moments,
    cumulant_time_integral,
    factor_exponent,
    forward_rate,
    match_moments,
    mc_bond_price,
    short_rate_char_fn,
    tilted_time_integral,
    yield_curve,
)


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


class TestOverflow:
    """Finite parameters whose closed forms overflow fail loudly, not with inf/nan."""

    @pytest.fixture
    def overflowing_spec(self):
        factor = FactorParams(lam=3.2, sigma=0.25, x0=0.01, measure=GammaJumpMeasure(1e308, 24.0))
        return ModelSpec(factors=(factor,), floor=ConstantFloor(0.02), horizon=10.0)

    @pytest.mark.parametrize("function", [bond_price, forward_rate, yield_curve])
    def test_raises_overflow_error(self, overflowing_spec, function):
        with pytest.raises(OverflowError, match="overflows double precision"):
            function(overflowing_spec, 0.0, 0.25)

    def test_calibrated_level_names_maturity(self):
        # alpha * epsilon overflows, so every fitted level would be NaN
        factor = FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(1e308, 1e308))
        market = ForwardCurve(np.array([1.0, 2.0]), np.array([0.03, 0.031]))
        with pytest.raises(OverflowError, match="level at maturity 1.0 is nan"):
            calibrate_floor((factor,), market)


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

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            ForwardCurve(np.array([1.0, 0.5]), np.array([0.01, 0.02]))


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


class TestBitExactness:
    """Closed-form outputs pinned to the bit; a refactor must not move them."""

    @pytest.mark.parametrize(
        "n, t, T, state, price, rate",
        [
            (1, 0.0, 1.0, None, "0x1.d0cf804a0e971p-1", "0x1.240464c94c6adp-3"),
            (1, 0.5, 0.5 + 1e-9, (0.07,), "0x1.ffffffff3a168p-1", "0x1.70a3d7132c6ccp-4"),
            (2, 0.25, 4.0, None, "0x1.d7ff3e954cf08p-2", "0x1.0ec55f44149d1p-2"),
            (2, 1.0, 1.0 + 1e-6, (0.03, 0.01), "0x1.fffffe278d809p-1", "0x1.c28fc89b9cf84p-5"),
            (3, 0.0, 5.0, None, "0x1.46d72bbfc7011p-2", "0x1.208aacd34dd3cp-2"),
            (3, 2.5, 6.5, (0.02, 0.0, 0.05), "0x1.b202e4bcc1651p-2", "0x1.199e7d80096b3p-2"),
            (3, 2.9999999, 3.0, None, "0x1.ffffffdbec198p-1", "0x1.58106f59971bap-5"),
        ],
    )
    def test_bond_price_and_forward_rate(self, n, t, T, state, price, rate):
        spec = _pinned_spec(n)
        assert bond_price(spec, t, T, state).hex() == price
        assert forward_rate(spec, t, T, state).hex() == rate

    def test_dense_grid_digest(self):
        # 120 distinct times to maturity per spec: numpy's log1p/expm1 differ from
        # math's in the last bit on a few percent of inputs, which a handful of
        # pinned values can miss; the heavy-jump factor puts log1p's argument near -0.5
        heavy = FactorParams(lam=0.7, sigma=1.5, x0=0.03, measure=GammaJumpMeasure(0.8, 2.0))
        specs = [_pinned_spec(n) for n in (1, 2, 3)]
        specs.append(ModelSpec(factors=(heavy,), floor=ConstantFloor(0.01), horizon=10.0))
        digest = hashlib.sha256()
        for spec in specs:
            for i in range(60):
                t = 0.07 * i
                for dT in (1e-9 * (i + 1), 0.05 + 0.0917 * i):
                    digest.update(bond_price(spec, t, t + dT).hex().encode())
                    digest.update(forward_rate(spec, t, t + dT).hex().encode())
        assert digest.hexdigest() == (
            "56227414d097b49235b5939b87e358b93483c149d9546a25b298ed632425af7e"
        )

    def test_twin_and_transform_digest(self):
        # the quadrature twins, both factor_exponent routes and the short-rate CF:
        # none of them runs through the closed forms pinned above, so a change of
        # route in any one of them shows here; u stays where Re(i u) sigma < eps
        heavy = FactorParams(lam=0.7, sigma=1.5, x0=0.03, measure=GammaJumpMeasure(0.8, 2.0))
        specs = [_pinned_spec(n) for n in (1, 2, 3)]
        specs.append(ModelSpec(factors=(heavy,), floor=ConstantFloor(0.01), horizon=10.0))
        digest = hashlib.sha256()

        def put(*values):
            for value in values:
                value = complex(value)
                digest.update(f"{value.real.hex()} {value.imag.hex()};".encode())

        for spec in specs:
            for i in range(8):
                t = 0.35 * i
                T = t + 1e-7 + 0.43 * i
                put(bond_price(spec, t, T, method="quadrature"),
                    forward_rate(spec, t, T, method="quadrature"))
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
        assert digest.hexdigest() == (
            "b09b654da7cb55258c22ac025bbbde92da0bd47ad56cb1bcc2d13be2a7b53a8f"
        )

    @pytest.mark.parametrize(
        "n, levels",
        [
            (1, ["-0x1.f1e8f7643f4f2p-5", "-0x1.93cf71823687ep-4",
                 "-0x1.0f687098a1920p-3", "-0x1.32bb39f24e7b7p-3"]),
            (2, ["-0x1.7e212ba32f4eep-4", "-0x1.20f30adf7c6fcp-3",
                 "-0x1.8410db98186dep-3", "-0x1.cfca04be174cdp-3"]),
            (3, ["-0x1.989cc8d9bdc6ep-4", "-0x1.312405924c57cp-3",
                 "-0x1.950fdc65a3d1ep-3", "-0x1.e0d3d06f4fe0dp-3"]),
        ],
    )
    def test_calibrated_floor(self, n, levels):
        market = ForwardCurve(np.array([0.5, 1.0, 2.0, 5.0]), np.array([0.021, 0.024, 0.028, 0.031]))
        floor = calibrate_floor(_pinned_factors()[:n], market)
        assert [v.hex() for v in floor.values] == levels


class TestMatchMoments:
    @staticmethod
    def observations(spec, times):
        return [
            (t, *conditional_moments(spec, 0.0, t, spec.initial_state())) for t in times
        ]

    def test_fixed_point(self, baseline_spec):
        obs = self.observations(baseline_spec, np.linspace(0.25, 5.0, 10))
        fit = match_moments(obs, 1, baseline_spec)
        assert fit.residual < 1e-12
        assert fit.converged
        got = fit.spec.factors[0]
        truth = baseline_spec.factors[0]
        assert got.lam == truth.lam
        assert got.sigma == truth.sigma
        assert got.measure == truth.measure

    def test_synthetic_recovery(self, baseline_spec):
        obs = self.observations(baseline_spec, np.linspace(0.25, 6.0, 16))
        truth = baseline_spec.factors[0]
        # sigma and eps enter the moment curves only through sigma alpha/eps
        # and sigma^2 alpha/eps^2; perturb the identified coordinates.
        start = ModelSpec(
            factors=(
                FactorParams(
                    lam=truth.lam * 1.2,
                    sigma=truth.sigma,
                    x0=truth.x0,
                    measure=GammaJumpMeasure(truth.measure.alpha * 0.8, truth.measure.epsilon),
                ),
            ),
            floor=ConstantFloor(0.012),
            horizon=baseline_spec.horizon,
        )
        fit = match_moments(obs, 1, start, max_iterations=2000)
        got = fit.spec.factors[0]
        assert got.lam == pytest.approx(truth.lam, rel=0.05)
        assert got.measure.alpha == pytest.approx(truth.measure.alpha, rel=0.05)
        assert got.sigma / got.measure.epsilon == pytest.approx(
            truth.sigma / truth.measure.epsilon, rel=0.05
        )
        assert fit.spec.floor.value(0.0) == pytest.approx(0.02, abs=0.002)

    def test_model_misfit_reports_residual(self, two_factor_spec, baseline_spec):
        obs = self.observations(two_factor_spec, np.linspace(0.25, 6.0, 16))
        misfit = match_moments(obs, 1, baseline_spec)
        well = match_moments(self.observations(baseline_spec, np.linspace(0.25, 6.0, 16)), 1, baseline_spec)
        assert misfit.residual > well.residual
        assert misfit.residual > 1e-10

    def test_rejects_insufficient_observations(self, baseline_spec):
        obs = self.observations(baseline_spec, np.linspace(0.5, 2.0, 4))
        with pytest.raises(ValueError):
            match_moments(obs, 1, baseline_spec)

    def test_two_factor_fixed_point(self, two_factor_spec):
        obs = self.observations(two_factor_spec, np.linspace(0.25, 6.0, 16))
        fit = match_moments(obs, 2, two_factor_spec)
        assert fit.residual == 0.0
        assert fit.converged
        assert fit.spec == two_factor_spec

    def test_small_budget_reports_no_convergence(self, two_factor_spec, baseline_spec):
        obs = self.observations(two_factor_spec, np.linspace(0.25, 6.0, 16))
        fit = match_moments(obs, 1, baseline_spec, max_iterations=5)
        assert not fit.converged
        assert math.isfinite(fit.residual)
        assert fit.evaluations <= 5
