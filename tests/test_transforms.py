import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpcurve import (
    ConstantFloor,
    FactorParams,
    GammaJumpMeasure,
    ModelSpec,
    conditional_moments,
    factor_exponent,
    levy_char_fn,
    levy_density,
    levy_zero_atom,
    mc_short_rate_samples,
    short_rate_char_fn,
    short_rate_mgf,
)
from oracles import qawf_levy_density, tilted_levy_density


class TestFactorExponent:
    def test_zero_argument(self, baseline_factor):
        part = factor_exponent(baseline_factor, 1.0, 0.0)
        assert part.psi == 0.0
        assert part.rho == 0.0

    def test_zero_time(self, baseline_factor):
        part = factor_exponent(baseline_factor, 0.0, 2.0)
        assert part.psi == pytest.approx(2.0j, rel=1e-15)
        assert part.rho == 0.0

    def test_mgf_closed_form_value(self, baseline_factor):
        # real argument v = 1: rho = (alpha/lam) log((eps - v sigma e^{-lam t})/(eps - v sigma))
        part = factor_exponent(baseline_factor, 1.0, -1.0j)
        expected = 2.0 * math.log((10.0 - math.exp(-1.0)) / 9.0)
        assert part.rho == pytest.approx(expected, rel=1e-10)
        assert part.psi == pytest.approx(1.0 * math.exp(-1.0), rel=1e-14)

    def test_closed_matches_quadrature_complex(self, baseline_factor):
        for u in (3.0, -1.5, 0.5 + 2.0j, -2.0j):
            closed = factor_exponent(baseline_factor, 1.7, u, method="closed")
            quad = factor_exponent(baseline_factor, 1.7, u, method="quadrature")
            assert closed.rho == pytest.approx(quad.rho, rel=1e-10, abs=1e-12)

    def test_domain_error(self, baseline_factor):
        # Re(iu) sigma >= eps diverges; u = -12j gives Re(iu) = 12 > 10
        with pytest.raises(ValueError):
            factor_exponent(baseline_factor, 1.0, -12.0j)

    def test_mgf_closed_form_vs_quadrature_grid(self, baseline_spec, two_factor_spec):
        # closed-form exponent vs time-quadrature across the v, t grid
        for spec in (baseline_spec, two_factor_spec):
            bound = min(f.measure.epsilon / f.sigma for f in spec.factors)
            for v in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
                if v >= bound:
                    continue
                for t in (0.25, 1.0, 5.0):
                    quad_exponent = v * float(spec.floor.value(t))
                    for f in spec.factors:
                        part = factor_exponent(f, t, -1.0j * v, method="quadrature")
                        quad_exponent += (part.psi * f.x0 + part.rho).real
                    closed = short_rate_mgf(spec, t, v)
                    assert math.exp(quad_exponent) == pytest.approx(
                        closed, rel=1e-10
                    )


class TestShortRateCharFn:
    def test_normalization(self, baseline_spec):
        assert short_rate_char_fn(baseline_spec, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_no_jump_limit(self):
        spec = ModelSpec(
            factors=(
                FactorParams(lam=1.0, sigma=1.0, x0=0.0, measure=GammaJumpMeasure(1e-14, 10.0)),
            ),
            floor=ConstantFloor(0.02),
            horizon=5.0,
        )
        u = 3.0
        got = short_rate_char_fn(spec, 1.0, u)
        assert got == pytest.approx(cmath.exp(1j * u * 0.02), rel=1e-10)

    def test_empirical_characteristic_function(self, baseline_spec):
        m = 50_000
        samples = mc_short_rate_samples(baseline_spec, 1.0, m, seed=2024)
        for u in (1.0, 3.0):
            empirical = np.exp(1j * u * samples).mean()
            analytic = short_rate_char_fn(baseline_spec, 1.0, u)
            assert abs(empirical - analytic) < 4.0 / math.sqrt(m)

    def test_closed_default_matches_quadrature_twin(self, two_factor_spec):
        for t in (0.25, 1.0, 5.0):
            for u in (-20.0, -3.0, 1.0, 17.0):
                exponent = 1j * u * float(two_factor_spec.floor.value(t))
                for f in two_factor_spec.factors:
                    part = factor_exponent(f, t, u, method="quadrature")
                    exponent += part.psi * f.x0 + part.rho
                assert abs(short_rate_char_fn(two_factor_spec, t, u) - cmath.exp(exponent)) < 1e-12

    @given(u=st.floats(min_value=-60.0, max_value=60.0))
    @settings(max_examples=60, deadline=None)
    def test_modulus_bounded_and_hermitian(self, u):
        spec = ModelSpec(
            factors=(
                FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0)),
            ),
            floor=ConstantFloor(0.02),
            horizon=10.0,
        )
        value = short_rate_char_fn(spec, 1.5, u)
        assert abs(value) <= 1.0 + 1e-12
        mirrored = short_rate_char_fn(spec, 1.5, -u)
        assert mirrored == pytest.approx(value.conjugate(), rel=1e-9, abs=1e-12)


class TestShortRateCharFnContract:
    @pytest.mark.parametrize("t, message", [
        (math.nan, "need t >= 0, got t=nan"),
        (-1.0, "need t >= 0, got t=-1.0"),
        (math.inf, "need t <= horizon = 10.0, got t=inf"),
    ])
    def test_rejects_bad_time(self, baseline_spec, t, message):
        with pytest.raises(ValueError, match=message):
            short_rate_char_fn(baseline_spec, t, 1.0)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_argument(self, baseline_spec, u):
        with pytest.raises(ValueError, match=f"need a finite u, got u={u}"):
            short_rate_char_fn(baseline_spec, 1.0, u)


class TestNonFiniteTransformArgument:
    # the u check sits in factor_exponent, which every CF and MGF reaches
    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("call", [
        lambda f, u: factor_exponent(f, 1.0, u),
        lambda f, u: factor_exponent(f, 1.0, u, method="quadrature"),
        lambda f, u: levy_char_fn(f.measure, 1.0, u),
    ], ids=["factor_exponent", "factor_exponent-quadrature", "levy_char_fn"])
    def test_rejected_by_name(self, baseline_factor, call, u):
        with pytest.raises(ValueError, match=re.escape(f"need a finite u, got u={u}")):
            call(baseline_factor, u)


class TestShortRateMgf:
    def test_at_zero(self, baseline_spec):
        assert short_rate_mgf(baseline_spec, 1.0, 0.0) == 1.0

    def test_derivative_is_mean(self, baseline_spec):
        h = 1e-5
        mean, _ = conditional_moments(baseline_spec, 0.0, 1.0, [0.01])
        fd = (short_rate_mgf(baseline_spec, 1.0, h) - short_rate_mgf(baseline_spec, 1.0, -h)) / (
            2.0 * h
        )
        assert fd == pytest.approx(mean, abs=1e-6)

    def test_second_derivative_gives_variance(self, baseline_spec):
        h = 1e-5
        mean, var = conditional_moments(baseline_spec, 0.0, 1.0, [0.01])
        up = short_rate_mgf(baseline_spec, 1.0, h)
        dn = short_rate_mgf(baseline_spec, 1.0, -h)
        second = (up - 2.0 + dn) / h**2
        assert second - mean**2 == pytest.approx(var, abs=1e-5)

    def test_domain_error(self, baseline_spec):
        with pytest.raises(ValueError):
            short_rate_mgf(baseline_spec, 1.0, 10.0)

    @pytest.mark.parametrize("v", [math.nan, -math.inf, math.inf])
    def test_rejects_non_finite_argument(self, baseline_spec, v):
        with pytest.raises(ValueError, match=f"got v={v}"):
            short_rate_mgf(baseline_spec, 1.0, v)

    def test_jensen_lower_bound(self, baseline_spec):
        for v in (-2.0, -0.5, 0.5, 2.0, 5.0):
            mean, _ = conditional_moments(baseline_spec, 0.0, 1.0, [0.01])
            assert short_rate_mgf(baseline_spec, 1.0, v) >= math.exp(v * mean) - 1e-12


class TestLevyCharFn:
    def test_trivial_points(self):
        m = GammaJumpMeasure(2.0, 10.0)
        assert levy_char_fn(m, 1.0, 0.0) == 1.0
        assert levy_char_fn(m, 0.0, 7.0) == 1.0

    def test_hand_value(self):
        # u alpha t / (eps - iu) at u=5: 10i (10+5i)/125 = -0.4 + 0.8i
        m = GammaJumpMeasure(2.0, 10.0)
        assert levy_char_fn(m, 1.0, 5.0) == pytest.approx(
            cmath.exp(-0.4 + 0.8j), rel=1e-14
        )

    def test_empirical(self):
        m = GammaJumpMeasure(2.0, 10.0)
        rng = np.random.default_rng(77)
        n = 100_000
        counts = rng.poisson(2.0, size=n)
        totals = rng.gamma(shape=counts, scale=0.1)
        for u in (2.0, 5.0):
            empirical = np.exp(1j * u * totals).mean()
            assert abs(empirical - levy_char_fn(m, 1.0, u)) < 4.0 / math.sqrt(n)


class TestInfiniteTime:
    # the closed forms take inf - inf at t = inf; the shared time check rejects it
    @pytest.mark.parametrize("call", [
        lambda f: factor_exponent(f, math.inf, 1.0),
        lambda f: levy_char_fn(f.measure, math.inf, 1.0),
        lambda f: levy_zero_atom(f.measure, math.inf),
    ], ids=["factor_exponent", "levy_char_fn", "levy_zero_atom"])
    def test_rejected_by_name(self, baseline_factor, call):
        with pytest.raises(ValueError, match="need a finite t, got t=inf"):
            call(baseline_factor)


class TestLevyDensity:
    def test_rejects_bad_arguments(self):
        m = GammaJumpMeasure(2.0, 10.0)
        for t in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="got t="):
                levy_density(m, t, 0.1)
        for x in (0.0, -0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="got x="):
                levy_density(m, 1.0, x)

    def test_matches_series_oracle(self):
        m = GammaJumpMeasure(2.0, 10.0)
        for x in (0.02, 0.1, 0.25, 0.6, 1.2):
            assert levy_density(m, 1.0, x) == pytest.approx(
                tilted_levy_density(m, 1.0, x), rel=1e-7, abs=1e-9
            )

    @pytest.mark.parametrize("alpha, epsilon", [(2.0, 10.0), (50.0, 400.0)])
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_matches_bessel_closed_form(self, alpha, epsilon, t):
        # from x = 1e-9 through the bulk; 1e-6 relative wherever the density
        # is at least 1e-8, and 1e-14 absolute below that
        m = GammaJumpMeasure(alpha, epsilon)
        mean, sd = alpha * t / epsilon, math.sqrt(2.0 * alpha * t) / epsilon
        bulk = mean + sd * np.linspace(0.25, 8.0, 32)
        for x in np.concatenate([np.geomspace(1e-9, mean, 40), bulk, [5e-4]]):
            exact = tilted_levy_density(m, t, x)
            assert levy_density(m, t, x) == pytest.approx(exact, rel=1e-6, abs=1e-14)

    def test_bessel_closed_form_far_beyond_qawf_range(self):
        # alpha t = 800 overflows the untilted CF; kappa = 800 runs the
        # oracle's Gauss-Kronrod branch
        m = GammaJumpMeasure(400.0, 400.0)
        for x in (1.5, 1.9, 2.0, 2.1, 2.5):
            exact = tilted_levy_density(m, 2.0, x)
            assert levy_density(m, 2.0, x) == pytest.approx(exact, rel=1e-10)

    def test_subnormal_point_is_the_one_jump_limit(self):
        # f(x) -> alpha t eps e^{-alpha t} as x -> 0
        m = GammaJumpMeasure(2.0, 10.0)
        assert levy_density(m, 1.0, 5e-324) == pytest.approx(20.0 * math.exp(-2.0), rel=1e-14)

    @pytest.mark.parametrize("alpha, epsilon, t, x", [
        (1e200, 1e200, 1e200, 1e200),  # kappa = inf
        (1.0, 1e308, 1.0, 1e-310),  # kappa / x = inf
    ])
    def test_overflow_is_an_error_not_nan(self, alpha, epsilon, t, x):
        with pytest.raises(OverflowError, match="overflows double precision"):
            levy_density(GammaJumpMeasure(alpha, epsilon), t, x)

    @given(
        log_alpha=st.floats(-3.0, 3.0),
        log_epsilon=st.floats(-1.0, 3.0),
        t=st.floats(0.01, 5.0),
        log_ratio=st.floats(-6.0, 1.0),
    )
    @settings(deadline=None)
    def test_matches_inversion_oracle_property(self, log_alpha, log_epsilon, t, log_ratio):
        # alpha in [1e-3, 1e3], eps in [0.1, 1e3], x in mean * [1e-6, 10]
        m = GammaJumpMeasure(10.0**log_alpha, 10.0**log_epsilon)
        x = m.mean_jump() * t * 10.0**log_ratio
        density = levy_density(m, t, x)
        assert math.isfinite(density) and density >= 0.0
        exact = tilted_levy_density(m, t, x)
        if exact > 1e-300:
            assert density == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("alpha, epsilon", [(2.0, 10.0), (0.5, 3.0), (50.0, 400.0)])
    def test_matches_qawf_oracle(self, alpha, epsilon):
        m = GammaJumpMeasure(alpha, epsilon)
        for t in (0.1, 1.0, 2.0):
            mean = alpha * t / epsilon
            for x in mean * np.array([0.05, 0.3, 1.0, 1.6, 2.5]):
                assert levy_density(m, t, x) == pytest.approx(
                    qawf_levy_density(m, t, x), rel=1e-8, abs=1e-10
                )

    def test_total_mass(self):
        m = GammaJumpMeasure(2.0, 10.0)
        from jumpcurve.quadrature import gauss_kronrod

        mass, _ = gauss_kronrod(
            np.vectorize(lambda x: levy_density(m, 1.0, x)),
            1e-9,
            3.0,
            abs_tol=1e-6,
            rel_tol=1e-6,
        )
        assert mass + levy_zero_atom(m, 1.0) == pytest.approx(1.0, abs=1e-4)

    def test_mean(self):
        m = GammaJumpMeasure(2.0, 10.0)
        from jumpcurve.quadrature import gauss_kronrod

        mean, _ = gauss_kronrod(
            np.vectorize(lambda x: x * levy_density(m, 1.0, x)),
            1e-9,
            3.0,
            abs_tol=1e-6,
            rel_tol=1e-6,
        )
        assert mean == pytest.approx(2.0 * 1.0 / 10.0, abs=1e-4)

    def test_atom(self):
        m = GammaJumpMeasure(2.0, 10.0)
        assert levy_zero_atom(m, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
