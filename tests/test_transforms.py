import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv

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


def gamma_density_series(measure, t, x):
    """Closed-form density of the subordinator law: Bessel-I series.

    Conditioning on the Poisson jump count m gives a Gamma(m, eps) mixture,
    e^{-alpha t - eps x} sqrt(alpha t eps / x) I_1(2 sqrt(alpha t eps x)).
    """
    a = measure.alpha * t * measure.epsilon
    return math.exp(-measure.alpha * t - measure.epsilon * x) * math.sqrt(a / x) * iv(
        1, 2.0 * math.sqrt(a * x)
    )


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


class TestLevyDensity:
    def test_rejects_bad_arguments(self):
        m = GammaJumpMeasure(2.0, 10.0)
        with pytest.raises(ValueError):
            levy_density(m, 1.0, 0.0)
        with pytest.raises(ValueError):
            levy_density(m, 0.0, 0.1)

    def test_matches_series_oracle(self):
        m = GammaJumpMeasure(2.0, 10.0)
        for x in (0.02, 0.1, 0.25, 0.6, 1.2):
            inverted = levy_density(m, 1.0, x)
            assert inverted == pytest.approx(
                gamma_density_series(m, 1.0, x), rel=1e-7, abs=1e-9
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
