"""The model's own laws as oracles: outputs that two parameterizations must share.

* Scale law.  A factor's jumps sigma z have rate alpha and Exp(epsilon/sigma)
  sizes, so (sigma, epsilon) -> (c sigma, c epsilon) leaves the model as it
  is wherever (c sigma)/(c epsilon) == sigma/epsilon (Barndorff-Nielsen &
  Shephard, "Non-Gaussian Ornstein-Uhlenbeck-based models and some of their
  uses in financial economics", JRSS B 2001; Sato, *Levy Processes and
  Infinitely Divisible Distributions*, 1999).  Every entry point that takes a
  spec or a factor gives the same bits.  A path keeps its Exp(epsilon) sizes
  z, which the scale moves by c, so the functions that read a path agree to
  the pathwise tolerance instead.
* Floor law.  Adding c to the floor multiplies P(t,T) by e^{-c(T-t)}, adds c
  to f(t,T) and turns the call price C(K) into e^{-cT} C(K e^{c(T-tau)}).
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpcurve import (
    ConstantFloor,
    DualCurveSpec,
    FactorParams,
    ForwardCurve,
    GammaJumpMeasure,
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
    evolve_factor,
    factor_exponent,
    fictitious_bond_price,
    forward_rate,
    forward_spread,
    fourier_call_price,
    fourier_call_price_at,
    hjm_forward_path,
    integrated_rate,
    libor_forward,
    libor_path_closed_form,
    mc_bond_curve,
    mc_bond_price,
    mc_discounted_bond,
    mc_option_price,
    mc_short_rate_samples,
    ois_forward,
    short_rate_char_fn,
    short_rate_mgf,
    simulate_path,
    tilted_time_integral,
    yield_curve,
)

# lambda 0.4, sigma 0.6, x0 0.02, alpha 1.2, epsilon 20, and the suite's baseline factor
FACTOR = FactorParams(lam=0.4, sigma=0.6, x0=0.02, measure=GammaJumpMeasure(1.2, 20.0))
BASELINE = FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0))
SPREAD = FactorParams(lam=2.0, sigma=0.5, x0=0.005, measure=GammaJumpMeasure(1.0, 20.0))
SCALES = [2.0**10, 2.0**-10, 1e300, 1e-300]
OPTION = OptionSpec(0.9, 0.5, 2.0)
MC_PATHS = 200
# the pathwise identities' tolerance of test_simulation.py
PATHWISE_REL = 1e-10


def scaled(factor, c, param=float):
    """The factor with (sigma, epsilon) -> (c sigma, c epsilon), both passed through ``param``."""
    return dataclasses.replace(factor, sigma=param(c * factor.sigma), measure=GammaJumpMeasure(
        factor.measure.alpha, param(c * factor.measure.epsilon)))


def spec_of(*factors, floor=ConstantFloor(0.01)):
    return ModelSpec(factors=factors, floor=floor, horizon=5.0)


def bits(value):
    """A value's exact bits: hex of each float, recursing into sequences, arrays and records."""
    if dataclasses.is_dataclass(value):
        return bits(dataclasses.astuple(value))
    if isinstance(value, np.ndarray):
        return bits(value.tolist())
    if isinstance(value, (list, tuple)):
        return tuple(bits(v) for v in value)
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def factor_outputs(factor):
    """Every factor-taking entry point on a grid: the closed forms, twins and exponents."""
    out = []
    for t1, t2, T in ((0.0, 1.0, 1.0), (0.3, 1.1, 2.5), (1.0, 1.0 + 1e-9, 4.0)):
        out += [bond_B(factor, t1, T), bond_B_dT(factor, t1, T)]
        for method in ("closed", "quadrature"):
            out += [cumulant_time_integral(factor, t1, t2, T, method),
                    tilted_time_integral(factor, t1, t2, T, method)]
    for t in (0.0, 0.7, 3.0):
        for u in (-3.0, 0.7, 25.0, 4.0j, -0.5j, 2.0 - 0.5j):
            part = factor_exponent(factor, t, u)
            out += [part.psi, part.rho]
    market = ForwardCurve(np.array([0.5, 1.0, 2.0, 5.0]), np.array([0.021, 0.024, 0.028, 0.031]))
    out += calibrate_floor((factor, BASELINE), market).values
    return out


def twin_exponents(factor):
    """factor_exponent's quadrature twin, which integrates the measure's cumulant in sigma, eps."""
    return [factor_exponent(factor, t, u, "quadrature").rho
            for t in (0.7, 3.0) for u in (-3.0, 0.7, 4.0j, 2.0 - 0.5j)]


def spec_outputs(spec):
    """Every spec-taking entry point of the library that returns numbers, on a small grid."""
    out = []
    states = (None, [0.03 + 0.01 * k for k in range(spec.n_factors)])
    for t, T in ((0.0, 1.0), (0.5, 0.5 + 1e-9), (0.25, 4.0), (2.0, 5.0)):
        for state in states:
            for method in ("closed", "quadrature"):
                out += [bond_price(spec, t, T, state, method),
                        forward_rate(spec, t, T, state, method)]
            out.append(yield_curve(spec, t, T, state))
        out += conditional_moments(spec, t, T, states[1])
    bound = min(f.measure.epsilon / f.sigma for f in spec.factors)
    for t in (0.0, 1.5):
        out += [short_rate_char_fn(spec, t, u) for u in (-3.0, 0.7, 25.0, 2.0 - 0.5j)]
        out += [short_rate_mgf(spec, t, v) for v in (-4.0, 0.5, 0.9 * bound)]
    out += [fourier_call_price(spec, OPTION),
            fourier_call_price(spec, OptionSpec(0.8, 1.0, 3.0, 2.5))]
    out += [mc_bond_price(spec, 2.0, MC_PATHS, 3), mc_bond_curve(spec, [0.5, 5.0], MC_PATHS, 4),
            mc_discounted_bond(spec, 0.5, 2.0, MC_PATHS, 5),
            mc_option_price(spec, OPTION, MC_PATHS, 6), mc_short_rate_samples(spec, 1.5, MC_PATHS, 7)]
    dual = DualCurveSpec(base=spec, spread_factors=(SPREAD,), spread_floor=ConstantFloor(0.004))
    for t, T1, T2 in ((0.0, 1.0, 1.25), (0.4, 2.0, 3.0)):
        out += [fictitious_bond_price(dual, t, T2), forward_spread(dual, t, T2),
                ois_forward(dual, t, T1, T2), libor_forward(dual, t, T1, T2)]
    return out


def path_outputs(spec):
    """The path-taking entry points along a path simulated from ``spec``: its trajectories,
    the pathwise bond, forward and integrated rate, the time-t Fourier price and the
    factor trajectories of :func:`evolve_factor`."""
    path = simulate_path(spec, seed=11, path_index=2)
    out = [path.factors, path.short_rate, path.integrated]
    for t, T in ((0.3, 1.0), (1.2, 4.0)):
        out += [bond_path(spec, path, t, T), hjm_forward_path(spec, path, t, T),
                integrated_rate(spec, path, t)]
    out.append(fourier_call_price_at(spec, OPTION, path, 0.3))
    out += [evolve_factor(f, rec, path.grid) for f, rec in zip(spec.factors, path.jumps)]
    dual = DualCurveSpec(base=spec, spread_factors=(SPREAD,), spread_floor=ConstantFloor(0.004))
    dual_path = simulate_path(dual.fictitious, seed=11, path_index=2)
    out.append(libor_path_closed_form(dual, dual_path, 0.6, 1.0, 1.5))
    return [np.asarray(value, dtype=float).ravel() for value in out]


def scale_cases():
    """(c, the unscaled spec, the scaled spec): one factor alone, and paired with the baseline."""
    for c in SCALES:
        yield c, spec_of(FACTOR), spec_of(scaled(FACTOR, c))
        yield c, spec_of(FACTOR, BASELINE), spec_of(scaled(FACTOR, c), BASELINE)


SCALE_IDS = [f"{c:g}-{n}" for c in SCALES for n in ("one", "two")]


class TestScaleLaw:
    """(sigma, epsilon) -> (c sigma, c epsilon) with the same sigma/epsilon changes no output."""

    @pytest.mark.parametrize("c, base, other", list(scale_cases()), ids=SCALE_IDS)
    def test_spec_outputs_keep_their_bits(self, c, base, other):
        f, g = base.factors[0], other.factors[0]
        assert g.sigma / g.measure.epsilon == f.sigma / f.measure.epsilon
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bits(spec_outputs(other)) == bits(spec_outputs(base))

    @pytest.mark.parametrize("c", SCALES, ids=[f"{c:g}" for c in SCALES])
    def test_factor_outputs_keep_their_bits(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bits(factor_outputs(scaled(FACTOR, c))) == bits(factor_outputs(FACTOR))
            # the (sigma, epsilon) twin: bits where c is a power of two, its tolerance elsewhere
            twin, base = twin_exponents(scaled(FACTOR, c)), twin_exponents(FACTOR)
        if math.frexp(c)[0] == 0.5:
            assert bits(twin) == bits(base)
        else:
            assert twin == pytest.approx(base, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("c, base, other", list(scale_cases()), ids=SCALE_IDS)
    def test_path_outputs_agree(self, c, base, other):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, expected = path_outputs(other), path_outputs(base)
            records = [simulate_path(spec, seed=11, path_index=2).jumps for spec in (base, other)]
        for f, g, a, b in zip(base.factors, other.factors, *records):
            # the same draws: the times, and the factor's jumps sigma z up to rounding
            assert np.array_equal(b.times, a.times)
            assert g.sigma * b.sizes == pytest.approx(f.sigma * a.sizes, rel=1e-15)
        for x, y in zip(got, expected, strict=True):
            assert x == pytest.approx(y, rel=PATHWISE_REL, abs=1e-300)

    @pytest.mark.parametrize("param", [float, np.float64], ids=["float", "float64"])
    def test_numpy_scalar_parameters(self, param):
        # NumPy 1.x promotes a float64 with a Python float by value; the jump scale is
        # taken on Python floats, so NumPy scalars give the same bits and no warning
        def outputs(factor):
            spec = spec_of(factor, BASELINE)
            return [bond_price(spec, 0.25, 4.0), forward_rate(spec, 0.25, 4.0),
                    conditional_moments(spec, 0.5, 2.0, [0.03, 0.01]),
                    short_rate_mgf(spec, 1.5, 0.5), factor_exponent(factor, 0.7, 4.0j).rho,
                    mc_bond_price(spec, 2.0, 100, 3)]

        for c in SCALES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert bits(outputs(scaled(FACTOR, c, param))) == bits(outputs(FACTOR))

    @given(lam=st.floats(0.05, 5.0), sigma=st.floats(0.05, 3.0), alpha=st.floats(0.01, 10.0),
           epsilon=st.floats(1.0, 50.0), k=st.integers(-1000, 1000))
    @settings(max_examples=40, deadline=None)
    def test_property_over_the_config_ranges(self, lam, sigma, alpha, epsilon, k):
        # c = 2^k scales sigma and epsilon exactly over these ranges, so sigma/epsilon holds
        factor = FactorParams(lam=lam, sigma=sigma, x0=0.02,
                              measure=GammaJumpMeasure(alpha, epsilon))
        c = math.ldexp(1.0, k)
        base, other = spec_of(factor, BASELINE), spec_of(scaled(factor, c), BASELINE)

        def outputs(spec):
            f = spec.factors[0]
            bound = min(g.measure.epsilon / g.sigma for g in spec.factors)
            return [bond_price(spec, 0.25, 4.0), forward_rate(spec, 0.25, 4.0),
                    bond_price(spec, 0.25, 4.0, method="quadrature"),
                    forward_rate(spec, 0.25, 4.0, method="quadrature"),
                    conditional_moments(spec, 0.5, 2.0, [0.03, 0.01]),
                    short_rate_char_fn(spec, 1.5, 2.0 + 0.5j),
                    short_rate_mgf(spec, 1.5, 0.5 * bound),
                    factor_exponent(f, 0.7, 4.0j).rho, fourier_call_price(spec, OPTION),
                    mc_bond_price(spec, 2.0, 100, 3)]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bits(outputs(other)) == bits(outputs(base))


def shifted(floor, c):
    """The floor plus the constant c."""
    if isinstance(floor, ConstantFloor):
        return ConstantFloor(floor.level + c)
    return PiecewiseLinearFloor(floor.times, tuple(v + c for v in floor.values))


FLOORS = [ConstantFloor(0.01), PiecewiseLinearFloor((0.0, 1.0, 3.0), (0.01, 0.015, 0.012))]


class TestFloorLaw:
    """A constant c added to the floor discounts bonds by e^{-c(T-t)} and lifts forwards by c."""

    @pytest.mark.parametrize("c", [0.025, -0.004, 0.5])
    @pytest.mark.parametrize("floor", FLOORS, ids=["constant", "piecewise"])
    @pytest.mark.parametrize("factors", [(FACTOR,), (FACTOR, BASELINE)], ids=["one", "two"])
    def test_bonds_forwards_and_calls(self, factors, floor, c):
        base = spec_of(*factors, floor=floor)
        lifted = spec_of(*factors, floor=shifted(floor, c))
        for t, T in ((0.0, 1.0), (0.5, 0.5 + 1e-9), (0.25, 4.0), (2.0, 5.0)):
            assert bond_price(lifted, t, T) == pytest.approx(
                math.exp(-c * (T - t)) * bond_price(base, t, T), rel=2e-15, abs=0.0)
            assert forward_rate(lifted, t, T) == pytest.approx(
                forward_rate(base, t, T) + c, rel=2e-15, abs=0.0)
        for tau, T in ((0.5, 2.0), (1.0, 1.5)):
            forward = bond_price(lifted, 0.0, T) / bond_price(lifted, 0.0, tau)
            for moneyness in (0.97, 1.0, 1.03):
                strike = moneyness * forward
                call = fourier_call_price(lifted, OptionSpec(strike, tau, T))
                moved = OptionSpec(strike * math.exp(c * (T - tau)), tau, T)
                assert call == pytest.approx(math.exp(-c * T) * fourier_call_price(base, moved),
                                             rel=0.0, abs=1e-15)
