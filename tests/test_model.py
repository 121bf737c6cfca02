import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpcurve import (
    ConstantFloor,
    FactorParams,
    GammaJumpMeasure,
    InvalidModelError,
    ModelSpec,
    PiecewiseLinearFloor,
    SummedFloor,
    conditional_moments,
    mc_short_rate_samples,
)

from oracles import cumulant_z_oracle, pointwise_cumulative, tilted_z_oracle

NONFINITE = [math.nan, math.inf, -math.inf]

KNOT_TIMES = (0.0, 1.0, 2.0, 3.0)

# floors of every variant with levels up to the edge of double range
LEVELS = st.floats(min_value=-1.7e308, max_value=1.7e308)
TIMES = st.floats(min_value=0.0, max_value=1e3)
CONSTANT_FLOORS = st.builds(ConstantFloor, LEVELS)
PIECEWISE_FLOORS = st.lists(
    st.tuples(st.floats(min_value=-5.0, max_value=1e3), LEVELS),
    min_size=1, max_size=10, unique_by=lambda kv: kv[0],
).map(lambda knots: PiecewiseLinearFloor(*zip(*sorted(knots))))
ANY_FLOOR = st.one_of(
    CONSTANT_FLOORS,
    PIECEWISE_FLOORS,
    st.lists(st.one_of(CONSTANT_FLOORS, PIECEWISE_FLOORS), min_size=1, max_size=3).map(SummedFloor),
)


def violations(*args, **kwargs):
    """The violations a ModelSpec built from these arguments reports."""
    with pytest.raises(InvalidModelError) as info:
        ModelSpec(*args, **kwargs)
    assert str(info.value) == "invalid model spec: " + "; ".join(info.value.violations)
    return info.value.violations


class TestValidate:
    def test_baseline_valid(self, baseline_spec):
        rebuilt = ModelSpec(baseline_spec.factors, baseline_spec.floor, baseline_spec.horizon)
        assert rebuilt == baseline_spec

    def test_zero_lambda_flagged(self, baseline_spec):
        found = violations(
            factors=(
                FactorParams(lam=0.0, sigma=0.5, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0)),
            ),
            floor=baseline_spec.floor,
            horizon=baseline_spec.horizon,
        )
        assert any("lambda must be positive" in v for v in found)

    def test_unsorted_floor_knots_flagged(self, baseline_factor):
        found = violations(
            factors=(baseline_factor,),
            floor=PiecewiseLinearFloor((0.0, 2.0, 1.0), (0.01, 0.02, 0.03)),
            horizon=5.0,
        )
        assert any("knots not sorted" in v for v in found)

    def test_all_violations_listed(self):
        found = violations(
            factors=(
                FactorParams(lam=-1.0, sigma=0.0, x0=-0.5, measure=GammaJumpMeasure(0.0, -1.0)),
            ),
            floor=ConstantFloor(0.0),
            horizon=-1.0,
        )
        assert len(found) == 6

    @pytest.mark.parametrize("value", NONFINITE)
    @pytest.mark.parametrize(
        "name, least",
        [("lambda", "positive"), ("sigma", "positive"), ("x0", "nonnegative"),
         ("alpha", "positive"), ("epsilon", "positive")],
    )
    def test_nonfinite_factor_flagged(self, name, least, value):
        p = {"lambda": 1.0, "sigma": 1.0, "x0": 0.01, "alpha": 2.0, "epsilon": 10.0, name: value}
        factor = FactorParams(
            lam=p["lambda"], sigma=p["sigma"], x0=p["x0"],
            measure=GammaJumpMeasure(p["alpha"], p["epsilon"]),
        )
        found = violations(factors=(factor,), floor=ConstantFloor(0.02), horizon=10.0)
        assert found == (f"factor 1: {name} must be {least} and finite",)

    @pytest.mark.parametrize("value", NONFINITE)
    def test_nonfinite_floor_and_horizon_flagged(self, baseline_factor, value):
        # the dual-curve floor is a SummedFloor, so every part is checked
        floor = SummedFloor((
            ConstantFloor(value),
            PiecewiseLinearFloor((0.0, 1.0), (0.01, value)),
            PiecewiseLinearFloor((0.0, value), (0.01, 0.02)),
        ))
        found = violations(factors=(baseline_factor,), floor=floor, horizon=value)
        assert found == (
            "floor part 0 level must be finite",
            "floor part 1 knots must be finite",
            "floor part 2 knots must be finite",
            "horizon must be positive and finite",
        )


class TestLevyCumulant:
    def test_zero_argument(self):
        assert GammaJumpMeasure(2.0, 10.0).levy_cumulant(0.0) == 0.0

    def test_real_negative_argument(self):
        m = GammaJumpMeasure(2.0, 10.0)
        assert m.levy_cumulant(-5.0) == pytest.approx(-2.0 / 3.0, rel=1e-15)
        assert m.levy_cumulant(-5.0) == pytest.approx(
            cumulant_z_oracle(m, -5.0), rel=1e-12
        )

    def test_complex_argument(self):
        m = GammaJumpMeasure(1.0, 4.0)
        got = m.levy_cumulant(2.0 + 1.0j)
        assert got == pytest.approx((2.0 + 1.0j) / (2.0 - 1.0j), rel=1e-15)
        assert got == pytest.approx(cumulant_z_oracle(m, 2.0 + 1.0j), rel=1e-11)

    def test_domain_error(self):
        m = GammaJumpMeasure(2.0, 10.0)
        with pytest.raises(ValueError):
            m.levy_cumulant(10.0)
        with pytest.raises(ValueError):
            m.levy_cumulant(11.0 + 3.0j)

    @given(b=st.floats(min_value=-40.0, max_value=-1e-3))
    @settings(max_examples=50, deadline=None)
    def test_real_negative_is_real_negative_increasing(self, b):
        m = GammaJumpMeasure(2.0, 10.0)
        value = m.levy_cumulant(b)
        assert value < 0
        assert m.levy_cumulant(b / 2.0) > value
        assert value == pytest.approx(cumulant_z_oracle(m, b), rel=1e-10)

    def test_compensator_identity(self):
        m = GammaJumpMeasure(2.0, 10.0)
        oracle = tilted_z_oracle(m, 0.0)
        assert m.mean_jump() == pytest.approx(oracle, abs=1e-12)
        assert m.mean_jump() == pytest.approx(m.alpha * (1.0 / m.epsilon), abs=1e-15)


class TestTiltedMean:
    def test_zero_argument_is_mean(self):
        m = GammaJumpMeasure(2.0, 10.0)
        assert m.tilted_mean(0.0) == pytest.approx(0.2, rel=1e-15)

    def test_negative_argument(self):
        m = GammaJumpMeasure(2.0, 10.0)
        assert m.tilted_mean(-10.0) == pytest.approx(0.05, rel=1e-15)
        assert m.tilted_mean(-10.0) == pytest.approx(
            tilted_z_oracle(m, -10.0), rel=1e-12
        )

    def test_interior_argument(self):
        m = GammaJumpMeasure(1.0, 1.0)
        assert m.tilted_mean(0.5) == pytest.approx(4.0, rel=1e-15)
        assert m.tilted_mean(0.5) == pytest.approx(tilted_z_oracle(m, 0.5), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            GammaJumpMeasure(1.0, 1.0).tilted_mean(1.0)


class TestSecondMoment:
    def test_against_quadrature(self):
        m = GammaJumpMeasure(2.0, 10.0)
        from jumpcurve.quadrature import gauss_kronrod

        oracle, _ = gauss_kronrod(
            lambda z: z**2 * m.alpha * m.epsilon * np.exp(-m.epsilon * z),
            0.0,
            50.0 / m.epsilon,
            abs_tol=1e-14,
        )
        assert m.second_moment() == pytest.approx(oracle, rel=1e-12)


class TestFloors:
    def test_constant_integral(self):
        floor = ConstantFloor(0.02)
        assert floor.integral(0.5, 2.5) == pytest.approx(0.04, rel=1e-15)
        assert floor.integral(1.0, 1.0) == 0.0

    def test_piecewise_matches_trapezoid(self):
        floor = PiecewiseLinearFloor((0.0, 1.0, 3.0), (0.01, 0.03, 0.0))
        grid = np.linspace(0.2, 2.7, 100_001)
        ref = np.trapezoid(floor.value(grid), grid)
        assert floor.integral(0.2, 2.7) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values",
        [(1e308, 1.7e308, 1e308, 1e308), (1.7e308, 1.7e308, -1.7e308, -1.7e308)],
        ids=["overflow", "inf-minus-inf"],
    )
    def test_overflowing_integral_raises_without_warning(self, values):
        floor = PiecewiseLinearFloor((0.0, 1.0, 2.0, 3.0), values)
        with pytest.raises(OverflowError, match="overflows double precision"):
            floor.integral(0.0, 3.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "floor, end",
        [
            (PiecewiseLinearFloor(KNOT_TIMES, (1e308, 1.7e308, 1e308, 1e308)), 0.5),
            (PiecewiseLinearFloor(KNOT_TIMES, (1.7e308, 1.7e308, -1.7e308, -1.7e308)), 0.5),
            # each part's integral is finite, only their sum overflows
            (SummedFloor((ConstantFloor(1e307),) * 2), 10.0),
        ],
        ids=["overflow", "inf-minus-inf", "summed"],
    )
    def test_overflowing_cumulative_raises_like_integral(self, floor, end):
        with pytest.raises(OverflowError) as scalar:
            floor.integral(0.0, end)
        with pytest.raises(OverflowError) as vector:
            floor.cumulative(np.array([0.0, end, 6.0 * end]))
        assert str(vector.value) == str(scalar.value)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_constant_floor_raises(self):
        floor = ConstantFloor(1e308)
        assert floor.integral(0.0, 1.5) == 1.5e308
        with pytest.raises(OverflowError, match=r"over \[0.0, 2.0\] overflows double precision"):
            floor.integral(0.0, 2.0)
        with pytest.raises(OverflowError, match=r"over \[0.0, 2.0\] overflows double precision"):
            floor.cumulative(np.array([0.0, 1.5, 2.0, 3.0]))

    def test_subnormal_knot_spacing_interpolates(self):
        # np.interp's slope 0.0625 / 2.2e-311 overflows; the value stays in [0, 0.0625]
        floor = PiecewiseLinearFloor((-2.225073858507e-311, 2.2250738585e-313), (0.0, 0.0625))
        value = floor.value(0.0)
        assert 0.0 <= value <= 0.0625
        assert np.array_equal(floor.value(np.array([0.0, 1.0])), [value, 0.0625])
        assert math.isfinite(floor.integral(0.0, 1.0))

    def test_value_stays_within_knot_values(self):
        # np.interp rounds mu(0) to -6.9e-18 here, below both knot values
        floor = PiecewiseLinearFloor((-0.18514970683766732, 5.989711946797296e-110), (0.0546875, 0.0))
        assert floor.value(0.0) == 0.0 == floor.minimum()
        assert np.all(floor.value(np.linspace(-1.0, 1.0, 101)) >= 0.0)
        assert floor.integral(0.0, 1.0) >= 0.0

    def test_flat_extrapolation(self):
        floor = PiecewiseLinearFloor((1.0, 2.0), (0.01, 0.02))
        assert floor.value(0.0) == 0.01
        assert floor.value(5.0) == 0.02
        assert floor.integral(3.0, 4.0) == pytest.approx(0.02, rel=1e-15)

    @given(
        knots=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=-0.05, max_value=0.08),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda kv: kv[0],
        ),
        cuts=st.tuples(
            st.floats(min_value=0.0, max_value=12.0),
            st.floats(min_value=0.0, max_value=12.0),
            st.floats(min_value=0.0, max_value=12.0),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_integral_additive_over_adjacent_intervals(self, knots, cuts):
        knots = sorted(knots)
        floor = PiecewiseLinearFloor(
            tuple(k for k, _ in knots), tuple(v for _, v in knots)
        )
        a, b, c = sorted(cuts)
        whole = floor.integral(a, c)
        split = floor.integral(a, b) + floor.integral(b, c)
        assert whole == pytest.approx(split, abs=1e-12)
        assert floor.integral(b, b) == 0.0

    @given(
        level=st.floats(min_value=-0.05, max_value=0.08),
        points=st.lists(st.floats(min_value=0.0, max_value=15.0), max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_cumulative_is_pointwise_integral(self, level, points):
        grid = np.array(points)
        expected = pointwise_cumulative(ConstantFloor(level), grid)
        assert ConstantFloor(level).cumulative(grid).tobytes() == expected.tobytes()

    @given(
        # knot times reach past the grid's end at 12, and may start above 0
        # (flat extrapolation below the first knot) or below it
        knots=st.lists(
            st.tuples(
                st.floats(min_value=-2.0, max_value=15.0),
                st.floats(min_value=-0.05, max_value=0.08),
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda kv: kv[0],
        ),
        points=st.lists(st.floats(min_value=0.0, max_value=12.0), max_size=20),
        level=st.floats(min_value=-0.05, max_value=0.08),
    )
    @settings(max_examples=150, deadline=None)
    def test_piecewise_cumulative_is_pointwise_integral(self, knots, points, level):
        knots = sorted(knots)
        xs = np.array([t for t, _ in knots])
        ys = np.array([v for _, v in knots])
        floor = PiecewiseLinearFloor(tuple(xs), tuple(ys))
        # a regular mesh, extra points, and every knot inside the grid's span
        grid = np.union1d(np.linspace(0.0, 12.0, 49), np.concatenate([points, xs[xs >= 0]]))
        grid = grid[grid <= 12.0]
        expected = pointwise_cumulative(floor, grid)
        got = floor.cumulative(grid)
        # integral(0, g) adds one trapezoid per knot in (0, g) plus one; np.sum
        # adds fewer than 8 terms in sequence, as cumulative does
        terms = 1 + np.count_nonzero((xs > 0) & (xs < grid[:, None]), axis=1)
        exact = terms < 8
        assert got[exact].tobytes() == expected[exact].tobytes()
        summed = SummedFloor((floor, ConstantFloor(level)))
        expected_sum = pointwise_cumulative(summed, grid)
        assert summed.cumulative(grid)[exact].tobytes() == expected_sum[exact].tobytes()
        # beyond that np.sum adds pairwise: two orders of n terms differ by at
        # most (n - 1) eps times the sum of the terms' magnitudes
        magnitude = pointwise_cumulative(PiecewiseLinearFloor(tuple(xs), tuple(np.abs(ys))), grid)
        assert np.all(np.abs(got - expected) <= terms * np.finfo(float).eps * magnitude)

    @pytest.mark.filterwarnings("error")
    @given(floor=ANY_FLOOR, times=st.tuples(TIMES, TIMES).map(sorted))
    @example(floor=SummedFloor((ConstantFloor(1e307),) * 2), times=[0.0, 10.0])
    @settings(max_examples=150, deadline=None)
    def test_integrals_are_finite_or_overflow_errors(self, floor, times):
        t0, t1 = times
        try:
            total = floor.integral(t0, t1)
        except OverflowError:
            pass
        else:
            assert type(total) is float and math.isfinite(total)
        try:
            totals = floor.cumulative(np.array([0.0, t0, t1]))
        except OverflowError:
            pass
        else:
            assert totals.dtype == float and np.all(np.isfinite(totals))

    def test_summed_floor(self):
        total = SummedFloor((ConstantFloor(0.01), ConstantFloor(0.005)))
        assert total.value(3.0) == pytest.approx(0.015, rel=1e-15)
        assert total.integral(0.0, 2.0) == pytest.approx(0.03, rel=1e-15)
        assert total.minimum() == pytest.approx(0.015, rel=1e-15)


class TestConditionalMoments:
    def test_conditioning_on_present(self, baseline_spec):
        mean, var = conditional_moments(baseline_spec, 1.0, 1.0, [0.05])
        assert mean == pytest.approx(0.02 + 0.05, rel=1e-14)
        assert var == 0.0

    def test_long_run_limits(self, baseline_factor):
        # mean -> mu + sigma alpha / (lam eps); var -> sigma^2 alpha / (lam eps^2)
        spec = ModelSpec(
            factors=(baseline_factor,), floor=ConstantFloor(0.02), horizon=2000.0
        )
        mean, var = conditional_moments(spec, 0.0, 1500.0, [0.01])
        assert mean == pytest.approx(0.02 + 1.0 * 2.0 / (1.0 * 10.0), rel=1e-12)
        assert var == pytest.approx(1.0**2 * 2.0 / (1.0 * 10.0**2), rel=1e-12)

    def test_single_factor_mean_value(self, baseline_spec):
        mean, _ = conditional_moments(
            ModelSpec(
                factors=(
                    FactorParams(lam=1.0, sigma=1.0, x0=0.0, measure=GammaJumpMeasure(1.0, 1.0)),
                ),
                floor=ConstantFloor(0.0),
                horizon=10.0,
            ),
            0.0,
            1.0,
            [0.0],
        )
        assert mean == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_monte_carlo_mean(self, baseline_spec):
        mean, var = conditional_moments(baseline_spec, 0.0, 1.0, [0.01])
        samples = mc_short_rate_samples(baseline_spec, 1.0, 20_000, seed=101)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - mean) < 3.0 * se

    def test_rejects_reversed_times(self, baseline_spec):
        with pytest.raises(ValueError):
            conditional_moments(baseline_spec, 2.0, 1.0, [0.01])

    @pytest.mark.parametrize("u, t, message", [
        (math.nan, 1.0, "need u >= 0, got u=nan"),
        (0.0, math.nan, "need u <= t, got u=0.0, t=nan"),
        (0.0, math.inf, "need t <= horizon = 10.0, got t=inf"),
        (0.0, 11.0, "need t <= horizon = 10.0, got t=11.0"),
    ])
    def test_rejects_bad_times_by_name(self, baseline_spec, u, t, message):
        with pytest.raises(ValueError, match=message):
            conditional_moments(baseline_spec, u, t, [0.01])

    def test_variance_positive_and_increasing(self, baseline_spec):
        spans = [0.1, 0.5, 1.0, 3.0, 8.0]
        variances = [
            conditional_moments(baseline_spec, 0.0, dt, [0.01])[1] for dt in spans
        ]
        assert all(v > 0 for v in variances)
        assert all(b > a for a, b in zip(variances, variances[1:]))
