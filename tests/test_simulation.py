import math
import re

import numpy as np
import pytest

from jumpcurve import (
    ConstantFloor,
    FactorParams,
    GammaJumpMeasure,
    JumpRecord,
    ModelSpec,
    OptionSpec,
    PiecewiseLinearFloor,
    SummedFloor,
    bond_path,
    bond_price,
    conditional_moments,
    evolve_factor,
    forward_rate,
    fourier_call_price,
    hjm_forward_path,
    integrated_rate,
    mc_bond_curve,
    mc_bond_price,
    mc_discounted_bond,
    mc_option_price,
    mc_short_rate_samples,
    simulate_jumps,
    simulate_path,
    yield_curve,
)
from jumpcurve.simulation import (
    _CHUNK,
    _discount_and_bond,
    _estimate,
    _jump_blocks,
    _jump_free_integral,
    _jump_moments,
    _jump_sums,
    _key,
    _philox,
)
from jumpcurve.quadrature import gauss_kronrod
from oracles import path_state, philox4x32_10


class TestJumpRecord:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            JumpRecord(np.array([0.1, 0.2]), np.array([0.5]))

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            JumpRecord(np.array([0.2, 0.1]), np.array([0.5, 0.5]))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            JumpRecord(np.array([0.1]), np.array([0.0]))


class TestSimulateJumps:
    def test_no_jump_limit(self):
        rec = simulate_jumps(GammaJumpMeasure(1e-12, 10.0), 1.0, seed=5)
        assert rec.count == 0

    def test_poisson_count_moments(self):
        # the counts of simulate_jumps(m, 1.0, 314, p) for p < 30 000, drawn in one pass
        m = GammaJumpMeasure(2.0, 10.0)
        counts = np.zeros(30_000, dtype=np.int64)
        for rows, t, _ in _jump_blocks(m, 1.0, _key(314), 0, range(counts.size)):
            counts[rows] += np.count_nonzero(t <= 1.0, axis=1)
        se = math.sqrt(2.0 / counts.size)
        assert abs(counts.mean() - 2.0) < 3.0 * se
        assert counts.var(ddof=1) == pytest.approx(2.0, rel=0.1)

    def test_exponential_size_moments(self):
        # the sizes of simulate_jumps(m, 1.0, 2718, p) for p < 10 000, drawn in one pass
        m = GammaJumpMeasure(2.0, 10.0)
        sizes = np.concatenate([z for _, z in batched_records(m, 1.0, 2718, 0, 10_000)])
        se = 0.1 / math.sqrt(sizes.size)
        assert abs(sizes.mean() - 0.1) < 3.0 * se

    def test_times_within_horizon(self):
        rec = simulate_jumps(GammaJumpMeasure(5.0, 10.0), 2.5, seed=9)
        assert np.all(rec.times > 0)
        assert np.all(rec.times <= 2.5)
        assert np.all(np.diff(rec.times) > 0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_horizon_by_name(self, horizon):
        # NaN and inf once passed `horizon <= 0` and failed later as a jump-count overflow
        with pytest.raises(ValueError, match=f"need 0 < horizon < inf, got horizon={horizon}"):
            simulate_jumps(GammaJumpMeasure(2.0, 10.0), horizon, seed=5)

    @pytest.mark.parametrize("path_index, factor_index", [(2**32, 0), (-1, 0), (0, 2**32)])
    def test_rejects_indices_past_the_counter_words(self, path_index, factor_index):
        with pytest.raises(ValueError, match=r"indices must lie in \[0, 2\*\*32\)"):
            simulate_jumps(GammaJumpMeasure(2.0, 10.0), 1.0, 5, path_index, factor_index)


def batched_records(measure, horizon, seed, factor_index, n_paths):
    """Every path's record as the Monte Carlo estimators draw it, in chunks.

    The blocks hold Exp(1) size draws E; a record's sizes are E / epsilon.
    """
    times, sizes = [[] for _ in range(n_paths)], [[] for _ in range(n_paths)]
    for rows, t, e in _jump_blocks(measure, horizon, _key(seed), factor_index, range(n_paths)):
        for row, t_row, e_row in zip(rows, t, e):
            times[row].append(t_row)
            sizes[row].append(e_row / measure.epsilon)
    records = []
    for t, z in zip(times, sizes):
        t, z = np.concatenate(t), np.concatenate(z)
        records.append((t[t <= horizon], z[t <= horizon]))
    return records


class TestReproducibility:
    def test_philox_known_answers(self):
        # Random123 known-answer vectors for Philox4x32-10
        zero = np.uint64(0)
        ones = np.uint64(0xFFFFFFFF)
        assert [int(w) for w in _philox(zero, zero, zero, zero, _key(0))] == [
            0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8,
        ]
        assert [int(w) for w in _philox(ones, ones, ones, ones, _key(2**64 - 1))] == [
            0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD,
        ]

    def test_int_oracle_gives_the_known_answers(self):
        assert philox4x32_10((0, 0, 0, 0), 0) == (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)
        assert philox4x32_10((0xFFFFFFFF,) * 4, 2**64 - 1) == (
            0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD,
        )

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_kernel_matches_the_int_oracle_word_for_word(self, seed):
        # the kernel called as _jump_blocks calls it, in one scratch buffer: one
        # path, 400 paths, a full chunk of _CHUNK blocks, then the second block
        # of a subset of its rows, up to path index 2**32 - 1 on factor index 3
        width, last = 16, 2**32 - 1
        rows = _CHUNK // width
        work = np.empty(6 * _CHUNK, dtype=np.uint64)
        calls = [
            (range(width), [last]),
            (range(width), range(last - 399, last + 1)),
            (range(width), range(last - rows + 1, last + 1)),
            (range(width, 2 * width), range(last - rows + 1, last + 1, 3)),
        ]
        for jumps, paths in calls:
            words = _philox(np.array(jumps, dtype=np.uint64), np.array(paths, dtype=np.uint64)[:, None],
                            np.uint64(3), np.uint64(0), _key(seed), work)
            expected = [[philox4x32_10((j, p, 3, 0), seed) for j in jumps] for p in paths]
            assert np.array_equal(np.stack(words, axis=-1), np.array(expected, dtype=np.uint64))

    def test_simulate_path_matches_batched_records(self, two_factor_spec):
        # at horizon 10 each factor's 1000 paths span two or more chunks
        n_paths = 1_000
        for k, f in enumerate(two_factor_spec.factors):
            batched = batched_records(f.measure, 10.0, 42, k, n_paths)
            for p in (0, 3, 11, n_paths // 2, n_paths - 1):
                rec = simulate_path(two_factor_spec, seed=42, path_index=p).jumps[k]
                assert rec.count > 0
                assert np.array_equal(rec.times, batched[p][0])
                assert np.array_equal(rec.sizes, batched[p][1])

    def test_records_nested_across_horizons(self):
        # the horizon-1 record is the horizon-10 record cut at 1, times and sizes alike
        m = GammaJumpMeasure(2.0, 10.0)
        seen = 0
        for p in range(20):
            short = simulate_jumps(m, 1.0, 5, p)
            long = simulate_jumps(m, 10.0, 5, p)
            cut = long.times <= 1.0
            assert np.array_equal(short.times, long.times[cut])
            assert np.array_equal(short.sizes, long.sizes[cut])
            seen += short.count
        assert seen > 0

    def test_curve_matches_single_maturity_prices(self, two_factor_spec):
        maturities = (0.5, 1.0, 2.0)
        curve = mc_bond_curve(two_factor_spec, maturities, 1_000, seed=61)
        for T, est in zip(maturities, curve):
            single = mc_bond_price(two_factor_spec, T, 1_000, seed=61)
            assert abs(est.value / single.value - 1.0) < 1e-14

    def test_path_records_independent_of_run_size(self, baseline_spec):
        # the same path index yields the same record however many paths run
        T = 1.0
        batch = mc_bond_price(baseline_spec, T, 200, seed=77)
        f = baseline_spec.factors[0]
        singles, jumps = [], []
        for p in range(200):
            path = simulate_path(baseline_spec, 77, p, 1)
            singles.append(math.exp(-integrated_rate(baseline_spec, path, T)))
            times, sizes = path.jumps[0].times, path.jumps[0].sizes
            slopes = np.expm1(-f.lam * (T - times[times <= T])) / f.lam
            jumps.append(f.sigma * np.sum(slopes * sizes[times <= T]))
        singles, jumps = np.array(singles), np.array(jumps)
        assert batch.plain_value == pytest.approx(np.mean(singles), rel=1e-13)
        # the cross-fitted regression: each half takes the other half's beta
        mean, var = _jump_moments(baseline_spec, T, T)
        halves = (slice(0, 100), slice(100, 200))
        betas = [
            np.cov(singles[h], jumps[h])[0, 1] / max(np.var(jumps[h], ddof=1), var)
            for h in halves
        ]
        adjusted = np.concatenate([
            singles[h] - b * (jumps[h] - mean) for h, b in zip(halves, betas[::-1])
        ])
        assert batch.beta == pytest.approx(np.mean(betas), rel=1e-10)
        assert batch.value == pytest.approx(np.mean(adjusted), rel=1e-13)

    def test_chunking_does_not_change_results(self, baseline_spec):
        t = 5.0
        assert 2_000 * baseline_spec.factors[0].measure.alpha * t > _CHUNK
        small = mc_short_rate_samples(baseline_spec, t, 200, seed=13)
        large = mc_short_rate_samples(baseline_spec, t, 2_000, seed=13)
        assert np.array_equal(large[:200], small)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
    def test_rejects_invalid_seeds(self, baseline_spec, seed):
        option = OptionSpec(strike=0.9, option_maturity=0.5, bond_maturity=1.0)
        calls = (
            lambda: simulate_path(baseline_spec, seed),
            lambda: simulate_jumps(baseline_spec.factors[0].measure, 1.0, seed),
            lambda: mc_bond_price(baseline_spec, 1.0, 100, seed),
            lambda: mc_bond_curve(baseline_spec, (0.5, 1.0), 100, seed),
            lambda: mc_discounted_bond(baseline_spec, 0.0, 1.0, 100, seed),
            lambda: mc_option_price(baseline_spec, option, 100, seed),
            lambda: mc_short_rate_samples(baseline_spec, 1.0, 100, seed),
        )
        for call in calls:
            with pytest.raises(ValueError, match="seed"):
                call()

    def test_largest_seed_accepted(self, baseline_spec):
        assert mc_bond_price(baseline_spec, 1.0, 100, 2**64 - 1).value > 0


class TestEvolveFactor:
    def test_pure_decay_without_jumps(self, baseline_factor):
        empty = JumpRecord(np.array([]), np.array([]))
        grid = np.array([0.0, 0.5, 1.0, 2.0])
        x = evolve_factor(
            FactorParams(lam=1.0, sigma=1.0, x0=0.4, measure=baseline_factor.measure),
            empty,
            grid,
        )
        assert np.allclose(x, 0.4 * np.exp(-grid), rtol=1e-14)

    def test_single_jump(self, baseline_factor):
        rec = JumpRecord(np.array([1.0]), np.array([0.25]))
        f = FactorParams(lam=2.0, sigma=3.0, x0=0.0, measure=baseline_factor.measure)
        before = evolve_factor(f, rec, [0.999999])[0]
        at = evolve_factor(f, rec, [1.0])[0]
        after = evolve_factor(f, rec, [1.5])[0]
        assert before == pytest.approx(0.0, abs=1e-12)
        assert at == pytest.approx(3.0 * 0.25, rel=1e-12)
        assert after == pytest.approx(3.0 * 0.25 * math.exp(-2.0 * 0.5), rel=1e-12)

    @pytest.mark.parametrize("grid, message", [
        ([0.5, math.nan], "need grid >= 0, got grid=nan"),
        ([-1.0, 0.5], "need grid >= 0, got grid=-1.0"),
        ([0.5, math.inf], "need a finite grid, got grid=inf"),
    ])
    def test_rejects_bad_grid_by_name(self, baseline_factor, grid, message):
        # these once returned nan, a value above x0 and 0.0
        rec = JumpRecord(np.array([1.0]), np.array([0.25]))
        with pytest.raises(ValueError, match=message):
            evolve_factor(baseline_factor, rec, grid)

    def test_empty_grid(self, baseline_factor):
        rec = JumpRecord(np.array([1.0]), np.array([0.25]))
        assert evolve_factor(baseline_factor, rec, []).shape == (0,)

    def test_ensemble_mean_matches_moment_formula(self, baseline_spec):
        # X(1) of the records simulate_jumps(f.measure, 1.0, 99, p) for p < 20 000,
        # drawn in one pass
        f = baseline_spec.factors[0]
        values = np.array(
            [
                evolve_factor(f, JumpRecord(t, z), [1.0])[0]
                for t, z in batched_records(f.measure, 1.0, 99, 0, 20_000)
            ]
        )
        expected = f.x0 * math.exp(-f.lam) + f.sigma * f.measure.alpha * (
            1.0 - math.exp(-f.lam)
        ) / (f.lam * f.measure.epsilon)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - expected) < 3.0 * se


def jump_aware_trapezoid(spec, path, upto):
    """Trapezoid oracle for the integrated rate, exact at the jump epochs.

    Uses the pre-jump limit at each segment's right endpoint, so the only
    error left is the O(h^2) curvature error of the decay segments.
    """
    grid = path.grid[path.grid <= upto]
    values = np.asarray(spec.floor.value(grid)) + path.factors.sum(axis=0)[: grid.size]
    right = values.copy()
    for f, rec in zip(spec.factors, path.jumps):
        for u, z in zip(rec.times, rec.sizes):
            hit = np.nonzero(grid == u)[0]
            if hit.size:
                right[hit[0]] -= f.sigma * z
    widths = np.diff(grid)
    return float(np.sum(0.5 * (values[:-1] + right[1:]) * widths))


class TestIntegratedRate:
    def test_zero_at_origin(self, baseline_spec):
        path = simulate_path(baseline_spec, seed=8)
        assert integrated_rate(baseline_spec, path, 0.0) == 0.0

    def test_deterministic_part(self):
        spec = ModelSpec(
            factors=(
                FactorParams(lam=2.0, sigma=1.0, x0=0.3, measure=GammaJumpMeasure(1e-12, 10.0)),
            ),
            floor=ConstantFloor(0.05),
            horizon=4.0,
        )
        path = simulate_path(spec, seed=21)
        t = 3.0
        b = (math.exp(-2.0 * t) - 1.0) / 2.0
        assert integrated_rate(spec, path, t) == pytest.approx(
            0.05 * t - 0.3 * b, rel=1e-12
        )

    def test_trapezoid_oracle(self, baseline_spec):
        path = simulate_path(baseline_spec, seed=4, points_per_year=2000)
        exact = integrated_rate(baseline_spec, path, 5.0)
        approx = jump_aware_trapezoid(baseline_spec, path, 5.0)
        assert exact == pytest.approx(approx, abs=1e-6)

    def test_rejects_outside_span(self, baseline_spec):
        path = simulate_path(baseline_spec, seed=8)
        with pytest.raises(ValueError):
            integrated_rate(baseline_spec, path, baseline_spec.horizon + 1.0)

    @pytest.mark.parametrize("spec_name, floor", [
        ("baseline_spec", None),
        ("two_factor_spec", None),
        ("two_factor_spec", PiecewiseLinearFloor([0.5, 2.0, 5.0, 9.0], [0.01, 0.02, -0.005, 0.03])),
    ])
    def test_matches_the_path_column(self, request, spec_name, floor):
        # the scalar route sums in another order than the grid's, so the last bits may differ
        spec = request.getfixturevalue(spec_name)
        if floor is not None:
            spec = ModelSpec(spec.factors, floor, spec.horizon)
        for p in range(10):
            path = simulate_path(spec, seed=5, path_index=p, points_per_year=4)
            got = [integrated_rate(spec, path, t) for t in path.grid]
            np.testing.assert_allclose(got, path.integrated, rtol=0.0, atol=4e-15)

    @pytest.mark.parametrize("t", [math.nan, -1.0, math.inf, -math.inf])
    def test_pathwise_entry_points_reject_bad_times(self, baseline_spec, t):
        path = simulate_path(baseline_spec, seed=8)
        calls = (
            lambda: integrated_rate(baseline_spec, path, t),
            lambda: bond_path(baseline_spec, path, t, 5.0),
            lambda: hjm_forward_path(baseline_spec, path, t, 5.0),
        )
        # "need t >= 0", or t = inf after the path's end or after T; the message names t
        message = rf"^need t (>= 0|<= T|<= horizon = 10.0), got t={t}"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("T", [1.0, math.nan])
    def test_pathwise_entry_points_need_t_before_maturity(self, baseline_spec, T):
        path = simulate_path(baseline_spec, seed=8)
        for fn in (bond_path, hjm_forward_path):
            with pytest.raises(ValueError, match="need t <= T"):
                fn(baseline_spec, path, 2.0, T)


class TestSimulatePathGrid:
    @pytest.mark.parametrize("points_per_year", [0.01, 0.04, 1, 252])
    def test_grid_spans_horizon(self, baseline_spec, points_per_year):
        # at 0.01 or 0.04 per year a 10-year mesh rounds to 0 steps: it keeps one
        path = simulate_path(baseline_spec, seed=8, points_per_year=points_per_year)
        assert path.grid[0] == 0.0
        assert path.grid[-1] == baseline_spec.horizon
        steps = max(1, round(points_per_year * baseline_spec.horizon))
        mesh = np.linspace(0.0, baseline_spec.horizon, steps + 1)
        assert np.array_equal(path.grid, np.union1d(mesh, path.jumps[0].times))

    @pytest.mark.parametrize("points_per_year", [0, -1, -0.5, math.nan, math.inf])
    def test_rejects_bad_points_per_year(self, baseline_spec, points_per_year):
        with pytest.raises(ValueError, match="points_per_year"):
            simulate_path(baseline_spec, seed=8, points_per_year=points_per_year)


class TestPathInvariants:
    def test_rate_stays_above_floor(self, baseline_spec, two_factor_spec):
        for spec, seed in ((baseline_spec, 1), (two_factor_spec, 2)):
            for p in range(20):
                path = simulate_path(spec, seed=seed, path_index=p)
                floor_vals = np.asarray(spec.floor.value(path.grid))
                assert np.min(path.short_rate - floor_vals) >= -1e-15

    def test_exponential_decay_between_jumps(self, baseline_spec):
        path = simulate_path(baseline_spec, seed=17)
        f = baseline_spec.factors[0]
        rec = path.jumps[0]
        grid, x = path.grid, path.factors[0]
        for i in range(len(grid) - 1):
            jumps_inside = np.any((rec.times > grid[i]) & (rec.times <= grid[i + 1]))
            if not jumps_inside:
                expected = x[i] * math.exp(-f.lam * (grid[i + 1] - grid[i]))
                assert x[i + 1] == pytest.approx(expected, rel=1e-10, abs=1e-14)

    def test_short_rate_is_floor_plus_factors(self, two_factor_spec):
        path = simulate_path(two_factor_spec, seed=3)
        rebuilt = np.asarray(two_factor_spec.floor.value(path.grid)) + path.factors.sum(axis=0)
        assert np.array_equal(path.short_rate, rebuilt)


class TestBondPath:
    def test_initial_condition(self, baseline_spec):
        path = simulate_path(baseline_spec, seed=12)
        assert bond_path(baseline_spec, path, 0.0, 2.0) == pytest.approx(
            bond_price(baseline_spec, 0.0, 2.0), rel=1e-13
        )

    def test_pathwise_identity(self, baseline_spec, two_factor_spec):
        pairs = ((0.25, 1.0), (0.5, 2.0), (1.0, 5.0))
        for spec, seed in ((baseline_spec, 5), (two_factor_spec, 6)):
            for p in range(50):
                path = simulate_path(spec, seed=seed, path_index=p)
                for (t, T) in pairs:
                    state = path_state(spec, path, t)
                    affine = bond_price(spec, t, T, state)
                    pathwise = bond_path(spec, path, t, T)
                    assert abs(pathwise / affine - 1.0) < 1e-10

    def test_discounted_bond_is_martingale(self, baseline_spec):
        analytic = bond_price(baseline_spec, 0.0, 1.0)
        for t in (0.25, 0.5, 0.75):
            est = mc_discounted_bond(baseline_spec, t, 1.0, 20_000, seed=23)
            assert abs(est.value - analytic) < 3.0 * est.std_error
        # at t = 0 nothing is random: the estimate is the bond, bit for bit
        est = mc_discounted_bond(baseline_spec, 0.0, 1.0, 400, seed=23)
        assert (est.value, est.std_error, est.plain_value, est.plain_std_error) == (
            analytic, 0.0, analytic, 0.0)
        assert est.n_paths == 400

    def test_spot_rate_path_representation(self, baseline_spec):
        # R(t,T) from the pathwise bond equals the affine yield at the state
        path = simulate_path(baseline_spec, seed=31)
        t, T = 0.5, 2.0
        state = path_state(baseline_spec, path, t)
        pathwise = math.log(bond_path(baseline_spec, path, t, T)) / (t - T)
        affine = yield_curve(baseline_spec, t, T, state)
        assert pathwise == pytest.approx(affine, rel=1e-10)


class TestHjmForwardPath:
    def test_initial_condition(self, baseline_spec):
        path = simulate_path(baseline_spec, seed=14)
        rate = hjm_forward_path(baseline_spec, path, 0.0, 2.0)
        assert type(rate) is float
        assert rate == pytest.approx(forward_rate(baseline_spec, 0.0, 2.0), rel=1e-13)

    def test_pathwise_identity(self, two_factor_spec):
        for p in range(50):
            path = simulate_path(two_factor_spec, seed=44, path_index=p)
            for (t, T) in ((0.25, 1.0), (1.0, 3.0)):
                state = path_state(two_factor_spec, path, t)
                hjm = hjm_forward_path(two_factor_spec, path, t, T)
                affine = forward_rate(two_factor_spec, t, T, state)
                assert abs(hjm - affine) < 1e-9

    def test_settles_to_short_rate(self, baseline_spec):
        path = simulate_path(baseline_spec, seed=15)
        t = 1.5
        idx = np.searchsorted(path.grid, t)
        state = path_state(baseline_spec, path, t)
        r_t = 0.02 + state[0]
        assert hjm_forward_path(baseline_spec, path, t, t) == pytest.approx(
            r_t, abs=1e-9
        )


class TestMonteCarloEstimators:
    def test_deterministic_limit(self):
        spec = ModelSpec(
            factors=(
                FactorParams(lam=1.0, sigma=1.0, x0=0.0, measure=GammaJumpMeasure(1e-13, 10.0)),
            ),
            floor=ConstantFloor(0.03),
            horizon=5.0,
        )
        est = mc_bond_price(spec, 2.0, 500, seed=3)
        assert est.value == pytest.approx(math.exp(-0.06), rel=1e-9)
        assert est.std_error < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_overflowing_summed_floor_raises(self, baseline_factor):
        # each part integrates to 1e308 over the horizon; their sum overflows
        spec = ModelSpec(
            factors=(baseline_factor,),
            floor=SummedFloor((ConstantFloor(1e307),) * 2),
            horizon=10.0,
        )
        with pytest.raises(OverflowError, match=r"over \[0.0, 10.0\] overflows"):
            mc_bond_price(spec, 10.0, 400, seed=1)

    def test_against_analytic(self, baseline_spec):
        est = mc_bond_price(baseline_spec, 1.0, 20_000, seed=41)
        analytic = bond_price(baseline_spec, 0.0, 1.0)
        assert abs(est.value - analytic) < 3.0 * est.std_error

    def test_clt_scaling(self, baseline_spec):
        small = mc_bond_price(baseline_spec, 1.0, 5_000, seed=51)
        large = mc_bond_price(baseline_spec, 1.0, 20_000, seed=52)
        assert large.std_error == pytest.approx(small.std_error / 2.0, rel=0.15)

    def test_curve_shares_paths(self, baseline_spec):
        ests = mc_bond_curve(baseline_spec, (0.25, 1.0), 5_000, seed=61)
        for T, est in zip((0.25, 1.0), ests):
            analytic = bond_price(baseline_spec, 0.0, T)
            assert abs(est.value - analytic) < 3.0 * est.std_error

    def test_option_degenerate_strike_is_bond(self, baseline_spec):
        option = OptionSpec(strike=1e-12, option_maturity=0.5, bond_maturity=1.0)
        est = mc_option_price(baseline_spec, option, 20_000, seed=71)
        analytic = bond_price(baseline_spec, 0.0, 1.0) - 1e-12 * bond_price(baseline_spec, 0.0, 0.5)
        assert abs(est.value - analytic) < 3.0 * est.std_error

    def test_option_dominated_strike_is_zero(self, baseline_spec):
        # K above exp(-int mu) bounds the payoff at zero on every path
        option = OptionSpec(strike=1.0, option_maturity=0.5, bond_maturity=1.0)
        est = mc_option_price(baseline_spec, option, 1_000, seed=81)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_empirical_moments(self, baseline_spec):
        samples = mc_short_rate_samples(baseline_spec, 1.0, 20_000, seed=91)
        mean, var = conditional_moments(baseline_spec, 0.0, 1.0, [0.01])
        se_mean = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - mean) < 3.0 * se_mean
        # variance of the sample variance via fourth-moment normal approximation
        se_var = samples.var(ddof=1) * math.sqrt(2.0 / (samples.size - 1))
        assert abs(samples.var(ddof=1) - var) < 5.0 * se_var

    def test_rejects_tiny_path_counts(self, baseline_spec):
        with pytest.raises(ValueError):
            mc_bond_price(baseline_spec, 1.0, 50, seed=1)

    @pytest.mark.parametrize("call, message", [
        (lambda s: mc_bond_price(s, -1.0, 400, 1), "need maturity >= 0, got maturity=-1.0"),
        (lambda s: mc_bond_price(s, math.nan, 400, 1), "need maturity >= 0, got maturity=nan"),
        (lambda s: mc_bond_curve(s, [], 400, 1), "need at least one maturity"),
        (lambda s: mc_bond_curve(s, [-1.0, 1.0], 400, 1), "got maturity=-1.0"),
        (lambda s: mc_bond_curve(s, [1.0, math.nan], 400, 1), "got maturity=nan"),
        (lambda s: mc_bond_curve(s, [1.0, 11.0], 400, 1), "need maturity <= horizon"),
        (lambda s: mc_discounted_bond(s, -1.0, 1.0, 400, 1), "need t >= 0, got t=-1.0"),
        (lambda s: mc_discounted_bond(s, math.nan, 1.0, 400, 1), "got t=nan"),
        (lambda s: mc_discounted_bond(s, 0.5, math.nan, 400, 1), "got T=nan"),
        (lambda s: mc_discounted_bond(s, 2.0, 1.0, 400, 1), "need t <= T"),
        (lambda s: mc_short_rate_samples(s, -1.0, 400, 1), "need t >= 0, got t=-1.0"),
        (lambda s: mc_short_rate_samples(s, math.nan, 400, 1), "got t=nan"),
        (lambda s: mc_short_rate_samples(s, math.inf, 400, 1), "need t <= horizon"),
        (lambda s: mc_option_price(s, OptionSpec(0.9, 0.5, 11.0), 400, 1),
         "need bond maturity <= horizon"),
    ])
    def test_rejects_bad_times_by_name(self, baseline_spec, call, message):
        with pytest.raises(ValueError, match=message):
            call(baseline_spec)


def plain_mean(values):
    """The sample mean as the estimators computed it before the control variates."""
    return float(np.sum(values) / values.size)


class TestControlVariates:
    """Regression-adjusted estimators against their plain means and controls."""

    def test_never_worse_than_plain(self, baseline_spec):
        option = OptionSpec(strike=0.94, option_maturity=0.5, bond_maturity=1.0)
        estimates = (
            mc_bond_price(baseline_spec, 1.0, 20_000, seed=111),
            mc_discounted_bond(baseline_spec, 0.5, 1.0, 20_000, seed=112),
            mc_option_price(baseline_spec, option, 20_000, seed=113),
        )
        for est in estimates:
            assert 0.0 < est.std_error <= est.plain_std_error
            assert est.beta != 0.0

    @pytest.mark.parametrize("T, ratio", [(1.0, 100.0), (5.0, 10.0)])
    def test_bond_variance_ratio(self, baseline_spec, T, ratio):
        # the control is linear in the jump sum J and the value is exp(J):
        # the reduction falls with the spread of J, from about 200-fold at
        # T = 1 to about 17-fold at T = 5
        est = mc_bond_price(baseline_spec, T, 50_000, seed=121)
        assert (est.plain_std_error / est.std_error) ** 2 >= ratio
        analytic = bond_price(baseline_spec, 0.0, T)
        assert abs(est.value - analytic) < 3.0 * est.std_error

    @pytest.mark.parametrize("t, T", [(5.0, 5.0), (0.5, 1.0), (1.0, 3.0)])
    def test_control_moments_match_samples(self, two_factor_spec, t, T):
        # t = T is the bond control, t < T the martingale control; both are
        # the third array of _discount_and_bond
        n = 200_000
        _, _, jumps = _discount_and_bond(two_factor_spec, _key(131), n, t, T)
        mean, var = _jump_moments(two_factor_spec, t, T)
        for sample, expected in ((jumps, mean), ((jumps - mean) ** 2, var)):
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - expected) < 5.0 * se

    @pytest.mark.parametrize("lam", [3.0, 1.0, 1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("t, T", [(1.0, 2.0), (5.0, 5.0)])
    def test_jump_moments_match_quadrature(self, lam, t, T):
        # at small lam the differences of exponentials cancel; the result must not
        f = _factor(lam, 0.7, 0.01, 2.0, 10.0)
        spec = ModelSpec(factors=(f,), floor=ConstantFloor(0.02), horizon=10.0)
        slope = lambda u: np.expm1(-lam * (T - u)) / lam
        first, _ = gauss_kronrod(slope, 0.0, t, abs_tol=1e-15)
        second, _ = gauss_kronrod(lambda u: slope(u) ** 2, 0.0, t, abs_tol=1e-15)
        mean, var = _jump_moments(spec, t, T)
        assert mean == pytest.approx(0.7 * 0.2 * first, rel=1e-12)
        assert var == pytest.approx(0.49 * 0.04 * second, rel=1e-12)

    def test_overflowing_jump_moments_name_the_factor(self, two_factor_spec):
        # lambda**3 of the control's moments overflows; it once raised a bare
        # "(34, 'Numerical result out of range')", after drawing every path
        huge = _factor(1e308, 1.0, 0.01, 2.0, 10.0)
        spec = ModelSpec(factors=(two_factor_spec.factors[0], huge), floor=ConstantFloor(0.02),
                         horizon=10.0)
        message = re.escape("factor index 1: lambda**3 of the jump moments overflows (lambda=1e+308)")
        with pytest.raises(OverflowError, match=message):
            mc_bond_price(spec, 2.0, 1_000, seed=5)
        with pytest.raises(OverflowError, match=message):
            mc_discounted_bond(spec, 1.0, 2.0, 1_000, seed=5)

    def test_huge_lambda_draws_without_warnings(self, two_factor_spec):
        # -lambda (t - u) overflows to -inf, where e^{-inf} = 0 is the weight;
        # the estimators without a jump-moment control once warned there
        huge = _factor(1e308, 1.0, 0.01, 2.0, 10.0)
        spec = ModelSpec(factors=(two_factor_spec.factors[0], huge), floor=ConstantFloor(0.02),
                         horizon=10.0)
        samples = mc_short_rate_samples(spec, 2.0, 1_000, seed=5)
        one_factor = ModelSpec(factors=spec.factors[:1], floor=spec.floor, horizon=10.0)
        # the huge factor decays at once, so it adds exactly 0.0 to every sample
        assert np.array_equal(samples, mc_short_rate_samples(one_factor, 2.0, 1_000, seed=5))
        est = mc_option_price(spec, OptionSpec(0.9, 1.0, 2.0), 1_000, seed=5)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)

    def test_tiny_lambda_and_epsilon_price_an_option(self):
        # sigma B(t, T) dwarfs epsilon = 1e-300, so the bond's cumulant log
        # ratio rounds to -1; the option once raised "math domain error"
        spec = ModelSpec(factors=(_factor(1e-300, 1.0, 0.01, 2.0, 1e-300),),
                         floor=ConstantFloor(0.02), horizon=2.0)
        est = mc_option_price(spec, OptionSpec(0.9, 0.5, 1.0), 1_000, seed=1)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)

    def test_bond_control_is_the_bond_jump_sum(self, two_factor_spec):
        _, _, jumps = _discount_and_bond(two_factor_spec, _key(132), 1_000, 2.0, 2.0)
        bond = _jump_sums(two_factor_spec, _key(132), 1_000, [(2.0, "bond")]).sum(axis=0)[0]
        assert np.array_equal(jumps, bond)

    def test_plain_value_is_the_old_mean(self, two_factor_spec):
        n, t, T = 5_000, 0.5, 2.0
        curve = mc_bond_curve(two_factor_spec, (t, T), n, seed=141)
        sums = _jump_sums(two_factor_spec, _key(141), n, [(t, "bond"), (T, "bond")]).sum(axis=0)
        for maturity, jumps, est in zip((t, T), sums, curve):
            values = np.exp(jumps - _jump_free_integral(two_factor_spec, maturity))
            assert est.plain_value == plain_mean(values)
        discount, bond, _ = _discount_and_bond(two_factor_spec, _key(142), n, t, T)
        est = mc_discounted_bond(two_factor_spec, t, T, n, seed=142)
        assert est.plain_value == plain_mean(discount * bond)
        option = OptionSpec(strike=0.95, option_maturity=t, bond_maturity=T)
        discount, bond, _ = _discount_and_bond(two_factor_spec, _key(143), n, t, T)
        est = mc_option_price(two_factor_spec, option, n, seed=143)
        assert est.plain_value == plain_mean(discount * np.maximum(bond - 0.95, 0.0))

    def test_deterministic_limit_uses_no_control(self):
        spec = ModelSpec(
            factors=(_factor(1.0, 1.0, 0.0, 1e-13, 10.0),), floor=ConstantFloor(0.03), horizon=5.0
        )
        est = mc_bond_price(spec, 2.0, 500, seed=3)
        assert est.beta == 0.0
        assert est.value == est.plain_value

    def test_control_constant_up_to_rounding_gets_no_coefficient(self):
        rng = np.random.default_rng(5)
        values = rng.normal(1.0, 0.1, 1_000)
        control = 0.3 + rng.integers(-4, 5, values.size) * np.spacing(0.3)
        est = _estimate(values, control, 0.3)
        assert est.beta == 0.0
        assert est.value == est.plain_value == plain_mean(values)
        assert est.std_error == est.plain_std_error

    # var(c) underflowed to 0.0: beta was 0/0, and the estimate NaN after a RuntimeWarning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_payoff_gets_no_coefficient(self, baseline_factor):
        spec = ModelSpec(factors=(baseline_factor,), floor=ConstantFloor(230.0), horizon=10.0)
        est = mc_option_price(spec, OptionSpec(1e300, 0.5, 3.0), 1_000, seed=1)
        assert est.beta == 0.0
        assert est.value == est.plain_value == 0.0

    # var(c) of the discounted bond near 1e-300 underflowed to 0.0, so the control was
    # dropped: beta 0.0 and std_error = plain_std_error = 5.46e-303 at seed 1
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_control_near_1e_300_keeps_its_coefficient(self, baseline_factor, seed):
        spec = ModelSpec(factors=(baseline_factor,), floor=ConstantFloor(230.0), horizon=10.0)
        option = OptionSpec(1e-300, 0.5, 3.0)
        est = mc_option_price(spec, option, 1_000, seed=seed)
        # the payoff is the control less K P(0, 0.5), which underflows
        assert est.beta == pytest.approx(1.0, rel=1e-12)
        assert est.std_error < 1e-6 * est.plain_std_error
        assert abs(est.value - fourier_call_price(spec, option)) < 5.0 * est.std_error

    # squared draws near 1e-300 underflowed: plain_std_error was 0.0, and std_error the
    # rounding bound, 4.5e-315 for a bond whose draws scaled by 2^1000 give 2.0e-303
    def test_draws_scaled_by_a_power_of_two_scale_every_field(self):
        rng = np.random.default_rng(8)
        control = rng.normal(0.0, 1.0, 1_000)
        values = 1.0 + 0.5 * control + rng.normal(0.0, 0.1, control.size)
        est = _estimate(values, control, 0.0, 1.0)
        tiny = _estimate(np.ldexp(values, -1000), control, 0.0, 1.0)
        for field in ("value", "std_error", "plain_value", "plain_std_error", "beta"):
            assert getattr(tiny, field) == math.ldexp(getattr(est, field), -1000), field

    # CLI price printed z-scores of 6e11 (bond) and 6e37 (option) on this model
    @pytest.mark.parametrize("strike", [None, 1e-300])
    def test_standard_error_of_prices_near_1e_300(self, baseline_factor, strike):
        spec = ModelSpec(factors=(baseline_factor,), floor=ConstantFloor(230.0), horizon=10.0)
        # the call's price is P(0, 3) to double precision: K P(0, 0.5) underflows
        exact = bond_price(spec, 0.0, 3.0)
        est = (mc_bond_price(spec, 3.0, 1_000, seed=1) if strike is None
               else mc_option_price(spec, OptionSpec(strike, 0.5, 3.0), 1_000, seed=1))
        assert 1e-3 * exact < est.plain_std_error < 1e-2 * exact
        # at least the rounding of the mean: the option's control leaves only that
        assert 2.0**-53 * exact < est.std_error <= est.plain_std_error
        assert abs(est.value - exact) < 5.0 * est.std_error

    def test_known_variance_bounds_the_coefficient(self):
        # a sample whose control spread is a tenth of the known one
        rng = np.random.default_rng(7)
        control = rng.normal(0.0, 0.1, 1_000)
        values = 2.0 * control + rng.normal(0.0, 0.01, control.size)
        assert _estimate(values, control, 0.0).beta == pytest.approx(2.0, rel=0.01)
        shrunk = 2.0 * np.var(control, ddof=1)
        assert _estimate(values, control, 0.0, 1.0).beta == pytest.approx(shrunk, rel=0.05)

    def test_standard_error_not_below_rounding(self):
        # a perfect control leaves residuals that differ only by rounding
        rng = np.random.default_rng(6)
        control = rng.uniform(0.5, 1.5, 1_000)
        est = _estimate(control - 1e-12, control, 1.0)
        assert est.beta == pytest.approx(1.0, rel=1e-12)
        assert est.std_error >= 2.0**-53 * np.mean(control)
        assert abs(est.value - (1.0 - 1e-12)) < 3.0 * est.std_error


def _factor(lam, sigma, x0, alpha, epsilon):
    return FactorParams(lam=lam, sigma=sigma, x0=x0, measure=GammaJumpMeasure(alpha, epsilon))
