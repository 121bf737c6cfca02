"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS/FAIL line so the suite doubles as a release
report: run ``pytest tests/test_acceptance.py -s``.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from jumpcurve import (
    ConstantFloor,
    DualCurveSpec,
    FactorParams,
    ForwardCurve,
    GammaJumpMeasure,
    ModelSpec,
    OptionSpec,
    bond_B,
    bond_B_dT,
    bond_path,
    bond_price,
    calibrate_floor,
    conditional_moments,
    evolve_factor,
    factor_exponent,
    fictitious_bond_price,
    forward_rate,
    fourier_call_price,
    hjm_forward_path,
    levy_density,
    levy_zero_atom,
    mc_bond_price,
    mc_discounted_bond,
    mc_option_price,
    mc_short_rate_samples,
    short_rate_mgf,
    simulate_path,
)
from jumpcurve.cli import main
from jumpcurve.quadrature import gauss_kronrod

from test_multicurve import random_dual

BASELINE = ModelSpec(
    factors=(FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0)),),
    floor=ConstantFloor(0.02),
    horizon=10.0,
)
TWO_FACTOR = ModelSpec(
    factors=(
        FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0)),
        FactorParams(lam=0.4, sigma=0.6, x0=0.02, measure=GammaJumpMeasure(1.5, 25.0)),
    ),
    floor=ConstantFloor(0.015),
    horizon=10.0,
)


def report(number: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")


def state_at(spec, path, t):
    return np.array(
        [evolve_factor(f, rec, [t])[0] for f, rec in zip(spec.factors, path.jumps)]
    )


def test_criterion_01_analytic_vs_mc_bond():
    start = time.perf_counter()
    ok = True
    for spec, seed in ((BASELINE, 1001), (TWO_FACTOR, 1002)):
        for T in (0.25, 1.0, 5.0):
            est = mc_bond_price(spec, T, 100_000, seed=seed)
            analytic = bond_price(spec, 0.0, T)
            ok = ok and abs(est.value - analytic) < 3.0 * est.std_error
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(1, f"analytic vs MC bond ({elapsed:.1f}s)", ok)
    assert ok


def test_criterion_02_affine_vs_pathwise_bond_identity():
    start = time.perf_counter()
    pairs = ((0.1, 0.5), (0.25, 1.0), (0.5, 2.0), (1.0, 3.0), (2.0, 5.0))
    worst = 0.0
    for p in range(1000):
        path = simulate_path(BASELINE, seed=2001, path_index=p, points_per_year=2)
        for (t, T) in pairs:
            affine = bond_price(BASELINE, t, T, state_at(BASELINE, path, t))
            pathwise = bond_path(BASELINE, path, t, T)
            worst = max(worst, abs(pathwise / affine - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(2, f"affine == pathwise bond (max rel {worst:.2e}, {elapsed:.1f}s)", ok)
    assert ok


def test_criterion_03_martingale_suite():
    T = 1.0
    analytic = bond_price(BASELINE, 0.0, T)
    ok = True
    for frac in (0.25, 0.5, 0.75):
        est = mc_discounted_bond(BASELINE, frac * T, T, 100_000, seed=3001)
        ok = ok and abs(est.value - analytic) < 3.0 * est.std_error
    report(3, "discounted bond martingale", ok)
    assert ok


def test_criterion_04_calibration_round_trip():
    start = time.perf_counter()
    grid = np.linspace(0.1, 9.0, 50)
    market = ForwardCurve(
        grid, np.array([forward_rate(TWO_FACTOR, 0.0, T) for T in grid])
    )
    floor = calibrate_floor(TWO_FACTOR.factors, market)
    refit = ModelSpec(factors=TWO_FACTOR.factors, floor=floor, horizon=TWO_FACTOR.horizon)
    worst = max(abs(forward_rate(refit, 0.0, T) - f) for T, f in zip(grid, market.rates))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    report(4, f"calibration round trip (max err {worst:.2e}, {elapsed:.1f}s)", ok)
    assert ok


def test_criterion_05_fourier_vs_mc_option():
    start = time.perf_counter()
    tau, T = 0.5, 1.0
    ok = True
    # strikes spanning in/at/out-of-the-money around the forward bond price
    for i, strike in enumerate((0.90, 0.94, 0.96)):
        option = OptionSpec(strike=strike, option_maturity=tau, bond_maturity=T)
        price = fourier_call_price(BASELINE, option)
        est = mc_option_price(BASELINE, option, 1_000_000, seed=5001 + i)
        z = abs(price - est.value) / est.std_error
        ok = ok and z < 3.0
    spreads = [
        fourier_call_price(
            BASELINE, OptionSpec(strike=0.94, option_maturity=tau, bond_maturity=T, dampening=a)
        )
        for a in (1.25, 1.5, 2.0, 3.0)
    ]
    ok = ok and max(spreads) - min(spreads) < 1e-7
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 180.0
    report(5, f"Fourier vs MC option + dampening invariance ({elapsed:.0f}s)", ok)
    assert ok


def test_criterion_06_mgf_closed_form():
    t = 1.0
    samples = mc_short_rate_samples(BASELINE, t, 100_000, seed=6001)
    ok = True
    for v in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        closed = short_rate_mgf(BASELINE, t, v)
        quad_exponent = v * 0.02
        for f in BASELINE.factors:
            part = factor_exponent(f, t, -1.0j * v, method="quadrature")
            quad_exponent += (part.psi * f.x0 + part.rho).real
        ok = ok and abs(math.exp(quad_exponent) / closed - 1.0) < 1e-10
        draws = np.exp(v * samples)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        ok = ok and abs(draws.mean() - closed) < 3.0 * se
    report(6, "MGF closed form vs quadrature vs MC", ok)
    assert ok


def _variance_band(samples: np.ndarray) -> float:
    centered = samples - samples.mean()
    m4 = np.mean(centered**4)
    s2 = samples.var(ddof=1)
    return math.sqrt(max(m4 - s2**2, 0.0) / samples.size)


def test_criterion_07_moment_suite():
    ok = True
    for t in (0.5, 1.0, 5.0):
        samples = mc_short_rate_samples(BASELINE, t, 100_000, seed=7001)
        mean, var = conditional_moments(BASELINE, 0.0, t, BASELINE.initial_state())
        se_mean = samples.std(ddof=1) / math.sqrt(samples.size)
        ok = ok and abs(samples.mean() - mean) < 3.0 * se_mean
        ok = ok and abs(samples.var(ddof=1) - var) < 3.0 * _variance_band(samples)
    long_run = ModelSpec(factors=BASELINE.factors, floor=BASELINE.floor, horizon=60.0)
    samples = mc_short_rate_samples(long_run, 50.0, 100_000, seed=7002)
    f = BASELINE.factors[0]
    mean_limit = 0.02 + f.sigma * f.measure.alpha / (f.lam * f.measure.epsilon)
    var_limit = f.sigma**2 * f.measure.alpha / (f.lam * f.measure.epsilon**2)
    se_mean = samples.std(ddof=1) / math.sqrt(samples.size)
    ok = ok and abs(samples.mean() - mean_limit) < 3.0 * se_mean
    ok = ok and abs(samples.var(ddof=1) - var_limit) < 3.0 * _variance_band(samples)
    report(7, "moment suite incl. long-run limits", ok)
    assert ok


def test_criterion_08_derivative_and_ode_suite():
    ok = True
    h = 1e-6
    for spec in (BASELINE, TWO_FACTOR):
        for f in spec.factors:
            # dA/dT of this factor: -d/dT log P of a one-factor spec at state 0 is f(t,T)
            alone = ModelSpec(factors=(f,), floor=spec.floor, horizon=spec.horizon)
            for (t, T) in ((0.0, 0.5), (0.25, 1.0), (1.0, 4.0), (3.0, 8.0)):
                b = bond_B(f, t, T)
                # dB/dt = 1 + lam B
                ok = ok and abs(math.exp(-f.lam * (T - t)) - (1.0 + f.lam * b)) < 1e-12
                ok = ok and bond_B(f, T, T) == 0.0
                fd_b = (bond_B(f, t, T + h) - bond_B(f, t, T - h)) / (2 * h)
                ok = ok and abs(bond_B_dT(f, t, T) - fd_b) < 1e-8
                fd_a = -(
                    math.log(bond_price(alone, t, T + h, [0.0]))
                    - math.log(bond_price(alone, t, T - h, [0.0]))
                ) / (2 * h)
                ok = ok and abs(forward_rate(alone, t, T, [0.0]) - fd_a) < 1e-6
        h_f = 1e-5
        state = spec.initial_state() + 0.02
        for (t, T) in ((0.0, 1.0), (0.5, 2.5)):
            fd = -(
                math.log(bond_price(spec, t, T + h_f, state))
                - math.log(bond_price(spec, t, T - h_f, state))
            ) / (2 * h_f)
            ok = ok and abs(forward_rate(spec, t, T, state) - fd) < 1e-6
    report(8, "derivative and ODE suite", ok)
    assert ok


def test_criterion_09_hjm_identity():
    worst = 0.0
    for p in range(1000):
        path = simulate_path(TWO_FACTOR, seed=9001, path_index=p, points_per_year=2)
        for (t, T) in ((0.25, 1.0), (1.0, 4.0)):
            hjm = hjm_forward_path(TWO_FACTOR, path, t, T)
            affine = forward_rate(TWO_FACTOR, t, T, state_at(TWO_FACTOR, path, t))
            worst = max(worst, abs(hjm - affine))
    ok = worst < 1e-9
    report(9, f"HJM pathwise identity (max abs {worst:.2e})", ok)
    assert ok


def test_criterion_10_multicurve():
    from jumpcurve import bond_ordering_check, libor_forward, libor_path_closed_form

    rng = np.random.default_rng(10_001)
    ok = True
    for _ in range(100):
        dual = random_dual(rng)
        state = rng.uniform(0.0, 0.1, size=dual.n_distinct)
        t = float(rng.uniform(0.0, 2.0))
        T = t + float(rng.uniform(0.1, 8.0))
        check = bond_ordering_check(dual, t, T, state=state, slack=1e-12)
        ok = ok and check.ordered
    dual = DualCurveSpec(
        base=BASELINE,
        spread_factors=(
            FactorParams(lam=2.0, sigma=0.5, x0=0.005, measure=GammaJumpMeasure(1.0, 20.0)),
        ),
        spread_floor=ConstantFloor(0.005),
    )
    eff = dual.fictitious
    worst = 0.0
    for p in range(20):
        path = simulate_path(eff, seed=10_002, path_index=p, points_per_year=4)
        for t in (0.2, 0.6, 0.95):
            eff_state = np.array(
                [evolve_factor(f, rec, [t])[0] for f, rec in zip(eff.factors, path.jumps)]
            )
            ratio = (
                bond_price(eff, t, 1.0, eff_state) / bond_price(eff, t, 1.5, eff_state) - 1.0
            ) / 0.5
            closed = libor_path_closed_form(dual, path, t, 1.0, 1.5)
            worst = max(worst, abs(closed / ratio - 1.0))
    ok = ok and worst < 1e-10
    collapse = DualCurveSpec(base=BASELINE)
    for T in (0.25, 1.0, 5.0):
        ok = ok and fictitious_bond_price(collapse, 0.0, T) == bond_price(BASELINE, 0.0, T)
    report(10, f"multicurve ordering/LIBOR/collapse (max rel {worst:.2e})", ok)
    assert ok


def test_criterion_11_density_inversion():
    measure = GammaJumpMeasure(2.0, 10.0)
    t = 1.0
    atom = levy_zero_atom(measure, t)
    mass, _ = gauss_kronrod(
        np.vectorize(lambda x: levy_density(measure, t, x)),
        1e-9,
        3.0,
        abs_tol=1e-6,
        rel_tol=1e-6,
    )
    ok = abs(mass + atom - 1.0) < 1e-4

    rng = np.random.default_rng(11_001)
    n_raw = 1_400_000
    counts = rng.poisson(measure.alpha * t, size=n_raw)
    counts = counts[counts > 0][:1_000_000]
    samples = rng.gamma(shape=counts, scale=1.0 / measure.epsilon)
    n = samples.size
    edges = np.linspace(np.quantile(samples, 0.001), np.quantile(samples, 0.995), 26)
    observed, _ = np.histogram(samples, bins=edges)
    scale = 1.0 - atom
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        mid = 0.5 * (a + b)
        simpson = (
            (b - a)
            / 6.0
            * (
                levy_density(measure, t, a)
                + 4.0 * levy_density(measure, t, mid)
                + levy_density(measure, t, b)
            )
        )
        p = simpson / scale
        se = math.sqrt(p * (1.0 - p) / n)
        ok = ok and abs(observed[i] / n - p) < 3.0 * se
    report(11, "density inversion mass + histogram", ok)
    assert ok


def run_cli(args):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args)
    return code, buffer.getvalue()


def test_criterion_12_determinism(tmp_path):
    config = {
        "version": 1,
        "horizon": 10.0,
        "floor": {"variant": "constant", "level": 0.02},
        "factors": [
            {"lambda": 1.0, "sigma": 1.0, "x0": 0.01, "alpha": 2.0, "epsilon": 10.0}
        ],
        "grid": {"start": 0.25, "stop": 5.0, "count": 10},
        "seed": 42,
        "paths": 200,
    }
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    ok = True
    artifacts = {}
    for run in ("a", "b"):
        out = tmp_path / run
        base = ["--config", str(cfg), "--output", str(out)]
        code, _ = run_cli(base + ["curve"])
        ok = ok and code == 0
        code, _ = run_cli(base + ["simulate"])
        ok = ok and code == 0
        _, bond_out = run_cli(base + ["--paths", "2000", "price", "bond", "--maturity", "1.0"])
        _, option_out = run_cli(
            base + ["--paths", "2000", "price", "option", "--maturity", "1.0",
                    "--expiry", "0.5", "--strike", "0.94"]
        )
        artifacts[run] = (
            (out / "curve.csv").read_bytes(),
            (out / "paths.csv").read_bytes(),
            (out / "jumps.csv").read_bytes(),
            bond_out,
            option_out,
        )
    ok = ok and artifacts["a"] == artifacts["b"]
    report(12, "seeded commands byte-identical", ok)
    assert ok
