"""The four seeded workloads.

Each builder draws its inputs from ``--seed``, writes the JSON configs and
CSVs the CLI needs into a scratch directory, and returns the workload's
fixed request set as a list of :class:`checks.Request`.  The structure of a set (which calls, on which model
shapes, how many) is fixed; the seed draws the numbers inside it.  That
keeps run-to-run spread small while no two seeds send identical inputs.

The program only ever sees the generated specs, configs and CSVs.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import re
from random import Random

import numpy as np

from checks import (
    CALIBRATION_TOL,
    DAMPENING_TOL,
    PATHWISE_REL_TOL,
    Outcome,
    Request,
    cli_ok,
    cli_outcome,
    close,
    fail,
    finite,
    run_cli,
    within_z,
)

# ---------------------------------------------------------------- model inputs


def draw_factor(rng, lam, sigma, x0, alpha, epsilon, rel=0.02):
    """One factor's JSON parameters, each jittered by up to ``rel``.

    The jitter is small on purpose: every request on a model shares its
    parameters, so they move the cost of a whole pass together, while the
    per-request draws (times, strikes, states) average out over the set.
    """
    return {name: jitter(rng, value, rel) for name, value in (
        ("lambda", lam), ("sigma", sigma), ("x0", x0), ("alpha", alpha), ("epsilon", epsilon))}


def make_factor(jc, p):
    return jc.FactorParams(lam=p["lambda"], sigma=p["sigma"], x0=p["x0"],
                           measure=jc.GammaJumpMeasure(p["alpha"], p["epsilon"]))


def make_floor(jc, node):
    if node["variant"] == "constant":
        return jc.ConstantFloor(node["level"])
    return jc.PiecewiseLinearFloor(tuple(node["times"]), tuple(node["values"]))


class Model:
    """Factor and floor parameters, with the spec and the CLI config built from them."""

    def __init__(self, jc, factors, floor, horizon):
        self.factors, self.floor, self.horizon = factors, floor, horizon
        self.spec = jc.ModelSpec(tuple(make_factor(jc, p) for p in factors),
                                 make_floor(jc, floor), horizon)

    def write_config(self, path, **extra):
        config = {"version": 1, "horizon": self.horizon, "floor": self.floor,
                  "factors": self.factors, **extra}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=1)
        return path


def jitter(rng, value, rel=0.02):
    return value * rng.uniform(1.0 - rel, 1.0 + rel)


def constant(level):
    return {"variant": "constant", "level": level}


def state_after(spec, path, t):
    """Factor values at time t, summed here from the path's jump records."""
    state = []
    for f, rec in zip(spec.factors, path.jumps):
        x = f.x0 * math.exp(-f.lam * t)
        for u, z in zip(rec.times, rec.sizes):
            if u <= t:
                x += f.sigma * math.exp(-f.lam * (t - u)) * z
        state.append(x)
    return state


def read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- analytic_curves


def analytic_curves(jc, seed, workdir):
    """Curve re-marking traffic: many small closed-form calls.

    Why: per-call overhead dominates here and nowhere else -- ``require_valid``
    on every call and ``effective_spec`` rebuilt inside every ``libor_forward``.
    A few ``method="quadrature"`` twins, one dense dual-curve CLI ``curve``
    and one 400-knot CLI ``calibrate`` ride along.  No Monte Carlo or Fourier
    code runs, so this is the "no change" side for work on those.
    """
    rng = Random(f"analytic_curves:{seed}")
    base1 = draw_factor(rng, 1.0, 1.0, 0.01, 2.0, 10.0)
    base2 = draw_factor(rng, 0.5, 0.8, 0.005, 1.0, 20.0)
    m1 = Model(jc, [base1], constant(jitter(rng, 0.02)), 10.0)
    piecewise = {"variant": "piecewise_linear", "times": [0.0, 1.0, 3.0, 6.0, 10.0],
                 "values": [jitter(rng, v) for v in (0.01, 0.012, 0.015, 0.018, 0.014)]}
    m2 = Model(jc, [base1, base2], piecewise, 10.0)
    m3 = Model(jc, [base1, base2, draw_factor(rng, 2.0, 1.5, 0.002, 3.0, 30.0)],
               constant(jitter(rng, -0.005)), 10.0)

    spread_factor = draw_factor(rng, 1.5, 0.5, 0.002, 1.0, 40.0)
    spread_level = jitter(rng, 0.001)
    dual = jc.DualCurveSpec(base=m2.spec, spread_factors=(make_factor(jc, spread_factor),),
                            spread_floor=jc.ConstantFloor(spread_level), shared_factor_count=1)
    # fictitious-rate model built here, independently of jumpcurve.effective_spec
    doubled = dict(base2, sigma=2.0 * base2["sigma"], x0=2.0 * base2["x0"])
    eff = jc.ModelSpec((make_factor(jc, base1), make_factor(jc, doubled),
                        make_factor(jc, spread_factor)),
                       jc.SummedFloor((m2.spec.floor, jc.ConstantFloor(spread_level))), 10.0)

    def quad_bond(spec, t, T, state):
        return jc.bond_price(spec, t, T, state, method="quadrature")

    def curve_request(fn, spec, t, T, state, method):
        def call():
            if method == "closed":
                return getattr(jc, fn)(spec, t, T, state)
            return getattr(jc, fn)(spec, t, T, state, method=method)

        def check(value):
            if fn == "yield_curve":
                twin = math.log(quad_bond(spec, t, T, state)) / (t - T)
            else:
                other = "quadrature" if method == "closed" else "closed"
                twin = getattr(jc, fn)(spec, t, T, state, method=other)
            close(value, twin, f"{fn}(t={t:.4g}, T={T:.4g}, {method})")
            if fn == "bond_price" and not value > 0:
                fail(f"bond price {value} is not positive")

        kind = fn if method == "closed" else f"{fn}.quadrature"
        return Request(kind, call, check, meta={"twin": method == "quadrature"})

    def draw_point(n):
        t = rng.uniform(0.0, 3.0)
        T = rng.uniform(t + 0.05, 10.0)
        return t, T, [rng.uniform(0.0, 0.05) for _ in range(n)]

    requests = []
    for model in (m1, m2, m3):
        n = model.spec.n_factors
        for fn, count in (("bond_price", 250), ("forward_rate", 200), ("yield_curve", 100)):
            for _ in range(count):
                requests.append(curve_request(fn, model.spec, *draw_point(n), "closed"))
        # 16 twins of each kind per spec: of the ten requests per pass beyond
        # the tail, two are the CLI runs and eight are three-factor twins, so
        # the tail falls inside that class, not on the edge of a small one
        for fn in ("bond_price", "forward_rate"):
            for _ in range(16):
                requests.append(curve_request(fn, model.spec, *draw_point(n), "quadrature"))

    def dual_request(fn, t, T1, T2, state):
        base_state = state[:2]
        eff_state = [state[0], 2.0 * state[1], state[2]]

        def call():
            if fn == "forward_spread":
                return jc.forward_spread(dual, t, T1, state)
            return getattr(jc, fn)(dual, t, T1, T2, state)

        def check(value):
            if fn == "forward_spread":
                f_bar = jc.forward_rate(eff, t, T1, eff_state, method="quadrature")
                f = jc.forward_rate(m2.spec, t, T1, base_state, method="quadrature")
                if value < 0:
                    fail(f"forward spread {value} is negative")
                close(value, f_bar - f, f"forward_spread(t={t:.4g}, T={T1:.4g})",
                      scale=abs(f_bar))
            else:
                spec, st = (m2.spec, base_state) if fn == "ois_forward" else (eff, eff_state)
                twin = (quad_bond(spec, t, T1, st) / quad_bond(spec, t, T2, st) - 1.0) / (T2 - T1)
                close(value, twin, f"{fn}(t={t:.4g}, T1={T1:.4g}, T2={T2:.4g})")

        return Request(fn, call, check)

    for fn in ("ois_forward", "libor_forward", "forward_spread"):
        for _ in range(60):
            t = rng.uniform(0.0, 2.0)
            T1 = t + rng.uniform(0.0, 5.0)
            T2 = T1 + rng.choice((0.25, 0.5))
            requests.append(dual_request(fn, t, T1, T2, [rng.uniform(0.0, 0.05) for _ in range(3)]))

    # CLI curve on the dual config, dense grid
    grid_count = 120
    curve_cfg = m2.write_config(
        os.path.join(workdir, "dual.json"),
        spread_factors=[spread_factor], spread_floor=constant(spread_level),
        shared_factor_count=1, tenor=0.25,
        grid={"start": 0.25, "stop": 9.5, "count": grid_count})
    curve_out = os.path.join(workdir, "curve_out")

    def check_curve(result):
        cli_ok(result)
        header, rows = read_csv(os.path.join(curve_out, "curve.csv"))
        if header != "maturity,P,P_bar,f,f_bar,g,F_ois,L_libor" or len(rows) != grid_count:
            fail("curve.csv has the wrong header or row count")
        for row in rows:
            T, p, p_bar, f, f_bar, g, f_ois, l_libor = map(float, row)
            close(p, quad_bond(m2.spec, 0.0, T, None), f"curve P({T})")
            close(p_bar, quad_bond(eff, 0.0, T, None), f"curve P_bar({T})")
            fq = jc.forward_rate(m2.spec, 0.0, T, method="quadrature")
            fbq = jc.forward_rate(eff, 0.0, T, method="quadrature")
            close(f, fq, f"curve f({T})")
            close(f_bar, fbq, f"curve f_bar({T})")
            close(g, fbq - fq, f"curve g({T})", scale=abs(fbq))
            for value, spec, what in ((f_ois, m2.spec, "F_ois"), (l_libor, eff, "L_libor")):
                twin = (quad_bond(spec, 0.0, T, None) / quad_bond(spec, 0.0, T + 0.25, None) - 1.0) / 0.25
                close(value, twin, f"curve {what}({T})")

    requests.append(Request(
        "cli.curve",
        lambda: run_cli(jc, ["--config", curve_cfg, "--output", curve_out, "curve"]),
        check_curve,
        summarize=lambda result: cli_outcome(result, curve_out, ["curve.csv"]),
        meta={"cli": True}))

    # CLI calibrate on a 400-knot market curve
    knots = 400
    omega, phase = rng.uniform(0.5, 2.0), rng.uniform(0.0, math.pi)
    market = [(10.0 * i / knots,
               0.02 + 0.01 * (1.0 - math.exp(-10.0 * i / knots / 3.0))
               + 0.002 * math.sin(omega * 10.0 * i / knots + phase))
              for i in range(1, knots + 1)]
    market_csv = os.path.join(workdir, "market.csv")
    with open(market_csv, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("maturity,forward_rate\n")
        for T, rate in market:
            handle.write(f"{T!r},{rate!r}\n")
    calib_model = Model(jc, [base1, base2], constant(0.01), 10.0)
    calib_cfg = calib_model.write_config(os.path.join(workdir, "calibrate.json"))
    calib_out = os.path.join(workdir, "calibrate_out")

    def check_calibrate(result):
        cli_ok(result)
        found = re.search(r"refit max \|f_model - f_market\| = (\S+)", result.stdout)
        if not found or not float(found.group(1)) < CALIBRATION_TOL:
            fail(f"calibration refit not below {CALIBRATION_TOL}: {result.stdout!r}")
        header, rows = read_csv(os.path.join(calib_out, "floor.csv"))
        if header != "maturity,mu" or len(rows) != knots:
            fail("floor.csv has the wrong header or row count")
        floor = jc.PiecewiseLinearFloor(tuple(float(r[0]) for r in rows),
                                        tuple(float(r[1]) for r in rows))
        refit = jc.ModelSpec(calib_model.spec.factors, floor, 10.0)
        for T, rate in market:
            if not abs(jc.forward_rate(refit, 0.0, T) - rate) < CALIBRATION_TOL:
                fail(f"calibrated floor misses the market forward at T={T}")

    requests.append(Request(
        "cli.calibrate",
        lambda: run_cli(jc, ["--config", calib_cfg, "--output", calib_out,
                             "calibrate", "--market", market_csv]),
        check_calibrate,
        summarize=lambda result: cli_outcome(result, calib_out, ["floor.csv"]),
        meta={"cli": True, "knots": knots}))

    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------- mc_pricing

# Path counts.  The library estimates run at 400 paths: many small
# estimates, so one pass covers every estimator on every model shape and
# maturity and still repeats the four times the tail needs in a run.  The
# CLI ``price bond`` request runs at the CLI's default path count (100 000,
# as in the README's example config and ``scripts/baseline_report.py``) on
# the README's example model; that is the size the repository's own callers
# estimate at, and the one where per-path arrays of a batched kernel would
# show in peak memory.
MC_PATHS = 400
CLI_PRICE_PATHS = 100_000


def estimate_outcome(est):
    return Outcome((est.value, est.std_error, est.n_paths), est.std_error)


def curve_outcome(ests):
    """Every estimate of a curve reaches the target once the worst one does."""
    return Outcome(tuple((e.value, e.std_error) for e in ests), max(e.std_error for e in ests))


def samples_outcome(samples):
    """Samples of r(t); their mean is the estimate."""
    return Outcome(samples.tobytes(), float(samples.std(ddof=1)) / math.sqrt(samples.size))


def parse_price(result):
    """(analytic, estimate, std_error) from the output of ``price bond``."""
    if result.code != 0:
        fail(f"CLI price exited {result.code}: {result.stderr.strip()[:300]}")
    analytic = re.search(r"^analytic (\S+)$", result.stdout, re.M)
    mc = re.search(r"^monte-carlo (\S+) \+/- (\S+) \((\d+) paths\)$", result.stdout, re.M)
    if not analytic or not mc or int(mc.group(3)) != CLI_PRICE_PATHS:
        fail(f"unexpected CLI price output {result.stdout!r}")
    return float(analytic.group(1)), float(mc.group(1)), float(mc.group(2))


def price_outcome(result):
    return Outcome((result.code, result.stdout), parse_price(result)[2])


def mc_pricing(jc, seed, workdir):
    """Monte Carlo estimates at fixed path counts (see ``MC_PATHS``).

    Why: ``simulation`` dominates, and its per-path cost depends on the jump
    count.  The mix spans 1 and 2 factors, maturities 0.25y to 5y and one
    high-activity factor (alpha = 50), from under 1 to about 250 expected
    jumps per path per factor, so a kernel whose cost scales with jumps
    rather than paths shows here.  ``options`` and ``quadrature`` are
    bypassed.  Each estimate is checked against its analytic twin, never
    against another estimate.
    """
    rng = Random(f"mc_pricing:{seed}")
    base1 = draw_factor(rng, 1.0, 1.0, 0.01, 2.0, 10.0)
    m1 = Model(jc, [base1], constant(jitter(rng, 0.02)), 10.0)
    m2 = Model(jc, [base1, draw_factor(rng, 0.5, 0.8, 0.005, 1.0, 20.0)],
               constant(jitter(rng, 0.015)), 10.0)
    mh = Model(jc, [draw_factor(rng, 3.0, 1.0, 0.01, 50.0, 250.0)],
               constant(jitter(rng, 0.01)), 10.0)
    models = (m1, m2, mh)

    def seed_draw():
        return rng.randrange(1, 2**31)

    def jumps_per_path(spec, horizon):
        return sum(f.measure.alpha * horizon for f in spec.factors) / spec.n_factors

    def mc_request(kind, spec, horizon, call, check, summarize=estimate_outcome, n_paths=MC_PATHS):
        return Request(kind, call, check, summarize, meta={
            "n_paths": n_paths, "n_factors": spec.n_factors,
            "jumps_per_path": jumps_per_path(spec, horizon)})

    requests = []
    for model in models:
        spec = model.spec
        for T0 in (0.25, 1.0, 2.5, 5.0):
            T, s = T0 * rng.uniform(0.98, 1.0), seed_draw()

            def check(est, spec=spec, T=T):
                within_z(est.value, est.std_error, jc.bond_price(spec, 0.0, T), f"mc_bond_price(T={T:.4g})")

            requests.append(mc_request(
                "mc_bond_price", spec, T,
                lambda spec=spec, T=T, s=s: jc.mc_bond_price(spec, T, MC_PATHS, s), check))

        # three curves on the two-factor model, the slowest library requests:
        # of the 2.5 requests per pass beyond the tail one is the CLI run, so
        # the tail falls inside their class, not on a single request
        for _ in range(3 if model is m2 else 1):
            maturities = sorted(T0 * rng.uniform(0.98, 1.0) for T0 in (0.5, 1.0, 2.0, 3.0, 5.0))
            s = seed_draw()

            def check_curve(ests, spec=spec, maturities=maturities):
                for T, est in zip(maturities, ests):
                    within_z(est.value, est.std_error, jc.bond_price(spec, 0.0, T),
                             f"mc_bond_curve(T={T:.4g})")

            requests.append(mc_request(
                "mc_bond_curve", spec, maturities[-1],
                lambda spec=spec, m=maturities, s=s: jc.mc_bond_curve(spec, m, MC_PATHS, s),
                check_curve, summarize=curve_outcome))

        for t0, T0 in ((0.5, 1.5), (1.0, 3.0)):
            t, T, s = jitter(rng, t0), jitter(rng, T0), seed_draw()

            def check_disc(est, spec=spec, t=t, T=T):
                within_z(est.value, est.std_error, jc.bond_price(spec, 0.0, T),
                         f"mc_discounted_bond(t={t:.4g}, T={T:.4g})")

            requests.append(mc_request(
                "mc_discounted_bond", spec, t,
                lambda spec=spec, t=t, T=T, s=s: jc.mc_discounted_bond(spec, t, T, MC_PATHS, s),
                check_disc))

        for t in (jitter(rng, 0.5), jitter(rng, 3.0)):
            s = seed_draw()

            def check_samples(samples, spec=spec, t=t):
                analytic, _ = jc.conditional_moments(spec, 0.0, t, spec.initial_state())
                within_z(float(samples.mean()), samples_outcome(samples).std_error, analytic,
                         f"mc_short_rate_samples(t={t:.4g}) mean")

            requests.append(mc_request(
                "mc_short_rate_samples", spec, t,
                lambda spec=spec, t=t, s=s: jc.mc_short_rate_samples(spec, t, MC_PATHS, s),
                check_samples, summarize=samples_outcome))

    for model, tau0, T0 in ((m1, 0.5, 1.0), (m1, 1.0, 3.0), (m2, 0.5, 1.5), (mh, 0.5, 1.0)):
        spec = model.spec
        tau, T = jitter(rng, tau0), jitter(rng, T0)
        forward = jc.bond_price(spec, 0.0, T) / jc.bond_price(spec, 0.0, tau)
        # just in the money: the high-activity factor's bond barely moves, so a
        # strike above the forward could leave every path out of the money
        option = jc.OptionSpec(forward * rng.uniform(0.995, 0.999), tau, T)
        s = seed_draw()

        def check_option(est, spec=spec, option=option):
            twin = jc.fourier_call_price(spec, option)
            within_z(est.value, est.std_error, twin, f"mc_option_price(K={option.strike:.5g})")

        requests.append(mc_request(
            "mc_option_price", spec, T,
            lambda spec=spec, option=option, s=s: jc.mc_option_price(spec, option, MC_PATHS, s),
            check_option))

    # the CLI at its default path count: no --paths
    cfg = m1.write_config(os.path.join(workdir, "price.json"))
    T, s = jitter(rng, 2.0), seed_draw()
    argv = ["--config", cfg, "--seed", str(s), "price", "bond", "--maturity", repr(T)]

    def check_price(result, spec=m1.spec, T=T):
        analytic, estimate, std_error = parse_price(result)
        close(analytic, jc.bond_price(spec, 0.0, T), "CLI analytic bond")
        within_z(estimate, std_error, analytic, "CLI price bond")

    request = mc_request("cli.price_bond", m1.spec, T, lambda: run_cli(jc, argv),
                         check_price, summarize=price_outcome, n_paths=CLI_PRICE_PATHS)
    request.meta["cli"] = True
    requests.append(request)

    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------- fourier_options


def fourier_options(jc, seed, workdir):
    """Fourier pricing of calls on zero-coupon bonds.

    Why: ``options``, ``quadrature`` and the scipy tail integrals do the
    work here.  Strike strips (strikes x expiry/maturity pairs x two
    dampenings) share everything but K, the property a Carr-Madan strip
    exploits; the single-strike requests are the side where a strip cannot
    help.  A few time-t prices along simulated paths, Levy densities and
    characteristic-function values complete the transform traffic.
    """
    rng = Random(f"fourier_options:{seed}")
    base1 = draw_factor(rng, 1.0, 1.0, 0.01, 2.0, 10.0)
    f1 = Model(jc, [base1], constant(jitter(rng, 0.02)), 10.0)
    f2 = Model(jc, [base1, draw_factor(rng, 0.5, 0.8, 0.005, 1.0, 20.0)],
               constant(jitter(rng, 0.015)), 10.0)
    dampenings = (1.5, 2.0)
    twins = {}

    def price(spec, K, tau, T, a):
        key = (id(spec), K, tau, T, a)
        if key not in twins:
            twins[key] = jc.fourier_call_price(spec, jc.OptionSpec(K, tau, T, a))
        return twins[key]

    def check_bounds(value, p_T, p_tau, K, what):
        value = finite(value, what)
        if not max(p_T - K * p_tau, 0.0) - 1e-9 <= value <= p_T + 1e-9:
            fail(f"{what}: {value} outside the no-arbitrage bounds")

    def fourier_request(kind, spec, K, tau, T, a):
        def check(value):
            what = f"{kind}(K={K:.5g}, tau={tau:.4g}, T={T:.4g}, a={a})"
            twins[(id(spec), K, tau, T, a)] = value
            check_bounds(value, jc.bond_price(spec, 0.0, T), jc.bond_price(spec, 0.0, tau), K, what)
            other = dampenings[1] if a == dampenings[0] else dampenings[0]
            if not abs(value - price(spec, K, tau, T, other)) < DAMPENING_TOL:
                fail(f"{what}: dampening invariance broken")

        return Request(kind, lambda: jc.fourier_call_price(spec, jc.OptionSpec(K, tau, T, a)), check)

    def draw_pair(tau0, T0):
        return jitter(rng, tau0, 0.03), jitter(rng, T0, 0.03)

    requests = []
    for model, pairs, moneyness in ((f1, ((0.5, 1.0), (1.0, 2.0)), (0.98, 1.0, 1.02)),
                                    (f2, ((0.5, 1.5),), (0.99, 1.01))):
        spec = model.spec
        for tau0, T0 in pairs:
            tau, T = draw_pair(tau0, T0)
            forward = jc.bond_price(spec, 0.0, T) / jc.bond_price(spec, 0.0, tau)
            for m in moneyness:
                K = forward * m * rng.uniform(0.998, 1.002)
                for a in dampenings:
                    requests.append(fourier_request("fourier_call_price.strip", spec, K, tau, T, a))
        tau, T = draw_pair(0.75, 1.75)
        forward = jc.bond_price(spec, 0.0, T) / jc.bond_price(spec, 0.0, tau)
        requests.append(fourier_request("fourier_call_price.single", spec,
                                        forward * rng.uniform(0.97, 1.03), tau, T, dampenings[0]))

    # time-t prices along simulated paths of the one-factor model
    spec = f1.spec
    for _ in range(2):
        path = jc.simulate_path(spec, rng.randrange(1, 2**31), 0)
        tau, T = draw_pair(0.5, 1.0)
        t = rng.uniform(0.1, 0.4)
        state = state_after(spec, path, t)
        forward = jc.bond_price(spec, t, T, state) / jc.bond_price(spec, t, tau, state)
        K = forward * rng.uniform(0.99, 1.01)

        def check_at(value, path=path, t=t, tau=tau, T=T, K=K, state=state):
            what = f"fourier_call_price_at(t={t:.4g}, K={K:.5g})"
            check_bounds(value, jc.bond_price(spec, t, T, state),
                         jc.bond_price(spec, t, tau, state), K, what)
            twin = jc.fourier_call_price_at(spec, jc.OptionSpec(K, tau, T, dampenings[1]), path, t)
            if not abs(value - twin) < DAMPENING_TOL:
                fail(f"{what}: dampening invariance broken")

        requests.append(Request(
            "fourier_call_price_at",
            lambda path=path, t=t, tau=tau, T=T, K=K: jc.fourier_call_price_at(
                spec, jc.OptionSpec(K, tau, T, dampenings[0]), path, t),
            check_at))

    # Levy densities of the one-factor driver against the Bessel closed form
    measure = spec.factors[0].measure
    for t in (0.5, 1.0, 2.0):
        for _ in range(2):
            x = rng.uniform(0.05, 0.5)

            def check_density(value, t=t, x=x):
                from scipy.special import i1e

                arg = 2.0 * math.sqrt(measure.alpha * t * measure.epsilon * x)
                exact = (math.exp(-measure.alpha * t - measure.epsilon * x + arg)
                         * math.sqrt(measure.alpha * t * measure.epsilon / x) * i1e(arg))
                close(value, exact, f"levy_density(t={t}, x={x:.4g})", rel=1e-6)

            requests.append(Request(
                "levy_density", lambda t=t, x=x: jc.levy_density(measure, t, x), check_density))

    # characteristic function of r(t) on the two-factor model
    for _ in range(6):
        t, u = rng.uniform(0.25, 5.0), rng.uniform(-20.0, 20.0)

        def check_cf(value, t=t, u=u):
            exponent = 1j * u * float(f2.spec.floor.value(t))
            for f in f2.spec.factors:
                part = jc.factor_exponent(f, t, u, method="closed")
                exponent += part.psi * f.x0 + part.rho
            twin = cmath.exp(exponent)
            if not abs(value - twin) <= 1e-10 or not abs(value) <= 1.0 + 1e-12:
                fail(f"short_rate_char_fn(t={t:.4g}, u={u:.4g}) = {value} vs closed {twin}")

        requests.append(Request(
            "short_rate_char_fn", lambda t=t, u=u: jc.short_rate_char_fn(f2.spec, t, u), check_cf))

    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------- path_export


def path_export(jc, seed, workdir):
    """Per-path records and bulk CSV export.

    Why: ``simulation`` works here on per-path records and grid evolution
    (``simulate_path`` at the default 252 points per year) and ``cli`` on
    bulk CSV writes, instead of on Monte Carlo reductions.  A change to jump
    drawing or RNG layout that speeds up ``mc_pricing`` but slows per-path
    records or export shows here.  Pathwise identity requests check
    ``bond_path`` and ``hjm_forward_path`` against the affine formulas at
    the path's own state.
    """
    rng = Random(f"path_export:{seed}")
    base1 = draw_factor(rng, 1.0, 1.0, 0.01, 2.0, 10.0)
    p1 = Model(jc, [base1], constant(jitter(rng, 0.02)), 10.0)
    p2 = Model(jc, [base1, draw_factor(rng, 0.5, 0.8, 0.005, 1.0, 20.0)],
               constant(jitter(rng, 0.015)), 5.0)
    requests = []

    for index, (model, n_paths) in enumerate(((p1, 6), (p2, 4))):
        spec = model.spec
        cfg = model.write_config(os.path.join(workdir, f"simulate{index}.json"))
        out = os.path.join(workdir, f"simulate{index}_out")
        argv = ["--config", cfg, "--output", out, "--seed", str(rng.randrange(1, 2**31)),
                "--paths", str(n_paths), "simulate"]
        files = ["paths.csv", "jumps.csv"]

        def check_simulate(result, spec=spec, out=out, n_paths=n_paths, files=files):
            cli_ok(result)
            header, jump_rows = read_csv(os.path.join(out, "jumps.csv"))
            if header != "path_id,factor_index,jump_time,jump_size":
                fail("jumps.csv has the wrong header")
            epochs = [set() for _ in range(n_paths)]
            for path_id, _, time, size in jump_rows:
                if not float(size) > 0:
                    fail("non-positive jump size in jumps.csv")
                epochs[int(path_id)].add(float(time))
            header, rows = read_csv(os.path.join(out, "paths.csv"))
            if header != "path_id,time,factor_index,X,short_rate,integrated_rate":
                fail("paths.csv has the wrong header")
            mesh = set(np.linspace(0.0, spec.horizon, int(round(252 * spec.horizon)) + 1).tolist())
            n = spec.n_factors
            expected = sum(n * len(epochs[p] | mesh) for p in range(n_paths))
            if len(rows) != expected:
                fail(f"paths.csv has {len(rows)} rows, expected {expected}")
            level = float(spec.floor.value(0.0))
            for start in range(0, len(rows), n):
                group = rows[start:start + n]
                xs = [finite(r[3], "X") for r in group]
                r = finite(group[0][4], "short rate")
                if min(xs) < 0 or abs(r - level - sum(xs)) > 1e-12 or r < level - 1e-15:
                    fail(f"paths.csv row {start}: short rate {r} breaks r = mu + sum X >= mu")

        requests.append(Request(
            "cli.simulate", lambda argv=argv: run_cli(jc, argv), check_simulate,
            summarize=lambda result, out=out, files=files: cli_outcome(result, out, files),
            meta={"cli": True, "export": True}))

    # library-level path simulation, all on the 10-year model so these
    # requests form one latency class
    spec = p1.spec
    level = float(spec.floor.value(0.0))

    def check_path(path):
        if path.grid[0] != 0.0 or path.grid[-1] != spec.horizon:
            fail("simulated grid does not span [0, horizon]")
        if (path.factors < 0).any() or (path.short_rate < level - 1e-15).any():
            fail("simulated path breaks r >= mu")
        if abs(path.short_rate - level - path.factors.sum(axis=0)).max() > 1e-12:
            fail("simulated short rate differs from mu + sum X")

    def path_outcome(path):
        return Outcome((path.grid.tobytes(), path.short_rate.tobytes(), path.integrated.tobytes()))

    for _ in range(16):
        s, p = rng.randrange(1, 2**31), rng.randrange(0, 1000)
        requests.append(Request(
            "simulate_path", lambda s=s, p=p: jc.simulate_path(spec, s, p), check_path, path_outcome))

    # many identity requests over many paths: their cost follows each path's
    # jump count, and the pass median lands among them
    paths = [(model, jc.simulate_path(model.spec, rng.randrange(1, 2**31), i))
             for model in (p1, p2) for i in range(8)]
    for fn, twin_fn in (("bond_path", "bond_price"), ("hjm_forward_path", "forward_rate")):
        for _ in range(80):
            model, path = rng.choice(paths)
            t = rng.uniform(0.0, 0.8 * model.horizon)
            T = rng.uniform(t, model.horizon)

            def check_identity(value, spec=model.spec, path=path, t=t, T=T, fn=fn, twin_fn=twin_fn):
                twin = getattr(jc, twin_fn)(spec, t, T, state_after(spec, path, t))
                close(value, twin, f"{fn}(t={t:.4g}, T={T:.4g}) pathwise identity",
                      rel=PATHWISE_REL_TOL, scale=1e-2)

            requests.append(Request(
                fn, lambda fn=fn, spec=model.spec, path=path, t=t, T=T: getattr(jc, fn)(spec, path, t, T),
                check_identity))

    rng.shuffle(requests)
    return requests


BUILDERS = {
    "analytic_curves": analytic_curves,
    "mc_pricing": mc_pricing,
    "fourier_options": fourier_options,
    "path_export": path_export,
}
