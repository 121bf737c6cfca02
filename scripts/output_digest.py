#!/usr/bin/env python3
"""One SHA-256 per output family, to show that a change keeps every bit.

Prints ``name sha256`` lines for the CLI's CSV files (``curve`` on a
piecewise-floor and a dual-curve config, ``calibrate``'s ``floor.csv``,
``simulate --paths 3``), a fixed grid of closed forms, the per-factor
quadrature twins, the spec-level bond and forward twins (a line of their
own, so a change of either family shows which one moved), Fourier option
prices at time 0 and along a path, and the Monte Carlo estimates at 400
paths.  Floats are hashed by ``float.hex``, so equal lines
mean equal bits.  Only the public API is used, so the script runs against any
source tree:

    PYTHONPATH=src python scripts/output_digest.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile

from jumpcurve import (
    ConstantFloor,
    FactorParams,
    GammaJumpMeasure,
    ModelSpec,
    OptionSpec,
    PiecewiseLinearFloor,
    bond_price,
    cumulant_time_integral,
    factor_exponent,
    forward_rate,
    fourier_call_price,
    fourier_call_price_at,
    mc_bond_curve,
    mc_bond_price,
    mc_discounted_bond,
    mc_option_price,
    mc_short_rate_samples,
    short_rate_char_fn,
    short_rate_mgf,
    simulate_path,
    tilted_time_integral,
    yield_curve,
)
from jumpcurve.cli import main as cli_main

PIECEWISE = {
    "version": 1, "horizon": 10.0,
    "floor": {"variant": "piecewise_linear", "times": [0.5, 2.0, 5.0, 9.0],
              "values": [0.01, 0.02, -0.005, 0.03]},
    "factors": [{"lambda": 1.0, "sigma": 1.0, "x0": 0.01, "alpha": 2.0, "epsilon": 10.0},
                {"lambda": 0.4, "sigma": 0.6, "x0": 0.02, "alpha": 1.5, "epsilon": 25.0}],
}
DUAL = {
    "version": 1, "horizon": 10.0,
    "floor": {"variant": "constant", "level": 0.02},
    "factors": [{"lambda": 1.0, "sigma": 1.0, "x0": 0.01, "alpha": 2.0, "epsilon": 10.0}],
    "spread_floor": {"variant": "constant", "level": 0.005},
    "spread_factors": [{"lambda": 2.0, "sigma": 0.5, "x0": 0.005, "alpha": 1.0, "epsilon": 20.0}],
}
MARKET = "maturity,forward_rate\n0.5,0.03\n1.0,0.032\n2.0,0.035\n4.0,0.036\n6.0,0.035\n9.0,0.034\n"
MC_PATHS = 400


def _factors():
    return (
        FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0)),
        FactorParams(lam=0.4, sigma=0.6, x0=0.02, measure=GammaJumpMeasure(1.5, 25.0)),
        FactorParams(lam=0.7, sigma=1.5, x0=0.03, measure=GammaJumpMeasure(0.8, 2.0)),
    )


def _specs():
    one, two, heavy = _factors()
    return (
        ModelSpec(factors=(one,), floor=ConstantFloor(0.02), horizon=10.0),
        ModelSpec(factors=(one, two),
                  floor=PiecewiseLinearFloor((0.0, 1.0, 3.0, 7.0), (0.01, 0.015, 0.012, 0.02)),
                  horizon=10.0),
        ModelSpec(factors=(heavy,), floor=ConstantFloor(0.01), horizon=10.0),
    )


class _Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def put(self, *values):
        for value in values:
            if isinstance(value, (bytes, str)):
                data = value.encode() if isinstance(value, str) else value
            elif isinstance(value, int):
                data = repr(value).encode()
            else:
                value = complex(value)
                data = f"{value.real.hex()},{value.imag.hex()}".encode()
            self._hash.update(data + b";")

    def hexdigest(self):
        return self._hash.hexdigest()


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli_main([str(a) for a in argv])
    if status != 0:
        raise SystemExit(f"CLI {' '.join(map(str, argv))} exited {status}")


def _file_digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def cli_families(workdir):
    configs = {}
    for name, config in (("piecewise", PIECEWISE), ("dual", DUAL)):
        configs[name] = os.path.join(workdir, f"{name}.json")
        with open(configs[name], "w", encoding="utf-8") as handle:
            json.dump(config, handle)
    market = os.path.join(workdir, "market.csv")
    with open(market, "w", encoding="utf-8") as handle:
        handle.write(MARKET)
    out = {name: os.path.join(workdir, name)
           for name in ("curve_piecewise", "curve_dual", "calibrate", "simulate")}
    _cli("--config", configs["piecewise"], "--output", out["curve_piecewise"], "curve")
    _cli("--config", configs["dual"], "--output", out["curve_dual"], "curve")
    _cli("--config", configs["piecewise"], "--output", out["calibrate"],
         "calibrate", "--market", market)
    _cli("--config", configs["piecewise"], "--output", out["simulate"],
         "--seed", 7, "--paths", 3, "simulate")
    return [
        ("cli_curve_piecewise", _file_digest(os.path.join(out["curve_piecewise"], "curve.csv"))),
        ("cli_curve_dual", _file_digest(os.path.join(out["curve_dual"], "curve.csv"))),
        ("cli_calibrate_floor", _file_digest(os.path.join(out["calibrate"], "floor.csv"))),
        ("cli_simulate_paths", _file_digest(os.path.join(out["simulate"], "paths.csv"))),
        ("cli_simulate_jumps", _file_digest(os.path.join(out["simulate"], "jumps.csv"))),
    ]


def closed_forms():
    digest = _Digest()
    for spec in _specs():
        for i in range(24):
            t = 0.2 * i
            for T in (t, t + 1e-9 * (i + 1), t + 0.05 + 0.21 * i):
                digest.put(bond_price(spec, t, T), forward_rate(spec, t, T))
                if T > t:
                    digest.put(yield_curve(spec, t, T))
                for f in spec.factors:
                    digest.put(cumulant_time_integral(f, 0.5 * t, t, T),
                               tilted_time_integral(f, 0.5 * t, t, T))
                    for u in (-3.0, 0.7, 25.0, -0.5j, 2.0 - 0.5j):
                        part = factor_exponent(f, T, u)
                        digest.put(part.psi, part.rho)
            bound = min(f.measure.epsilon / f.sigma for f in spec.factors)
            for u in (-3.0, 0.7, 25.0, 2.0 - 0.5j):
                digest.put(short_rate_char_fn(spec, t, u))
            for v in (-4.0, 0.5, 0.9 * bound):
                digest.put(short_rate_mgf(spec, t, v))
    return digest.hexdigest()


def _twin_points():
    for spec in _specs():
        for i in range(8):
            t = 0.35 * i
            yield spec, t, t + 1e-7 + 0.43 * i


def factor_twins():
    digest = _Digest()
    for spec, t, T in _twin_points():
        for f in spec.factors:
            digest.put(cumulant_time_integral(f, 0.5 * t, t, T, method="quadrature"),
                       tilted_time_integral(f, 0.5 * t, t, T, method="quadrature"))
            bound = f.measure.epsilon / f.sigma
            for u in (-3.0, 0.7, 25.0, 4.0j, -0.9j * bound, 2.0 - 0.5j):
                part = factor_exponent(f, T, u, method="quadrature")
                digest.put(part.psi, part.rho)
    return digest.hexdigest()


def spec_twins():
    digest = _Digest()
    for spec, t, T in _twin_points():
        digest.put(bond_price(spec, t, T, method="quadrature"),
                   forward_rate(spec, t, T, method="quadrature"))
    return digest.hexdigest()


def fourier_prices():
    digest = _Digest()
    one_factor, two_factor, _ = _specs()
    for spec in (one_factor, two_factor):
        for strike in (0.85, 0.94, 0.99):
            digest.put(fourier_call_price(spec, OptionSpec(strike, 0.5, 1.0)))
        digest.put(fourier_call_price(spec, OptionSpec(0.8, 2.0, 4.0, dampening=2.5)))
        path = simulate_path(spec, seed=11, path_index=2)
        for t in (0.1, 0.25, 0.4):
            digest.put(fourier_call_price_at(spec, OptionSpec(0.94, 0.5, 1.0), path, t))
    return digest.hexdigest()


def monte_carlo():
    digest = _Digest()

    def put_estimate(estimate):
        for field in dataclasses.fields(estimate):
            digest.put(field.name, getattr(estimate, field.name))

    for spec in _specs()[:2]:
        put_estimate(mc_bond_price(spec, 2.0, MC_PATHS, seed=3))
        for estimate in mc_bond_curve(spec, [0.5, 1.0, 5.0], MC_PATHS, seed=4):
            put_estimate(estimate)
        put_estimate(mc_discounted_bond(spec, 0.5, 2.0, MC_PATHS, seed=5))
        put_estimate(mc_option_price(spec, OptionSpec(0.94, 0.5, 1.0), MC_PATHS, seed=6))
        digest.put(*mc_short_rate_samples(spec, 1.5, MC_PATHS, seed=7).tolist())
    return digest.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        lines = cli_families(workdir)
    lines += [
        ("closed_forms", closed_forms()),
        ("factor_twins", factor_twins()),
        ("spec_twins", spec_twins()),
        ("fourier_prices", fourier_prices()),
        ("monte_carlo", monte_carlo()),
    ]
    for name, value in lines:
        print(name, value)


if __name__ == "__main__":
    main()
