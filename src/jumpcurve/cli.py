"""Batch command-line front end.

Subcommands wrap the library stages and emit deterministic CSV:

    jumpcurve validate  --config model.json
    jumpcurve curve     --config model.json --output out/
    jumpcurve calibrate --config model.json --market fwd.csv --output out/
    jumpcurve simulate  --config model.json --seed 7 --paths 100 --output out/
    jumpcurve price     --config model.json bond   --maturity 1.0
    jumpcurve price     --config model.json option --strike 0.95 --expiry 0.5 --maturity 1.0

Model configuration file (JSON, schema version 1)::

    {
      "version": 1,
      "horizon": 10.0,
      "floor": {"variant": "constant", "level": 0.02},
      "factors": [
        {"lambda": 1.0, "sigma": 1.0, "x0": 0.01, "alpha": 2.0, "epsilon": 10.0}
      ],
      "spread_floor": {"variant": "constant", "level": 0.005},   # optional:
      "spread_factors": [ ... ],     # presence of any spread_* key or
      "shared_factor_count": 0,      # shared_factor_count enables dual-curve
      "grid": {"start": 0.25, "stop": 5.0, "count": 20},   # count <= 100000
      "tenor": 0.25,                 # OIS/LIBOR accrual period in the curve table
      "seed": 42,
      "paths": 10000,
      "output": "out"
    }

Floor variants: ``constant`` (``level``) and ``piecewise_linear`` /
``calibrated`` (``times`` + ``values``, flat extrapolation outside).

All numeric CSV fields are written with 17 significant digits, '.' decimal
separator, and LF line endings, so reruns with the same seed are
byte-identical.  Exit codes: 0 success, 1 domain or validation failure
(including a model whose closed forms overflow double precision), 2
unreadable or unparseable input, a grid ``count`` above 100000 among it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .curves import ForwardCurve, bond_price, calibrate_floor, forward_rate, yield_curve
from .model import (
    ConstantFloor,
    FactorParams,
    GammaJumpMeasure,
    InvalidModelError,
    ModelSpec,
    PiecewiseLinearFloor,
    conditional_moments,
)
from .multicurve import (
    DualCurveSpec,
    fictitious_bond_price,
    libor_forward,
    ois_forward,
)
from .options import OptionSpec, PricingError, fourier_call_price
from .quadrature import QuadratureError
from .simulation import (
    _JUMPS_CSV_HEADER,
    _PATHS_CSV_HEADER,
    _check_seed,
    _jump_csv_rows,
    _path_csv_rows,
    mc_bond_price,
    mc_option_price,
    simulate_path,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
# curve holds every row in memory until all are computed
MAX_GRID_COUNT = 100_000


class ConfigError(Exception):
    """Unreadable or structurally invalid configuration input."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_floor(node, label: str):
    if not isinstance(node, dict) or "variant" not in node:
        raise ConfigError(f"{label}: expected an object with a 'variant' key")
    variant = node["variant"]
    if variant == "constant":
        if "level" not in node:
            raise ConfigError(f"{label}: constant floor needs 'level'")
        return ConstantFloor(float(node["level"]))
    if variant in ("piecewise_linear", "calibrated"):
        if "times" not in node or "values" not in node:
            raise ConfigError(f"{label}: piecewise floor needs 'times' and 'values'")
        return PiecewiseLinearFloor(
            tuple(map(float, node["times"])), tuple(map(float, node["values"]))
        )
    raise ConfigError(f"{label}: unknown floor variant {variant!r}")


def _parse_factor(node, label: str) -> FactorParams:
    required = ("lambda", "sigma", "x0", "alpha", "epsilon")
    if not isinstance(node, dict) or any(k not in node for k in required):
        raise ConfigError(f"{label}: factor needs keys {required}")
    return FactorParams(
        lam=float(node["lambda"]),
        sigma=float(node["sigma"]),
        x0=float(node["x0"]),
        measure=GammaJumpMeasure(float(node["alpha"]), float(node["epsilon"])),
    )


def load_config(path: str) -> dict:
    """Parse the JSON model file into specs plus run settings.

    Raises :class:`ConfigError` for unreadable or malformed input and lets
    :class:`InvalidModelError` through for a well-formed but invalid model.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if raw.get("version") != 1:
        raise ConfigError("config 'version' must be 1")
    try:
        horizon = float(raw["horizon"])
        floor = _parse_floor(raw["floor"], "floor")
        factors = tuple(
            _parse_factor(node, f"factors[{i}]")
            for i, node in enumerate(raw["factors"])
        )
        spread = None
        dual_keys = ("spread_floor", "spread_factors", "shared_factor_count")
        if any(key in raw for key in dual_keys):
            spread = dict(
                spread_factors=tuple(
                    _parse_factor(f, f"spread_factors[{i}]")
                    for i, f in enumerate(raw.get("spread_factors", []))
                ),
                spread_floor=_parse_floor(
                    raw.get("spread_floor", {"variant": "constant", "level": 0.0}),
                    "spread_floor",
                ),
                shared_factor_count=int(raw.get("shared_factor_count", 0)),
            )
        grid = raw.get("grid", {})
        if not isinstance(grid, dict):
            raise ConfigError("config 'grid' must be an object")
        start = float(grid.get("start", 0.25))
        stop = float(grid.get("stop", horizon))
        count = int(grid.get("count", 20))
        # chained comparison: a NaN start or stop fails it too
        if count < 1 or not 0 < start <= stop:
            raise ConfigError("grid needs 0 < start <= stop and count >= 1")
        if count > MAX_GRID_COUNT:
            raise ConfigError(f"grid count must not exceed {MAX_GRID_COUNT}")
        maturities = np.linspace(start, stop, count)
        tenor = float(raw.get("tenor", 0.25))
        if not math.isfinite(tenor):
            raise ConfigError("config 'tenor' must be finite")
    except KeyError as exc:
        raise ConfigError(f"config missing key {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    spec = ModelSpec(factors=factors, floor=floor, horizon=horizon)
    dual = None
    if spread is not None:
        try:
            dual = DualCurveSpec(base=spec, **spread)
        except InvalidModelError:
            raise
        except ValueError as exc:
            raise ConfigError(f"dual-curve extension: {exc}") from exc
    return {
        "spec": spec,
        "dual": dual,
        "maturities": maturities,
        "tenor": tenor,
        "seed": raw.get("seed"),
        "paths": raw.get("paths"),
        "output": raw.get("output", "."),
    }


def _resolve_output(cfg: dict, args) -> str:
    out = args.output if args.output is not None else cfg["output"]
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_seed(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else cfg["seed"]
    if seed is None:
        raise ValueError("simulation requires a seed (config 'seed' or --seed)")
    return _check_seed(int(seed))


def _resolve_paths(cfg: dict, args, default=None) -> int:
    paths = args.paths if args.paths is not None else cfg["paths"]
    if paths is None:
        paths = default
    if paths is None:
        raise ValueError("path count required (config 'paths' or --paths)")
    return int(paths)


def cmd_validate(cfg: dict, args) -> int:
    # load_config built the specs, so the model (and a dual-curve fictitious model) is valid
    print("OK")
    return EXIT_OK


def cmd_curve(cfg: dict, args) -> int:
    spec, dual, tenor = cfg["spec"], cfg["dual"], cfg["tenor"]
    # every row is computed before the output directory is made, so a failure
    # leaves no partial output
    rows = []
    for T in cfg["maturities"]:
        if dual is None:
            rows.append((T, bond_price(spec, 0.0, T), forward_rate(spec, 0.0, T),
                         yield_curve(spec, 0.0, T)))
            continue
        f_val = forward_rate(spec, 0.0, T)
        f_bar = forward_rate(dual.fictitious, 0.0, T)
        rows.append((
            T,
            bond_price(spec, 0.0, T),
            fictitious_bond_price(dual, 0.0, T),
            f_val,
            f_bar,
            f_bar - f_val,
            ois_forward(dual, 0.0, T, T + tenor),
            libor_forward(dual, 0.0, T, T + tenor),
        ))
    if not np.all(np.isfinite(rows)):
        print("error: curve values overflow double precision", file=sys.stderr)
        return EXIT_DOMAIN
    header = "maturity,P,f,R" if dual is None else "maturity,P,P_bar,f,f_bar,g,F_ois,L_libor"
    destination = os.path.join(_resolve_output(cfg, args), "curve.csv")
    with open(destination, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"wrote {destination}")
    return EXIT_OK


def cmd_calibrate(cfg: dict, args) -> int:
    spec = cfg["spec"]
    try:
        market = ForwardCurve.from_csv(args.market)
    except OSError as exc:
        print(f"error: cannot read market CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: malformed market CSV: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if market.maturities[-1] > spec.horizon:
        print("error: market maturities exceed the model horizon", file=sys.stderr)
        return EXIT_DOMAIN
    # an overflowing fit raises OverflowError here, before any output
    floor = calibrate_floor(spec.factors, market)
    refitted = ModelSpec(factors=spec.factors, floor=floor, horizon=spec.horizon)
    worst = max(
        abs(forward_rate(refitted, 0.0, T) - f_mkt)
        for T, f_mkt in zip(market.maturities, market.rates)
    )
    out_dir = _resolve_output(cfg, args)
    destination = os.path.join(out_dir, "floor.csv")
    with open(destination, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("maturity,mu\n")
        for T, mu in zip(floor.times, floor.values):
            handle.write(f"{_fmt(T)},{_fmt(mu)}\n")
    print(f"wrote {destination}")
    print(f"refit max |f_model - f_market| = {worst:.3e}")
    if worst >= 1e-8:
        print("error: refit error exceeds 1e-8", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_simulate(cfg: dict, args) -> int:
    spec = cfg["spec"] if cfg["dual"] is None else cfg["dual"].fictitious
    seed = _resolve_seed(cfg, args)
    n_paths = _resolve_paths(cfg, args)
    if n_paths < 1:
        raise ValueError(f"simulate needs at least one path, got {n_paths}")
    # each path is written as it is simulated and only r at the horizon is
    # kept, so memory holds one path; path 0 runs before the output directory
    # is made, so a model that cannot be simulated leaves no output
    path = simulate_path(spec, seed, 0)
    out_dir = _resolve_output(cfg, args)
    finals = np.empty(n_paths)
    try:
        with (
            open(os.path.join(out_dir, "paths.csv"), "w", encoding="utf-8", newline="\n") as rows,
            open(os.path.join(out_dir, "jumps.csv"), "w", encoding="utf-8", newline="\n") as jumps,
        ):
            rows.write(_PATHS_CSV_HEADER)
            jumps.write(_JUMPS_CSV_HEADER)
            for p in range(n_paths):
                if p:
                    path = simulate_path(spec, seed, p)
                rows.write(_path_csv_rows(p, path))
                jumps.write(_jump_csv_rows(p, path))
                finals[p] = path.short_rate[-1]
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    horizon = spec.horizon
    mean_hat = float(np.mean(finals))
    var_hat = float(np.var(finals, ddof=1)) if n_paths > 1 else 0.0
    mean_th, var_th = conditional_moments(spec, 0.0, horizon, spec.initial_state())
    se = math.sqrt(var_th / n_paths)
    print(
        f"r({_fmt(horizon)}): empirical mean {_fmt(mean_hat)} vs {_fmt(mean_th)}, "
        f"empirical var {_fmt(var_hat)} vs {_fmt(var_th)}"
    )
    if se > 0 and abs(mean_hat - mean_th) > 5.0 * se:
        print("warning: empirical mean deviates by more than 5 standard errors", file=sys.stderr)
    print(f"wrote {out_dir}/paths.csv and {out_dir}/jumps.csv")
    return EXIT_OK


def cmd_price(cfg: dict, args) -> int:
    spec = cfg["spec"]
    seed = _resolve_seed(cfg, args)
    n_paths = _resolve_paths(cfg, args, default=100_000)
    if args.instrument == "bond":
        analytic = bond_price(spec, 0.0, args.maturity)
        mc = mc_bond_price(spec, args.maturity, n_paths, seed)
    else:
        option = OptionSpec(
            strike=args.strike,
            option_maturity=args.expiry,
            bond_maturity=args.maturity,
            dampening=args.dampening,
        )
        analytic = fourier_call_price(spec, option)
        mc = mc_option_price(spec, option, n_paths, seed)
    z = abs(analytic - mc.value) / mc.std_error if mc.std_error > 0 else 0.0
    print(f"analytic {_fmt(analytic)}")
    print(f"monte-carlo {_fmt(mc.value)} +/- {_fmt(mc.std_error)} ({mc.n_paths} paths)")
    print(f"z-score {z:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpcurve",
        description="Pure-jump lower-bounded short-rate model toolkit",
    )
    parser.add_argument("--config", required=True, help="model JSON file")
    parser.add_argument("--output", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--paths", type=int, default=None, help="Monte Carlo path count")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="check the model constraints")
    sub.add_parser("curve", help="emit bond/forward/yield curve CSV")
    calibrate = sub.add_parser("calibrate", help="fit the floor to a market forward curve")
    calibrate.add_argument("--market", required=True, help="maturity,forward_rate CSV")
    sub.add_parser("simulate", help="emit exact path and jump CSVs")
    price = sub.add_parser("price", help="price a bond or bond option")
    price.add_argument("instrument", choices=("bond", "option"))
    price.add_argument("--maturity", type=float, required=True)
    price.add_argument("--expiry", type=float, default=None, help="option expiry")
    price.add_argument("--strike", type=float, default=None)
    price.add_argument("--dampening", type=float, default=1.5)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvalidModelError as exc:
        if args.command == "validate":
            print("\n".join(exc.violations))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.command == "price" and args.instrument == "option":
        if args.strike is None or args.expiry is None:
            print("error: option pricing needs --strike and --expiry", file=sys.stderr)
            return EXIT_DOMAIN
    handlers = {
        "validate": cmd_validate,
        "curve": cmd_curve,
        "calibrate": cmd_calibrate,
        "simulate": cmd_simulate,
        "price": cmd_price,
    }
    try:
        return handlers[args.command](cfg, args)
    except (ValueError, ArithmeticError, QuadratureError, PricingError) as exc:
        # a domain failure (an overflowing model among them) in any command;
        # every command computes its results before it writes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
