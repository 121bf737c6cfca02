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
      "tenor": 0.25,                 # OIS/LIBOR accrual period in the curve table;
                                     # a dual-curve grid stops at horizon - tenor by default
      "seed": 42,                    # JSON integers, as are count and
      "paths": 10000,                # shared_factor_count; output is a string,
      "output": "out"                # and --seed/--paths/--output override these
    }

Floor variants: ``constant`` (``level``) and ``piecewise_linear`` /
``calibrated`` (``times`` + ``values``, flat extrapolation outside).

All numeric CSV fields are written with 17 significant digits, '.' decimal
separator, and LF line endings, so reruns with the same seed are
byte-identical.  The files are formatted in bulk, by C-level ``%`` calls over
row templates: one per table for ``curve`` and ``calibrate``; for
``simulate``, a few per path and one per factor's jumps, while the times of
the mesh every path shares are formatted once per run.

Exit codes: 0 success, 1 domain or validation failure (a closed form that
overflows double precision, or a failed write, among them), 2 unreadable or
unparseable input (a field of the wrong type, or a grid ``count`` above
100000).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain

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
    SimulatedPath,
    _check_seed,
    _mesh,
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


def _rows(row: str, *columns) -> str:
    """``row`` once per index of the equal-length ``columns``, filled by one ``%`` call.

    ``row`` holds one field per column.  ``%.17g`` and ``format(x, ".17g")``
    both call ``PyOS_double_to_string(x, 'g', 17, 0)``, so a value reads as
    :func:`_fmt` writes it; the Python-level cost is per table, not per value.
    """
    return row * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))


def _texts(values: np.ndarray) -> list:
    """Each value of a float array as ``.17g`` text, from one ``%`` call."""
    return _rows("%.17g ", values.tolist()).split()


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


def _typed(node: dict, key: str, kind: type, default=None):
    """``node[key]``, or ``default`` when absent; another type (a bool is no int) is malformed."""
    value = node.get(key, default)
    if key in node and type(value) is not kind:
        raise ConfigError(f"config {key!r} must be of type {kind.__name__}, got {value!r}")
    return value


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
    if _typed(raw, "version", int) != 1:
        raise ConfigError("config 'version' must be 1")
    settings = dict(seed=_typed(raw, "seed", int), paths=_typed(raw, "paths", int),
                    output=_typed(raw, "output", str, "."))
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
                shared_factor_count=_typed(raw, "shared_factor_count", int, 0),
            )
        tenor = float(raw.get("tenor", 0.25))
        if not 0 < tenor < math.inf:
            raise ConfigError("config 'tenor' must be positive and finite")
        grid = raw.get("grid", {})
        if not isinstance(grid, dict):
            raise ConfigError("config 'grid' must be an object")
        start = float(grid.get("start", 0.25))
        stop = float(grid.get("stop", horizon))
        if spread is not None and "stop" not in grid:
            # dual-curve rows read T + tenor, so by default the grid stops a tenor short
            stop = horizon - tenor
            if stop + tenor > horizon:  # rounded up
                stop = math.nextafter(stop, 0.0)
        count = _typed(grid, "count", int, 20)
        # chained comparison: a NaN start or stop fails it too; the model flags an infinite horizon
        if count < 1 or not 0 < start <= stop or (stop == math.inf and "stop" in grid):
            raise ConfigError("grid needs 0 < start <= stop and count >= 1")
        if count > MAX_GRID_COUNT:
            raise ConfigError(f"grid count must not exceed {MAX_GRID_COUNT}")
        maturities = np.linspace(start, stop, count) if stop < math.inf else None
    except KeyError as exc:
        raise ConfigError(f"config missing key {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    spec = ModelSpec(factors=factors, floor=floor, horizon=horizon)
    return {
        "spec": spec,
        "dual": None if spread is None else DualCurveSpec(base=spec, **spread),
        "maturities": maturities,
        "tenor": tenor,
        **settings,
    }


def _setting(cfg: dict, key: str):
    """The run setting ``key``; ValueError naming its config key and flag when neither sets it."""
    if cfg[key] is None:
        raise ValueError(f"missing {key}: set config '{key}' or --{key}")
    return cfg[key]


def _create(cfg: dict, name: str):
    """``name`` in the output directory, made if missing, opened for writing."""
    os.makedirs(cfg["output"], exist_ok=True)
    return open(os.path.join(cfg["output"], name), "w", encoding="utf-8", newline="\n")


def cmd_validate(cfg: dict, args) -> int:
    # load_config built the specs, so the model (and a dual-curve fictitious model) is valid
    print("OK")
    return EXIT_OK


def cmd_curve(cfg: dict, args) -> int:
    spec, dual, tenor = cfg["spec"], cfg["dual"], cfg["tenor"]
    stop = float(cfg["maturities"][-1])
    if dual is not None and stop + tenor > spec.horizon:
        # the OIS and LIBOR columns read the curves up to stop + tenor
        raise ValueError(f"grid stop {stop} plus tenor {tenor} exceeds the horizon {spec.horizon}")
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
        raise OverflowError("curve values overflow double precision")
    header = "maturity,P,f,R" if dual is None else "maturity,P,P_bar,f,f_bar,g,F_ois,L_libor"
    with _create(cfg, "curve.csv") as handle:
        handle.write(header + "\n")
        handle.write(_rows(",".join(["%.17g"] * len(rows[0])) + "\n", *zip(*rows)))
    print(f"wrote {handle.name}")
    return EXIT_OK


def cmd_calibrate(cfg: dict, args) -> int:
    spec = cfg["spec"]
    try:
        market = ForwardCurve.from_csv(args.market)
    except OSError as exc:
        print(f"error: cannot read market CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        raise ValueError(f"malformed market CSV: {exc}") from exc
    if market.maturities[-1] > spec.horizon:
        raise ValueError("market maturities exceed the model horizon")
    # an overflowing fit raises OverflowError here, before any output
    floor = calibrate_floor(spec.factors, market)
    refitted = ModelSpec(factors=spec.factors, floor=floor, horizon=spec.horizon)
    worst = max(
        abs(forward_rate(refitted, 0.0, T) - f_mkt)
        for T, f_mkt in zip(market.maturities, market.rates)
    )
    with _create(cfg, "floor.csv") as handle:
        handle.write("maturity,mu\n")
        handle.write(_rows("%.17g,%.17g\n", floor.times, floor.values))
    print(f"wrote {handle.name}")
    print(f"refit max |f_model - f_market| = {worst:.3e}")
    if worst >= 1e-8:
        raise ValueError("refit error exceeds 1e-8")
    return EXIT_OK


_PATHS_CSV_HEADER = "path_id,time,factor_index,X,short_rate,integrated_rate\n"
_JUMPS_CSV_HEADER = "path_id,factor_index,jump_time,jump_size\n"


def _path_csv_rows(path_id: int, path: SimulatedPath, mesh: np.ndarray, mesh_times) -> str:
    """One path's rows of ``paths.csv``: one per grid point and factor.

    The grid is ``mesh`` united with the jump epochs, and ``mesh_times``
    holds the mesh's texts (an object array), so only the epochs off the
    mesh are formatted here.  ``short_rate,integrated`` is formatted once
    per grid point, and each grid point's factor rows are one template.
    """
    grid = path.grid
    times = np.empty(grid.size, object)
    on_mesh = np.searchsorted(grid, mesh)
    times[on_mesh] = mesh_times
    epochs = np.ones(grid.size, bool)
    epochs[on_mesh] = False
    times[epochs] = _texts(grid[epochs])
    times = times.tolist()
    tails = _rows("%.17g,%.17g ", path.short_rate.tolist(), path.integrated.tolist()).split()
    row = "".join(f"{path_id},%s,{k},%.17g,%s\n" for k in range(1, len(path.factors) + 1))
    return _rows(row, *(c for x in path.factors.tolist() for c in (times, x, tails)))


def _jump_csv_rows(path_id: int, path: SimulatedPath) -> str:
    """One path's rows of ``jumps.csv``: one per jump of each factor."""
    return "".join(_rows(f"{path_id},{k},%.17g,%.17g\n", rec.times.tolist(), rec.sizes.tolist())
                   for k, rec in enumerate(path.jumps, 1))


def cmd_simulate(cfg: dict, args) -> int:
    spec = cfg["spec"] if cfg["dual"] is None else cfg["dual"].fictitious
    seed = _check_seed(_setting(cfg, "seed"))
    n_paths = _setting(cfg, "paths")
    if n_paths < 1:
        raise ValueError(f"simulate needs at least one path, got {n_paths}")
    # each path is written as it is simulated and only r at the horizon is
    # kept, so memory holds one path; path 0 runs before the output directory
    # is made, so a model that cannot be simulated leaves no output
    points_per_year = 252
    path = simulate_path(spec, seed, 0, points_per_year)
    # every path's grid holds this mesh, whose times are formatted once
    mesh = _mesh(spec.horizon, points_per_year)
    mesh_times = np.array(_texts(mesh), object)
    finals = np.empty(n_paths)
    with _create(cfg, "paths.csv") as rows, _create(cfg, "jumps.csv") as jumps:
        rows.write(_PATHS_CSV_HEADER)
        jumps.write(_JUMPS_CSV_HEADER)
        for p in range(n_paths):
            if p:
                path = simulate_path(spec, seed, p, points_per_year)
            rows.write(_path_csv_rows(p, path, mesh, mesh_times))
            jumps.write(_jump_csv_rows(p, path))
            finals[p] = path.short_rate[-1]
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
    print(f"wrote {cfg['output']}/paths.csv and {cfg['output']}/jumps.csv")
    return EXIT_OK


def cmd_price(cfg: dict, args) -> int:
    if args.instrument == "option" and (args.strike is None or args.expiry is None):
        raise ValueError("option pricing needs --strike and --expiry")
    spec = cfg["spec"]
    seed = _check_seed(_setting(cfg, "seed"))
    n_paths = 100_000 if cfg["paths"] is None else cfg["paths"]
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
    for key in ("seed", "paths", "output"):  # a flag overrides the config
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    handlers = {
        "validate": cmd_validate,
        "curve": cmd_curve,
        "calibrate": cmd_calibrate,
        "simulate": cmd_simulate,
        "price": cmd_price,
    }
    try:
        return handlers[args.command](cfg, args)
    except OSError as exc:  # the config and market CSV reads report their own
        message = f"cannot write output: {exc}"
    except (ValueError, ArithmeticError, QuadratureError, PricingError) as exc:
        # a domain failure (an overflowing model among them) in any command;
        # every command computes its results before it writes
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
