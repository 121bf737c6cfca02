import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jumpcurve
from jumpcurve import (
    JumpRecord,
    SimulatedPath,
    SummedFloor,
    bond_price,
    cli,
    fictitious_bond_price,
    libor_forward,
    ois_forward,
    simulate_path,
)
from jumpcurve.cli import main
from jumpcurve.options import PricingError
from jumpcurve.quadrature import QuadratureError
from jumpcurve.simulation import _mesh
from oracles import pointwise_cumulative, rowwise_export_jumps_csv, rowwise_export_paths_csv

BASELINE = {
    "version": 1,
    "horizon": 10.0,
    "floor": {"variant": "constant", "level": 0.02},
    "factors": [
        {"lambda": 1.0, "sigma": 1.0, "x0": 0.01, "alpha": 2.0, "epsilon": 10.0}
    ],
    "grid": {"start": 0.25, "stop": 5.0, "count": 10},
    "seed": 42,
    "paths": 2000,
}

_FACTOR_1 = BASELINE["factors"][0]

DETERMINISTIC = {
    "version": 1,
    "horizon": 10.0,
    "floor": {"variant": "constant", "level": 0.03},
    "factors": [
        {"lambda": 1.0, "sigma": 1.0, "x0": 0.0, "alpha": 1e-13, "epsilon": 10.0}
    ],
    "grid": {"start": 0.5, "stop": 4.0, "count": 8},
    "seed": 7,
    "paths": 3,
}


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidateCommand:
    def test_valid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASELINE)
        assert main(["--config", cfg, "validate"]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_invalid_factor(self, tmp_path, capsys):
        bad = json.loads(json.dumps(BASELINE))
        bad["factors"][0]["lambda"] = 0.0
        cfg = write_config(tmp_path, bad)
        assert main(["--config", cfg, "validate"]) == 1
        assert "factor 1" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["--config", missing, "validate"]) == 2

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "validate"]) == 2

    def test_wrong_version(self, tmp_path):
        bad = dict(BASELINE, version=2)
        cfg = write_config(tmp_path, bad)
        assert main(["--config", cfg, "validate"]) == 2

    def test_negative_spread_floor(self, tmp_path, capsys):
        spread = {"variant": "piecewise_linear", "times": [1.0, 2.0], "values": [0.01, -0.01]}
        cfg = write_config(tmp_path, dict(BASELINE, spread_floor=spread))
        assert main(["--config", cfg, "validate"]) == 1
        assert capsys.readouterr() == ("spread floor minimum -0.01 must be nonnegative\n", "")

    @pytest.mark.parametrize(
        "change, report",
        [
            (
                {
                    "factors": [dict(BASELINE["factors"][0], x0=math.nan)],
                    "floor": {"variant": "constant", "level": math.nan},
                },
                "factor 1: x0 must be nonnegative and finite\nfloor level must be finite",
            ),
            (
                {"spread_floor": {"variant": "constant", "level": math.nan}},
                "floor part 1 level must be finite",
            ),
            # the model check runs before the spread floor's minimum is read
            (
                {"spread_floor": {"variant": "piecewise_linear", "times": [], "values": []}},
                "floor part 1 has no knots",
            ),
        ],
        ids=["nan-x0-and-floor", "nan-spread-floor", "empty-spread-floor"],
    )
    def test_nonfinite_config_rejected(self, tmp_path, capsys, change, report):
        cfg = write_config(tmp_path, dict(BASELINE, output=str(tmp_path / "out"), **change))
        assert main(["--config", cfg, "validate"]) == 1
        assert capsys.readouterr().out.strip() == report
        assert main(["--config", cfg, "curve"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "grid, code, stdout, stderr",
        [
            ({}, 1, "horizon must be positive and finite\n", ""),
            ({"start": 0.5, "count": 4}, 1, "horizon must be positive and finite\n", ""),
            ({"stop": math.inf}, 2, "", "error: grid needs 0 < start <= stop and count >= 1\n"),
        ],
        ids=["no-grid", "grid-without-stop", "infinite-stop"],
    )
    def test_infinite_grid_end_warns_nothing(self, tmp_path, grid, code, stdout, stderr):
        # "horizon": Infinity with no grid stop once built a grid up to inf, and
        # NumPy's RuntimeWarning reached stderr ahead of the report
        cfg = write_config(tmp_path, dict(BASELINE, horizon=math.inf, grid=grid))
        src = os.path.dirname(os.path.dirname(jumpcurve.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "jumpcurve.cli", "--config", cfg, "validate"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, stdout, stderr)

    @pytest.mark.parametrize(
        "payload, error",
        [
            (dict(BASELINE, factors=[dict(_FACTOR_1, **{"lambda": "abc"})]),
             "malformed config value: could not convert string to float: 'abc'"),
            (dict(BASELINE, factors=7), "malformed config value: 'int' object is not iterable"),
            (dict(BASELINE, grid={"start": "x"}),
             "malformed config value: could not convert string to float: 'x'"),
            (dict(BASELINE, grid=5), "config 'grid' must be an object"),
            (dict(BASELINE, grid={"count": math.inf}), "config 'count' must be of type int, got inf"),
            (dict(BASELINE, floor={"variant": "constant"}), "floor: constant floor needs 'level'"),
            (dict(BASELINE, floor={"variant": "piecewise_linear", "times": [1.0]}),
             "floor: piecewise floor needs 'times' and 'values'"),
            (dict(BASELINE, factors=[{k: v for k, v in _FACTOR_1.items() if k != "epsilon"}]),
             "factors[0]: factor needs keys ('lambda', 'sigma', 'x0', 'alpha', 'epsilon')"),
            ([BASELINE], "config root must be an object"),
            (dict(BASELINE, tenor=0.0), "config 'tenor' must be positive and finite"),
            (dict(BASELINE, grid={"start": 3.0, "stop": 1.0}),
             "grid needs 0 < start <= stop and count >= 1"),
            ({k: v for k, v in BASELINE.items() if k != "horizon"}, "config missing key 'horizon'"),
        ],
        ids=["string-lambda", "integer-factors", "string-grid-start", "integer-grid",
             "infinite-grid-count", "floor-without-level", "floor-without-values",
             "factor-without-epsilon", "root-not-an-object", "zero-tenor", "start-past-stop",
             "no-horizon"],
    )
    def test_malformed_types(self, tmp_path, capsys, payload, error):
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "validate"]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


class TestInvalidModelLeavesNoOutput:
    @pytest.mark.parametrize("command", ["curve", "simulate"])
    @pytest.mark.parametrize(
        "change",
        [
            {"floor": {"variant": "constant", "level": math.nan}},
            {"factors": [dict(BASELINE["factors"][0], **{"lambda": 0})]},
        ],
        ids=["nan-floor-level", "zero-lambda"],
    )
    def test_fails_before_writing(self, tmp_path, capsys, command, change):
        cfg = write_config(tmp_path, dict(BASELINE, paths=2, output=str(tmp_path / "out"), **change))
        assert main(["--config", cfg, command]) == 1
        assert capsys.readouterr().err.startswith("error: invalid model spec: ")
        assert not (tmp_path / "out").exists()


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


class TestRunSettings:
    # each of these once raised a TypeError traceback, was truncated by int()
    # and run, failed as "invalid literal for int()" (exit 1), or passed as 1
    @pytest.mark.parametrize(
        "change, command, key",
        [
            ({"output": 5}, "curve", "output"),
            ({"output": ["x"]}, "curve", "output"),
            ({"seed": [1]}, "simulate", "seed"),
            ({"seed": 1.7}, "simulate", "seed"),
            ({"paths": 2.9}, "simulate", "paths"),
            ({"grid": dict(BASELINE["grid"], count=2.9)}, "curve", "count"),
            ({"shared_factor_count": 0.5}, "curve", "shared_factor_count"),
            ({"paths": "abc"}, "simulate", "paths"),
            ({"version": True}, "validate", "version"),
        ],
        ids=["output-int", "output-list", "seed-list", "seed-float", "paths-float", "count-float",
             "shared-count-float", "paths-string", "version-bool"],
    )
    def test_malformed_setting_exits_two(self, tmp_path, capsys, change, command, key):
        cfg = write_config(tmp_path, {**BASELINE, "paths": 2, "output": str(tmp_path / "out"), **change})
        assert main(["--config", cfg, command]) == 2
        err = capsys.readouterr().err
        assert _one_error_line(err) and f"'{key}'" in err
        assert os.listdir(tmp_path) == ["model.json"]

    @pytest.mark.parametrize("argv", [["curve"], ["calibrate", "--market", "MARKET"], ["simulate"]])
    def test_write_failure_exits_one(self, tmp_path, capsys, argv):
        # an output directory below a regular file cannot be made
        (tmp_path / "file").write_text("")
        market = tmp_path / "market.csv"
        market.write_text("maturity,forward_rate\n1.0,0.03\n2.0,0.031\n")
        cfg = write_config(tmp_path, dict(BASELINE, paths=2, output=str(tmp_path / "file" / "out")))
        argv = [str(market) if arg == "MARKET" else arg for arg in argv]
        assert main(["--config", cfg, *argv]) == 1
        err = capsys.readouterr().err
        assert _one_error_line(err) and err.startswith("error: cannot write output: ")

    def test_flags_override_config(self, tmp_path, monkeypatch):
        # main merges the flags into the settings once; the command sees the result
        seen = []
        simulate = cli.cmd_simulate
        monkeypatch.setattr(cli, "cmd_simulate",
                            lambda cfg, args: seen.append(dict(cfg)) or simulate(cfg, args))
        cfg = write_config(tmp_path, dict(BASELINE, seed=42, paths=5, output=str(tmp_path / "config_out")))
        flag_out = tmp_path / "flag_out"
        argv = ["--config", cfg, "--seed", "7", "--paths", "2", "--output", str(flag_out), "simulate"]
        assert main(argv) == 0
        assert [(s["seed"], s["paths"], s["output"]) for s in seen] == [(7, 2, str(flag_out))]
        assert not (tmp_path / "config_out").exists()
        same = write_config(tmp_path, dict(BASELINE, seed=7, paths=2, output=str(tmp_path / "same")),
                            name="same.json")
        assert main(["--config", same, "simulate"]) == 0
        for csv in ("paths.csv", "jumps.csv"):
            assert (flag_out / csv).read_bytes() == (tmp_path / "same" / csv).read_bytes()


# Valid configs, which random mutations below then break.
_RATES = st.floats(-0.05, 0.1)
_FACTOR = st.fixed_dictionaries({
    "lambda": st.floats(0.05, 5.0), "sigma": st.floats(0.05, 3.0), "x0": st.floats(0.0, 0.1),
    "alpha": st.floats(0.01, 10.0), "epsilon": st.floats(1.0, 50.0),
})
_KNOTS = st.lists(st.tuples(st.floats(0.0, 12.0), _RATES), min_size=1, max_size=4,
                  unique_by=lambda knot: knot[0]).map(sorted)
_FLOOR = st.one_of(
    st.fixed_dictionaries({"variant": st.just("constant"), "level": _RATES}),
    st.builds(lambda variant, knots: {"variant": variant, "times": [t for t, _ in knots],
                                      "values": [v for _, v in knots]},
              st.sampled_from(["piecewise_linear", "calibrated"]), _KNOTS),
)
_CONFIG = st.fixed_dictionaries(
    {"version": st.just(1), "horizon": st.floats(8.0, 15.0), "floor": _FLOOR,
     "factors": st.lists(_FACTOR, min_size=1, max_size=3)},
    optional={
        "spread_floor": _FLOOR, "spread_factors": st.lists(_FACTOR, max_size=2),
        "shared_factor_count": st.integers(0, 1), "tenor": st.floats(0.01, 1.0),
        "grid": st.fixed_dictionaries({}, optional={
            "start": st.floats(0.01, 3.0), "stop": st.floats(3.0, 8.0), "count": st.integers(1, 12)}),
        # validate and curve read neither, but load_config types both
        "seed": st.integers(), "paths": st.integers(),
    },
)
_BAD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, -1e308, 5e-324, "abc", None]),
    st.floats(allow_nan=False),
    st.builds(list),
)
# no grid count large enough to be allocated and priced for minutes (about 1e6 and up) is drawn
_BAD_COUNT = st.one_of(st.integers(-3, 40), st.sampled_from([math.nan, math.inf, 2.5, 1e20, "abc"]))


def _node_paths(node, path=()):
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


@st.composite
def _adversarial_configs(draw):
    raw = draw(_CONFIG)
    targets = draw(st.lists(st.sampled_from(list(_node_paths(raw))), max_size=2, unique=True))
    # deepest first, so no later target lies inside a node already replaced
    for path in sorted(targets, key=len, reverse=True):
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(_BAD_COUNT if path[-1] == "count" else _BAD)
    return raw


class TestConfigProperties:
    @given(raw=_adversarial_configs())
    # shrunk from a failure: an infinite horizon and no grid stop
    @example(raw={"version": 1, "horizon": math.inf, "floor": {"variant": "constant", "level": 0.0},
                  "factors": [{"lambda": 0.05, "sigma": 0.05, "x0": 0.0, "alpha": 0.01,
                               "epsilon": 1.0}]})
    # a path count that int() once truncated to 2, so both commands ran
    @example(raw=dict(BASELINE, paths=2.5))
    # a finite lambda whose product with a time overflows: on the grid's NumPy
    # times it once warned, where Python floats give inf silently
    @example(raw=dict(BASELINE, factors=[dict(BASELINE["factors"][0], **{"lambda": 1e308})]))
    @settings(max_examples=50, deadline=None)
    def test_exit_codes_and_curve_output(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            cfg = os.path.join(tmp, "model.json")
            with open(cfg, "w", encoding="utf-8") as handle:
                json.dump(dict(raw, output=out), handle)
            validate_code = main(["--config", cfg, "validate"])
            curve_code = main(["--config", cfg, "curve"])
            assert validate_code in (0, 1, 2)
            assert curve_code in (0, 1, 2)
            # a seed or path count that is no JSON integer, null among them, is malformed
            if any(key in raw and type(raw[key]) is not int for key in ("seed", "paths")):
                assert validate_code == 2
            if validate_code != 0:
                assert curve_code == validate_code
            if curve_code == 0:
                with open(os.path.join(out, "curve.csv"), encoding="utf-8") as handle:
                    rows = handle.read().splitlines()[1:]
                assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(","))
            else:
                assert not os.path.exists(out)


# finite parameters whose closed forms overflow: alpha * T jumps do not fit a float
OVERFLOWING = dict(
    BASELINE,
    factors=[{"lambda": 3.2, "sigma": 0.25, "x0": 0.01, "alpha": 1e308, "epsilon": 24.0}],
)


class TestDomainFailuresExitOne:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--paths", "2", "simulate"],
            ["price", "option", "--strike", "0.9", "--expiry", "0.5", "--maturity", "1.0"],
        ],
        ids=["simulate", "price-option"],
    )
    def test_overflowing_model(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, dict(OVERFLOWING, output=str(tmp_path / "out")))
        assert main(["--config", cfg, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if "simulate" in argv:
            # the jump-count overflow names the factor and its intensity
            assert "factor index 0" in err and "alpha=1e+308" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error", [QuadratureError, PricingError])
    def test_numerical_failure(self, tmp_path, capsys, monkeypatch, error):
        def failing(spec, option):
            raise error("did not converge")

        monkeypatch.setattr(cli, "fourier_call_price", failing)
        cfg = write_config(tmp_path, BASELINE)
        argv = ["price", "option", "--strike", "0.9", "--expiry", "0.5", "--maturity", "1.0"]
        assert main(["--config", cfg, *argv]) == 1
        assert capsys.readouterr().err == "error: did not converge\n"

    def test_huge_lambda_simulates_but_cannot_price_by_monte_carlo(self, tmp_path, capsys):
        # lambda = 1e308 overflows -lambda t on the path grid, which once warned,
        # and lambda**3 in the jump moments, which once raised a bare OverflowError
        payload = dict(BASELINE, factors=[dict(BASELINE["factors"][0], **{"lambda": 1e308})])
        cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "--paths", "2", "simulate"]) == 0
        assert capsys.readouterr().err == ""
        assert main(["--config", cfg, "--paths", "1000", "price", "bond", "--maturity", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: factor index 0: lambda**3 of the jump moments overflows (lambda=1e+308)\n"
        )


DUAL_CURVE = dict(
    BASELINE,
    grid={"start": 0.5, "stop": 3.0, "count": 6},
    spread_floor={"variant": "constant", "level": 0.005},
    spread_factors=[{"lambda": 2.0, "sigma": 0.5, "x0": 0.005, "alpha": 1.0, "epsilon": 20.0}],
    shared_factor_count=0,
)


class TestCurveCommand:
    def test_grid_count_cap(self, tmp_path, capsys):
        grid = dict(BASELINE["grid"], count=cli.MAX_GRID_COUNT + 1)
        cfg = write_config(tmp_path, dict(BASELINE, grid=grid, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "curve"]) == 2
        assert capsys.readouterr().err == "error: grid count must not exceed 100000\n"
        assert not (tmp_path / "out").exists()

    def test_deterministic_discounting(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(DETERMINISTIC, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "curve"]) == 0
        rows = (tmp_path / "out" / "curve.csv").read_text().splitlines()
        assert rows[0] == "maturity,P,f,R"
        for line in rows[1:]:
            T, P, f, R = map(float, line.split(","))
            assert P == pytest.approx(math.exp(-0.03 * T), abs=1e-12)
            assert R == pytest.approx(0.03, abs=1e-10)

    def test_short_maturity_forward_near_spot(self, tmp_path):
        payload = dict(BASELINE, grid={"start": 1e-6, "stop": 1.0, "count": 3})
        cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "curve"]) == 0
        first = (tmp_path / "out" / "curve.csv").read_text().splitlines()[1]
        f = float(first.split(",")[2])
        assert f == pytest.approx(0.02 + 0.01, abs=1e-5)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASELINE, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "curve"]) == 0
        first = (tmp_path / "out" / "curve.csv").read_bytes()
        assert main(["--config", cfg, "curve"]) == 0
        assert (tmp_path / "out" / "curve.csv").read_bytes() == first

    def test_dual_curve_columns(self, tmp_path):
        cfg = write_config(tmp_path, dict(DUAL_CURVE, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "curve"]) == 0
        rows = (tmp_path / "out" / "curve.csv").read_text().splitlines()
        assert rows[0] == "maturity,P,P_bar,f,f_bar,g,F_ois,L_libor"
        for line in rows[1:]:
            vals = list(map(float, line.split(",")))
            _, P, P_bar, f, f_bar, g, F, L = vals
            assert P_bar <= P + 1e-12
            assert g == pytest.approx(f_bar - f, abs=1e-12)
            assert L >= F - 1e-12

    def test_dual_curve_prices_each_bond_once_per_row(self, tmp_path, monkeypatch):
        # P(0,T) and P_bar(0,T) serve their own columns and the forwards' near ends: four bond
        # prices a row, not six, and the forward columns keep ois_forward's and libor_forward's bits
        from jumpcurve import curves, multicurve
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return curves.bond_price(*args, **kwargs)

        monkeypatch.setattr(cli, "bond_price", counting)
        monkeypatch.setattr(multicurve, "bond_price", counting)
        cfg = write_config(tmp_path, dict(DUAL_CURVE, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "curve"]) == 0
        rows = [list(map(float, line.split(",")))
                for line in (tmp_path / "out" / "curve.csv").read_text().splitlines()[1:]]
        assert len(calls) == 4 * len(rows) == 24
        monkeypatch.undo()
        loaded = cli.load_config(cfg)
        dual, tenor = loaded["dual"], loaded["tenor"]
        for T, P, P_bar, _, _, _, F, L in rows:
            assert (P, P_bar) == (bond_price(dual.base, 0.0, T), fictitious_bond_price(dual, 0.0, T))
            assert F == ois_forward(dual, 0.0, T, T + tenor)
            assert L == libor_forward(dual, 0.0, T, T + tenor)

    @pytest.mark.parametrize("horizon, tenor", [(10.0, 0.25), (7.3, 0.246)])
    def test_dual_curve_default_grid_stops_a_tenor_short(self, tmp_path, horizon, tenor):
        # the grid once stopped at the horizon, so the last OIS column read past it;
        # 7.3 - 0.246 + 0.246 rounds up past 7.3
        payload = {k: v for k, v in DUAL_CURVE.items() if k != "grid"}
        cfg = write_config(tmp_path, dict(payload, horizon=horizon, tenor=tenor,
                                          output=str(tmp_path / "out")))
        assert main(["--config", cfg, "curve"]) == 0
        rows = (tmp_path / "out" / "curve.csv").read_text().splitlines()[1:]
        assert len(rows) == 20
        last = float(rows[-1].split(",")[0])
        assert horizon - tenor - last <= 1e-15 and last + tenor <= horizon

    def test_dual_curve_grid_past_horizon_minus_tenor(self, tmp_path, capsys):
        grid = {"start": 0.5, "stop": 9.9, "count": 4}
        cfg = write_config(tmp_path, dict(DUAL_CURVE, grid=grid, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "curve"]) == 1
        assert capsys.readouterr().err == (
            "error: grid stop 9.9 plus tenor 0.25 exceeds the horizon 10.0\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("start, error", [
        # P(0, 0.25) underflows to 0.0; its log once failed with "math domain error"
        (0.25, "error: P(0.0, 0.25) underflows to 0.0, so its yield overflows\n"),
        # NumPy's scalar-multiply RuntimeWarning once came first
        (2.0, "error: floor integral over [0.0, 2.0] overflows double precision\n"),
    ])
    def test_huge_floor_gives_one_error_line(self, tmp_path, start, error):
        grid = {"start": start, "stop": 5.0, "count": 4}
        payload = dict(BASELINE, floor={"variant": "constant", "level": 1e308}, grid=grid)
        cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / "out")))
        src = os.path.dirname(os.path.dirname(jumpcurve.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "jumpcurve.cli", "--config", cfg, "curve"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (run.returncode, run.stdout, run.stderr) == (1, "", error)
        assert not (tmp_path / "out").exists()

    def test_huge_sigma_gives_one_error_line(self, tmp_path):
        # eta = sigma/epsilon = 1.7e308, so -alpha eta overflows; the run once ended
        # in "error: math domain error", naming nothing
        factor = dict(BASELINE["factors"][0], sigma=1.7e308, epsilon=1.0)
        cfg = write_config(tmp_path, dict(BASELINE, factors=[factor], output=str(tmp_path / "out")))
        src = os.path.dirname(os.path.dirname(jumpcurve.__file__))
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "jumpcurve.cli",
             "--config", cfg, "curve"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr.startswith("error: factor index 0: ") and _one_error_line(run.stderr)
        assert run.stderr.endswith("(sigma=1.7e+308)\n")
        assert not (tmp_path / "out").exists()

    def test_huge_sigma_at_a_large_epsilon_writes_the_curve(self, tmp_path):
        # eta = 1.7e308 / 10 = 1.7e307: -alpha eta is finite, and the curve prices
        factor = dict(BASELINE["factors"][0], sigma=1.7e308)
        cfg = write_config(tmp_path, dict(BASELINE, factors=[factor], output=str(tmp_path / "out")))
        src = os.path.dirname(os.path.dirname(jumpcurve.__file__))
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "jumpcurve.cli",
             "--config", cfg, "curve"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (run.returncode, run.stderr) == (0, "")
        with open(tmp_path / "out" / "curve.csv", encoding="utf-8") as handle:
            rows = handle.read().splitlines()[1:]
        assert len(rows) == BASELINE["grid"]["count"]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    def test_underflowing_forward_names_the_bond(self, tmp_path, capsys):
        # P(0, 3.25) underflows to 0.0; the OIS forward once failed with
        # "float division by zero"
        payload = dict(DUAL_CURVE, floor={"variant": "constant", "level": 300.0},
                       grid={"start": 2.0, "stop": 5.0, "count": 4})
        cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "curve"]) == 1
        assert capsys.readouterr().err == (
            "error: P(0.0, 3.25) underflows to 0.0, so the forward from 3.0 overflows\n"
        )
        assert not (tmp_path / "out").exists()


class TestCalibrateCommand:
    def test_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASELINE, output=str(tmp_path / "out")))
        # market curve generated by the model itself
        from jumpcurve import ConstantFloor, ModelSpec, forward_rate
        from jumpcurve.cli import load_config

        spec = load_config(cfg)["spec"]
        grid = np.linspace(0.25, 5.0, 20)
        market = tmp_path / "market.csv"
        lines = ["maturity,forward_rate"] + [
            f"{T},{forward_rate(spec, 0.0, T)}" for T in grid
        ]
        market.write_text("\n".join(lines) + "\n")
        assert main(["--config", cfg, "calibrate", "--market", str(market)]) == 0
        out = capsys.readouterr().out
        assert "refit max" in out
        floor_rows = (tmp_path / "out" / "floor.csv").read_text().splitlines()
        assert floor_rows[0] == "maturity,mu"
        assert len(floor_rows) == 21

    def test_flat_curve_jump_free(self, tmp_path):
        cfg = write_config(tmp_path, dict(DETERMINISTIC, output=str(tmp_path / "out")))
        market = tmp_path / "market.csv"
        market.write_text(
            "maturity,forward_rate\n" + "".join(f"{t},0.03\n" for t in (0.5, 1.0, 2.0))
        )
        assert main(["--config", cfg, "calibrate", "--market", str(market)]) == 0
        rows = (tmp_path / "out" / "floor.csv").read_text().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[1]) == pytest.approx(0.03, abs=1e-10)

    @pytest.mark.parametrize("field, value", [("lambda", 0.0), ("x0", math.nan)])
    def test_invalid_model_reports_error(self, tmp_path, capsys, field, value):
        payload = dict(BASELINE, factors=[dict(BASELINE["factors"][0], **{field: value})])
        cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / "out")))
        market = tmp_path / "market.csv"
        market.write_text("maturity,forward_rate\n1.0,0.03\n2.0,0.031\n")
        assert main(["--config", cfg, "calibrate", "--market", str(market)]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid model spec: factor 1: {field}")
        assert not (tmp_path / "out").exists()

    def test_overflowing_floor_reports_error(self, tmp_path, capsys):
        # each factor's tilt at maturity 1 is 1.5e308, so the fitted floor level is -inf
        factor = dict(BASELINE["factors"][0], sigma=10.0, alpha=1.7e308, epsilon=1.0)
        cfg = write_config(tmp_path, dict(BASELINE, factors=[factor, factor],
                                          output=str(tmp_path / "out")))
        market = tmp_path / "market.csv"
        market.write_text("maturity,forward_rate\n1.0,0.03\n2.0,0.031\n")
        assert main(["--config", cfg, "calibrate", "--market", str(market)]) == 1
        assert capsys.readouterr().err == (
            "error: calibrated floor level at maturity 1.0 is -inf, not finite\n"
        )
        assert not (tmp_path / "out").exists()

    def test_market_past_the_horizon(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASELINE, output=str(tmp_path / "out")))
        market = tmp_path / "market.csv"
        market.write_text("maturity,forward_rate\n1.0,0.03\n12.0,0.031\n")
        assert main(["--config", cfg, "calibrate", "--market", str(market)]) == 1
        assert capsys.readouterr().err == "error: market maturities exceed the model horizon\n"
        assert not (tmp_path / "out").exists()

    def test_empty_market_csv(self, tmp_path):
        cfg = write_config(tmp_path, BASELINE)
        market = tmp_path / "empty.csv"
        market.write_text("")
        assert main(["--config", cfg, "calibrate", "--market", str(market)]) == 1

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASELINE)
        market = tmp_path / "bad.csv"
        market.write_text("maturity,forward_rate\n0.5,0.01\noops\n")
        assert main(["--config", cfg, "calibrate", "--market", str(market)]) == 1
        assert "row 3" in capsys.readouterr().err

    def test_missing_market_file(self, tmp_path):
        cfg = write_config(tmp_path, BASELINE)
        assert main(["--config", cfg, "calibrate", "--market", str(tmp_path / "no.csv")]) == 2


PIECEWISE_TWO_FACTORS = dict(
    BASELINE,
    floor={"variant": "piecewise_linear", "times": [0.5, 2.0, 5.0, 9.0],
           "values": [0.01, 0.02, -0.005, 0.03]},
    factors=[
        {"lambda": 1.0, "sigma": 1.0, "x0": 0.01, "alpha": 2.0, "epsilon": 10.0},
        {"lambda": 0.4, "sigma": 0.6, "x0": 0.02, "alpha": 1.5, "epsilon": 25.0},
    ],
)


# the simulated model of each: one and two factors, a knotted floor, the
# dual-curve sum of a knotted and a constant floor, and paths without jumps
EXPORT_CONFIGS = {
    "one-factor": BASELINE,
    "two-factors": dict(PIECEWISE_TWO_FACTORS, floor={"variant": "constant", "level": 0.015}),
    "piecewise-floor": PIECEWISE_TWO_FACTORS,
    "summed-floor": dict(PIECEWISE_TWO_FACTORS,
                         spread_floor={"variant": "constant", "level": 0.004}),
    "jump-free": dict(
        BASELINE, horizon=4.0, floor={"variant": "constant", "level": 0.05},
        factors=[{"lambda": 2.0, "sigma": 1.0, "x0": 0.3, "alpha": 1e-12, "epsilon": 10.0}],
    ),
}


def simulated_model(cfg):
    """The model ``simulate`` draws from: the base model, or the fictitious one of a dual curve."""
    loaded = cli.load_config(cfg)
    return loaded["spec"] if loaded["dual"] is None else loaded["dual"].fictitious


class TestCsvExports:
    def test_formats_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASELINE, output=str(tmp_path / "out")))
        argv = ["--config", cfg, "--seed", "5", "--paths", "2", "simulate"]
        assert main(argv) == 0
        paths = [simulate_path(simulated_model(cfg), seed=5, path_index=p) for p in range(2)]
        p_csv, j_csv = tmp_path / "out" / "paths.csv", tmp_path / "out" / "jumps.csv"
        lines = p_csv.read_text().splitlines()
        assert lines[0] == "path_id,time,factor_index,X,short_rate,integrated_rate"
        assert len(lines) == 1 + sum(len(p.grid) for p in paths)
        jlines = j_csv.read_text().splitlines()
        assert jlines[0] == "path_id,factor_index,jump_time,jump_size"
        assert len(jlines) == 1 + sum(p.jumps[0].count for p in paths)
        first = p_csv.read_bytes()
        assert main(argv) == 0
        assert p_csv.read_bytes() == first


class TestExportMatchesRowwiseOracle:
    """``simulate``'s CSV bytes equal the row-by-row reference writers', and the
    floor integral on each path's grid equals the per-point reference to the bit."""

    @pytest.mark.parametrize("name", sorted(EXPORT_CONFIGS))
    def test_streamed_csvs(self, tmp_path, name):
        cfg = write_config(tmp_path, dict(EXPORT_CONFIGS[name], output=str(tmp_path / "out")))
        assert main(["--config", cfg, "--seed", "19", "--paths", "3", "simulate"]) == 0
        spec = simulated_model(cfg)
        assert isinstance(spec.floor, SummedFloor) == (name == "summed-floor")
        paths = [simulate_path(spec, seed=19, path_index=p) for p in range(3)]
        for path in paths:
            expected = pointwise_cumulative(spec.floor, path.grid)
            assert spec.floor.cumulative(path.grid).tobytes() == expected.tobytes()
        rowwise_export_paths_csv(paths, tmp_path / "paths.csv")
        rowwise_export_jumps_csv(paths, tmp_path / "jumps.csv")
        for csv in ("paths.csv", "jumps.csv"):
            assert (tmp_path / "out" / csv).read_bytes() == (tmp_path / csv).read_bytes()
        if name == "jump-free":
            assert all(rec.count == 0 for path in paths for rec in path.jumps)

    def test_bulk_writers_on_edge_values(self, tmp_path):
        # .17g's switches to exponent form (below 1e-4, from 1e17), signed
        # zeros, the extreme doubles and inf, on a hand-built path of three
        # factors, the second without jumps, and an epoch on the mesh time 0.5
        mesh = _mesh(1.0, 4)
        records = (JumpRecord([5e-324, 1e-5, 0.5], [1e17, 5e-324, 1.7976931348623157e308]),
                   JumpRecord([], []),
                   JumpRecord([9.999999999999999e-5, 0.1, 0.75], [1e16, 9.9999999999999998e16, 1e-5]))
        grid = np.union1d(mesh, np.concatenate([rec.times for rec in records]))
        assert grid.size == mesh.size + 4
        edges = [1e-5, 1e-4, 9.9999999999999995e-5, 1e16, 1e17, 9.9999999999999998e16,
                 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -math.inf, math.inf, 0.1]
        values = np.resize(np.array(edges), 5 * grid.size).reshape(5, grid.size)
        path = SimulatedPath(grid=grid, jumps=records, factors=values[:3],
                             short_rate=-values[3], integrated=values[4, ::-1] - 0.5)
        assert (path.short_rate < 0).any() and (path.integrated < 0).any()
        mesh_times = np.array(cli._texts(mesh), object)
        with open(tmp_path / "paths.csv", "w", encoding="utf-8", newline="\n") as handle:
            handle.write(cli._PATHS_CSV_HEADER)
            for p in range(2):
                handle.write(cli._path_csv_rows(p, path, mesh, mesh_times))
        with open(tmp_path / "jumps.csv", "w", encoding="utf-8", newline="\n") as handle:
            handle.write(cli._JUMPS_CSV_HEADER)
            for p in range(2):
                handle.write(cli._jump_csv_rows(p, path))
        rowwise_export_paths_csv([path, path], tmp_path / "paths_rowwise.csv")
        rowwise_export_jumps_csv([path, path], tmp_path / "jumps_rowwise.csv")
        for csv in ("paths", "jumps"):
            got = (tmp_path / f"{csv}.csv").read_bytes()
            assert got == (tmp_path / f"{csv}_rowwise.csv").read_bytes()
        text = (tmp_path / "paths.csv").read_text()
        for field in (",1.0000000000000001e-05,", ",0.0001,", ",10000000000000000,", ",1e+17,",
                      ",-0,", ",4.9406564584124654e-324,", ",1.7976931348623157e+308,", ",-inf,"):
            assert field in text


class TestSimulateCommand:
    @pytest.mark.parametrize("floors", [
        {"floor": {"variant": "constant", "level": 1e308}},
        # each floor integrates to 1e308 over the horizon, the dual-curve sum overflows
        {"floor": {"variant": "constant", "level": 1e307},
         "spread_floor": {"variant": "constant", "level": 1e307}},
    ], ids=["one", "dual-curve-sum"])
    def test_overflowing_constant_floor(self, tmp_path, capsys, floors):
        # finite levels whose integral over the horizon is not finite
        cfg = write_config(tmp_path, dict(BASELINE, output=str(tmp_path / "out"), **floors))
        assert main(["--config", cfg, "--seed", "3", "--paths", "2", "simulate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: floor integral over [0.0, ")
        assert err.endswith("] overflows double precision\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("paths", ["0", "-2"])
    def test_needs_a_path(self, tmp_path, capsys, paths):
        cfg = write_config(tmp_path, dict(BASELINE, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "--paths", paths, "simulate"]) == 1
        assert capsys.readouterr().err == f"error: simulate needs at least one path, got {paths}\n"
        assert not (tmp_path / "out").exists()

    def test_deterministic_rerun(self, tmp_path):
        payload = dict(BASELINE, paths=2, output=str(tmp_path / "out"))
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "simulate"]) == 0
        paths_1 = (tmp_path / "out" / "paths.csv").read_bytes()
        jumps_1 = (tmp_path / "out" / "jumps.csv").read_bytes()
        assert main(["--config", cfg, "simulate"]) == 0
        assert (tmp_path / "out" / "paths.csv").read_bytes() == paths_1
        assert (tmp_path / "out" / "jumps.csv").read_bytes() == jumps_1

    def test_jump_free_model(self, tmp_path):
        payload = dict(DETERMINISTIC, paths=1, output=str(tmp_path / "out"))
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "simulate"]) == 0
        jumps = (tmp_path / "out" / "jumps.csv").read_text().splitlines()
        assert jumps == ["path_id,factor_index,jump_time,jump_size"]
        rows = (tmp_path / "out" / "paths.csv").read_text().splitlines()[1:]
        for row in rows[:: max(1, len(rows) // 20)]:
            _, t, _, x, r, _ = row.split(",")
            assert float(r) == pytest.approx(0.03, abs=1e-12)

    def test_missing_seed(self, tmp_path):
        payload = {k: v for k, v in BASELINE.items() if k != "seed"}
        cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "simulate"]) == 1

    @pytest.mark.parametrize("paths", [2, 0])
    def test_negative_seed(self, tmp_path, capsys, paths):
        cfg = write_config(tmp_path, dict(BASELINE, paths=paths, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "--seed", "-3", "simulate"]) == 1
        assert capsys.readouterr().err.startswith("error: seed")
        assert not (tmp_path / "out").exists()


class TestPriceCommand:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, dict(BASELINE, paths=500))
        assert main(["--config", cfg, "--seed", seed, "price", "bond", "--maturity", "1.0"]) == 1
        assert capsys.readouterr().err.startswith("error: seed")

    def test_bond_z_score(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASELINE, paths=5000))
        assert main(["--config", cfg, "price", "bond", "--maturity", "1.0"]) == 0
        out = capsys.readouterr().out
        z = float(out.splitlines()[-1].split()[-1])
        assert z < 3.0

    def test_option_z_score(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASELINE, paths=20000))
        code = main(
            [
                "--config", cfg, "price", "option",
                "--maturity", "1.0", "--expiry", "0.5", "--strike", "0.94",
            ]
        )
        assert code == 0
        z = float(capsys.readouterr().out.splitlines()[-1].split()[-1])
        assert z < 3.0

    def test_dominated_strike(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASELINE, paths=500))
        code = main(
            [
                "--config", cfg, "price", "option",
                "--maturity", "1.0", "--expiry", "0.5", "--strike", "1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        analytic = float(out.splitlines()[0].split()[-1])
        mc_line = out.splitlines()[1].split()
        assert analytic <= 1e-9
        assert float(mc_line[1]) == 0.0

    def test_option_rejects_nan_strike(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASELINE)
        argv = ["--config", cfg, "price", "option", "--maturity", "1.0", "--expiry", "0.5",
                "--strike", "nan"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: strike must be positive and finite")

    def test_option_requires_strike_and_expiry(self, tmp_path):
        cfg = write_config(tmp_path, BASELINE)
        assert main(["--config", cfg, "price", "option", "--maturity", "1.0"]) == 1

    def test_bond_beyond_horizon(self, tmp_path):
        cfg = write_config(tmp_path, BASELINE)
        assert main(["--config", cfg, "price", "bond", "--maturity", "99.0"]) == 1


_ALPHA_50_FACTOR = {"lambda": 2.0, "sigma": 0.5, "x0": 0.0, "alpha": 50.0, "epsilon": 400.0}
# whole runs on models at the edges of the contract
EDGE_MODELS = {
    # no grid: curve reads the knotted floor past its last knot, out to the horizon
    "piecewise": {k: v for k, v in PIECEWISE_TWO_FACTORS.items() if k != "grid"},
    # prices sit near 1e-300: the Fourier price must keep below P(0, T), and the
    # Monte Carlo standard error must not underflow
    "floor-230": dict(BASELINE, floor={"variant": "constant", "level": 230}),
    # lambda times a grid time overflows: the closed forms run on Python floats,
    # which give inf silently
    "huge-lambda": dict(BASELINE, factors=[dict(_FACTOR_1, **{"lambda": 1e308})]),
    # sigma B(t, T) dwarfs epsilon and the log's ratio rounds to -1, but the log
    # itself is finite, so every closed form is too
    "big-sigma": dict(BASELINE, factors=[dict(_FACTOR_1, sigma=1e20, alpha=1.0, epsilon=1.0)]),
    # the amplitude at the Fourier head's end is far from its 1/y^2 limit, so the
    # tail is redone on the dense DE rule
    "alpha-50": dict(BASELINE, floor={"variant": "constant", "level": 0.01},
                     factors=[_FACTOR_1, _ALPHA_50_FACTOR]),
}
SIX_POINT_MARKET = ("maturity,forward_rate\n"
                    "0.5,0.03\n1.0,0.032\n2.0,0.035\n4.0,0.036\n6.0,0.035\n9.0,0.034\n")


def _option(strike, expiry, maturity):
    return ["price", "option", "--strike", strike, "--expiry", expiry, "--maturity", maturity]


class TestEdgeModelRuns:
    """Each run exits 0 with nothing on stderr, and a price's analytic value lies
    within 5 standard errors of its Monte Carlo estimate.  The suite turns a NumPy
    RuntimeWarning into an error, so a warning fails the run too."""

    @pytest.mark.parametrize("model, argv", [
        ("piecewise", ["curve"]),
        ("piecewise", ["calibrate", "--market", "MARKET"]),
        ("floor-230", ["--seed", "1", "--paths", "1000", "price", "bond", "--maturity", "3"]),
        ("floor-230", ["--seed", "1", "--paths", "1000", *_option("1e-300", "0.5", "3")]),
        ("huge-lambda", ["curve"]),
        ("big-sigma", ["curve"]),
        ("big-sigma", ["--seed", "1", "--paths", "1000", *_option("0.3", "0.5", "1")]),
        # at expiry = maturity the Fourier exponent's path is the bond's, whose
        # log falls back: the price is (1 - K) P(0, 1)
        ("big-sigma", ["--seed", "1", "--paths", "1000", *_option("0.3", "1", "1")]),
        ("alpha-50", ["--seed", "1", "--paths", "20000", *_option("0.855", "0.5", "1.5")]),
    ], ids=["piecewise-curve", "piecewise-calibrate", "floor-230-bond", "floor-230-option",
            "huge-lambda-curve", "big-sigma-curve", "big-sigma-option", "big-sigma-option-at-maturity",
            "alpha-50-option"])
    def test_exits_zero_silently(self, tmp_path, capsys, model, argv):
        market = tmp_path / "market.csv"
        market.write_text(SIX_POINT_MARKET)
        cfg = write_config(tmp_path, dict(EDGE_MODELS[model], output=str(tmp_path / "out")))
        argv = [str(market) if arg == "MARKET" else arg for arg in argv]
        assert main(["--config", cfg, *argv]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if "price" in argv:
            assert abs(float(out.split("z-score")[1])) < 5
