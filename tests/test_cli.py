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
from jumpcurve import cli, simulate_path
from jumpcurve.cli import main
from jumpcurve.options import PricingError
from jumpcurve.quadrature import QuadratureError
from oracles import rowwise_export_jumps_csv, rowwise_export_paths_csv

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
        assert main(["--config", cfg, "validate"]) == 2
        assert capsys.readouterr().err == (
            "error: dual-curve extension: spread floor must be nonnegative everywhere\n"
        )

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
        "change",
        [
            {"factors": [dict(BASELINE["factors"][0], **{"lambda": "abc"})]},
            {"factors": 7},
            {"grid": {"start": "x"}},
            {"grid": 5},
            {"grid": {"count": math.inf}},
        ],
        ids=["string-lambda", "integer-factors", "string-grid-start", "integer-grid",
             "infinite-grid-count"],
    )
    def test_malformed_types(self, tmp_path, capsys, change):
        cfg = write_config(tmp_path, dict(BASELINE, **change))
        assert main(["--config", cfg, "validate"]) == 2
        assert capsys.readouterr().err.startswith("error:")


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
        payload = dict(
            BASELINE,
            grid={"start": 0.5, "stop": 3.0, "count": 6},
            spread_floor={"variant": "constant", "level": 0.005},
            spread_factors=[
                {"lambda": 2.0, "sigma": 0.5, "x0": 0.005, "alpha": 1.0, "epsilon": 20.0}
            ],
            shared_factor_count=0,
        )
        cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "curve"]) == 0
        rows = (tmp_path / "out" / "curve.csv").read_text().splitlines()
        assert rows[0] == "maturity,P,P_bar,f,f_bar,g,F_ois,L_libor"
        for line in rows[1:]:
            vals = list(map(float, line.split(",")))
            _, P, P_bar, f, f_bar, g, F, L = vals
            assert P_bar <= P + 1e-12
            assert g == pytest.approx(f_bar - f, abs=1e-12)
            assert L >= F - 1e-12


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
        # alpha * epsilon overflows, so the fitted floor levels would be NaN
        factor = dict(BASELINE["factors"][0], alpha=1e308, epsilon=1e308)
        cfg = write_config(tmp_path, dict(BASELINE, factors=[factor], output=str(tmp_path / "out")))
        market = tmp_path / "market.csv"
        market.write_text("maturity,forward_rate\n1.0,0.03\n2.0,0.031\n")
        assert main(["--config", cfg, "calibrate", "--market", str(market)]) == 1
        assert capsys.readouterr().err == (
            "error: calibrated floor level at maturity 1.0 is nan, not finite\n"
        )
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


class TestSimulateCommand:
    @pytest.mark.parametrize("payload", [BASELINE, PIECEWISE_TWO_FACTORS], ids=["one", "two"])
    def test_streamed_csvs_match_rowwise_writers(self, tmp_path, payload):
        # the CSVs are written path by path; their bytes are the row-by-row writers'
        cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / "out")))
        assert main(["--config", cfg, "--seed", "11", "--paths", "3", "simulate"]) == 0
        spec = cli.load_config(cfg)["spec"]
        paths = [simulate_path(spec, 11, p) for p in range(3)]
        rowwise_export_paths_csv(paths, tmp_path / "paths.csv")
        rowwise_export_jumps_csv(paths, tmp_path / "jumps.csv")
        for name in ("paths.csv", "jumps.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()

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
