import json
import math

import numpy as np
import pytest

from jumpcurve.cli import main

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


class TestCurveCommand:
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


class TestSimulateCommand:
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

    def test_option_requires_strike_and_expiry(self, tmp_path):
        cfg = write_config(tmp_path, BASELINE)
        assert main(["--config", cfg, "price", "option", "--maturity", "1.0"]) == 1

    def test_bond_beyond_horizon(self, tmp_path):
        cfg = write_config(tmp_path, BASELINE)
        assert main(["--config", cfg, "price", "bond", "--maturity", "99.0"]) == 1
