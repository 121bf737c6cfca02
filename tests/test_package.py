import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import jumpcurve

# every public name of the package: adding or dropping one means editing this set
PUBLIC_NAMES = {
    # model
    "ConstantFloor", "FactorParams", "FloorFunction", "GammaJumpMeasure", "InvalidModelError",
    "ModelSpec", "PiecewiseLinearFloor", "SummedFloor", "conditional_moments",
    # curves
    "ForwardCurve", "bond_B", "bond_B_dT", "bond_price", "calibrate_floor",
    "cumulant_time_integral", "forward_rate", "tilted_time_integral", "yield_curve",
    # transforms
    "AffineExponent", "factor_exponent", "levy_char_fn", "levy_density", "levy_zero_atom",
    "short_rate_char_fn", "short_rate_mgf",
    # simulation
    "JumpRecord", "MonteCarloEstimate", "SimulatedPath", "bond_path", "evolve_factor",
    "hjm_forward_path", "integrated_rate", "mc_bond_curve", "mc_bond_price",
    "mc_discounted_bond", "mc_option_price", "mc_short_rate_samples", "simulate_jumps",
    "simulate_path",
    # options
    "OptionSpec", "PricingError", "fourier_call_price", "fourier_call_price_at",
    # multicurve
    "DualCurveSpec", "fictitious_bond_price", "forward_spread", "libor_forward",
    "libor_path_closed_form", "ois_forward",
    # quadrature
    "QuadratureError", "gauss_kronrod",
}


def test_public_names_are_pinned():
    exported = {name for name, obj in vars(jumpcurve).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == PUBLIC_NAMES


def test_each_public_name_is_in_its_modules_all():
    for name in PUBLIC_NAMES:
        home = importlib.import_module(getattr(jumpcurve, name).__module__)
        assert name in home.__all__, (name, home.__name__)


# the README's example model file
README_MODEL = {
    "version": 1, "horizon": 10.0, "floor": {"variant": "constant", "level": 0.02},
    "factors": [{"lambda": 1.0, "sigma": 1.0, "x0": 0.01, "alpha": 2.0, "epsilon": 10.0}],
    "grid": {"start": 0.25, "stop": 5.0, "count": 20}, "tenor": 0.25, "seed": 42,
    "paths": 100000, "output": "out",
}

NO_SCIPY_SCRIPT = """
import sys
import pytest

import jumpcurve
import jumpcurve.cli
config, output = sys.argv[1:]
assert jumpcurve.cli.main(["--config", config, "validate"]) == 0
assert jumpcurve.cli.main(["--config", config, "--output", output, "curve"]) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_import_and_cli_curve_load_no_scipy(tmp_path):
    # scipy serves only the Fourier tail and the Levy density, which import it when first run
    config = tmp_path / "model.json"
    config.write_text(json.dumps(README_MODEL))
    src = os.path.dirname(os.path.dirname(jumpcurve.__file__))
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "curve.csv").is_file()


CLI_SCRIPT = """
import json
import sys
import jumpcurve.cli
config, output, argv = sys.argv[1:]
assert jumpcurve.cli.main(["--config", config, "--output", output, *json.loads(argv)]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def _scipy_modules_after(tmp_path, argv):
    """The scipy modules a fresh interpreter holds after one CLI command on the README model."""
    config = tmp_path / "model.json"
    config.write_text(json.dumps(README_MODEL))
    market = tmp_path / "market.csv"
    market.write_text("maturity,forward_rate\n" + "".join(f"{t},0.03\n" for t in (0.5, 1.0, 2.0)))
    argv = [str(market) if arg == "MARKET" else arg for arg in argv]
    src = os.path.dirname(os.path.dirname(jumpcurve.__file__))
    run = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, str(config), str(tmp_path / "out"), json.dumps(argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (run.returncode, run.stderr) == (0, "")
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [["calibrate", "--market", "MARKET"], ["--seed", "7", "--paths", "3", "simulate"],
     ["price", "bond", "--maturity", "2.0"]],
    ids=["calibrate", "simulate", "price-bond"],
)
def test_cli_command_loads_no_scipy(tmp_path, argv):
    assert _scipy_modules_after(tmp_path, argv) == []


def test_fourier_option_loads_scipy_special_only(tmp_path):
    # the Fourier tail's exp1 is the one scipy function an option price needs
    loaded = _scipy_modules_after(
        tmp_path, ["price", "option", "--maturity", "2.0", "--expiry", "1.0", "--strike", "0.95"]
    )
    assert "scipy.special" in loaded
    assert not [name for name in loaded if name.startswith(("scipy.optimize", "scipy.integrate"))]
