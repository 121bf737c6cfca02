import importlib
import inspect

import jumpcurve

# every public name of the package: adding or dropping one means editing this set
PUBLIC_NAMES = {
    # model
    "ConstantFloor", "FactorParams", "FloorFunction", "GammaJumpMeasure", "InvalidModelError",
    "ModelSpec", "PiecewiseLinearFloor", "SummedFloor", "conditional_moments",
    # curves
    "ForwardCurve", "MomentFitResult", "bond_B", "bond_B_dT", "bond_price", "calibrate_floor",
    "cumulant_time_integral", "forward_rate", "match_moments", "tilted_time_integral",
    "yield_curve",
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
