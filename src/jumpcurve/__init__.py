"""Pure-jump mean-reverting multi-factor short-rate model toolkit."""

from .model import (
    ConstantFloor,
    FactorParams,
    FloorFunction,
    GammaJumpMeasure,
    InvalidModelError,
    ModelSpec,
    PiecewiseLinearFloor,
    SummedFloor,
    conditional_moments,
)
from .curves import (
    ForwardCurve,
    bond_B,
    bond_B_dT,
    bond_price,
    calibrate_floor,
    cumulant_time_integral,
    forward_rate,
    tilted_time_integral,
    yield_curve,
)
from .transforms import (
    AffineExponent,
    factor_exponent,
    levy_char_fn,
    levy_density,
    levy_zero_atom,
    short_rate_char_fn,
    short_rate_mgf,
)
from .simulation import (
    JumpRecord,
    MonteCarloEstimate,
    SimulatedPath,
    bond_path,
    evolve_factor,
    hjm_forward_path,
    integrated_rate,
    mc_bond_curve,
    mc_bond_price,
    mc_discounted_bond,
    mc_option_price,
    mc_short_rate_samples,
    simulate_jumps,
    simulate_path,
)
from .options import (
    OptionSpec,
    PricingError,
    fourier_call_price,
    fourier_call_price_at,
)
from .multicurve import (
    DualCurveSpec,
    fictitious_bond_price,
    forward_spread,
    libor_forward,
    libor_path_closed_form,
    ois_forward,
)
from .quadrature import QuadratureError, gauss_kronrod

__version__ = "0.1.0"
