#!/usr/bin/env python3
"""End-to-end desk report for the baseline single-factor model.

Builds the reference model, prints its discount/forward/yield table,
calibrates the floor back from its own forward curve, then prices a bond
and a call on the bond both analytically and by Monte Carlo, reporting the
z-scores of the cross-checks and, for each control-variate estimate, the
plain sample mean it improves on and the variance reduction.
"""

import argparse
import math

import numpy as np

from jumpcurve import (
    ConstantFloor,
    FactorParams,
    ForwardCurve,
    GammaJumpMeasure,
    ModelSpec,
    OptionSpec,
    bond_price,
    calibrate_floor,
    forward_rate,
    fourier_call_price,
    mc_bond_price,
    mc_option_price,
    yield_curve,
)


def build_model() -> ModelSpec:
    return ModelSpec(
        factors=(
            FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0)),
        ),
        floor=ConstantFloor(0.02),
        horizon=10.0,
    )


def print_plain(est) -> None:
    """The plain sample mean behind a control-variate estimate, and the variance reduction."""
    reduction = (est.plain_std_error / est.std_error) ** 2
    print(
        f"  plain mean  {est.plain_value:.8f} +/- {est.plain_std_error:.2e}"
        f"  (control variate: beta = {est.beta:.4f}, variance / {reduction:.1f})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20_240)
    args = parser.parse_args()

    spec = build_model()
    print("maturity       P(0,T)        f(0,T)        R(0,T)")
    for T in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        print(
            f"{T:8.2f}  {bond_price(spec, 0.0, T):12.8f}"
            f"  {forward_rate(spec, 0.0, T):12.8f}"
            f"  {yield_curve(spec, 0.0, T):12.8f}"
        )

    grid = np.linspace(0.25, 9.0, 36)
    market = ForwardCurve(grid, np.array([forward_rate(spec, 0.0, T) for T in grid]))
    floor = calibrate_floor(spec.factors, market)
    refit = ModelSpec(factors=spec.factors, floor=floor, horizon=spec.horizon)
    worst = max(abs(forward_rate(refit, 0.0, T) - f) for T, f in zip(grid, market.rates))
    print(f"\ncalibration round trip on {grid.size} knots: max error {worst:.3e}")

    T = 1.0
    analytic = bond_price(spec, 0.0, T)
    est = mc_bond_price(spec, T, args.paths, seed=args.seed)
    z = abs(analytic - est.value) / est.std_error
    print(f"\nbond T={T}: analytic {analytic:.8f}")
    print(f"  monte-carlo {est.value:.8f} +/- {est.std_error:.2e}  (z = {z:.2f})")
    print_plain(est)

    option = OptionSpec(strike=0.94, option_maturity=0.5, bond_maturity=1.0)
    price = fourier_call_price(spec, option)
    est = mc_option_price(spec, option, args.paths, seed=args.seed + 1)
    z = abs(price - est.value) / est.std_error
    print(f"\ncall K={option.strike} tau={option.option_maturity} T={option.bond_maturity}:")
    print(f"  fourier     {price:.8f}")
    print(f"  monte-carlo {est.value:.8f} +/- {est.std_error:.2e}  (z = {z:.2f})")
    print_plain(est)


if __name__ == "__main__":
    main()
