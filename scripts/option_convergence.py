#!/usr/bin/env python3
"""Monte Carlo convergence study for the Fourier call price.

Doubles the path count repeatedly and reports the control-variate estimate,
its standard error, the plain sample mean's standard error, the variance
reduction (plain SE / SE)^2 and the z-score against the Fourier price: the
error should shrink like 1/sqrt(paths) while the z-scores stay order one.
Exits 1 if any |z| exceeds 5.
"""

import argparse
import sys

from jumpcurve import (
    ConstantFloor,
    FactorParams,
    GammaJumpMeasure,
    ModelSpec,
    OptionSpec,
    fourier_call_price,
    mc_option_price,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=90_210)
    parser.add_argument("--max-paths", type=int, default=512_000)
    parser.add_argument("--strike", type=float, default=0.94)
    args = parser.parse_args()

    spec = ModelSpec(
        factors=(
            FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0)),
        ),
        floor=ConstantFloor(0.02),
        horizon=10.0,
    )
    option = OptionSpec(strike=args.strike, option_maturity=0.5, bond_maturity=1.0)
    reference = fourier_call_price(spec, option)
    print(f"fourier price: {reference:.10f}")
    print("paths       estimate       std error   plain SE   reduction     z")
    paths = 1000
    worst = 0.0
    while paths <= args.max_paths:
        est = mc_option_price(spec, option, paths, seed=args.seed)
        z = abs(est.value - reference) / est.std_error
        reduction = (est.plain_std_error / est.std_error) ** 2
        print(
            f"{paths:8d}  {est.value:.10f}  {est.std_error:.3e}  {est.plain_std_error:.3e}"
            f"  {reduction:9.2f}  {z:5.2f}"
        )
        worst = max(worst, z)
        paths *= 2
    if worst > 5.0:
        print(f"error: |z| = {worst:.2f} exceeds 5", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
