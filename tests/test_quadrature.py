import cmath
import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from jumpcurve.quadrature import QuadratureError, fourier_rule, gauss_kronrod


def test_polynomial_exact():
    value, err = gauss_kronrod(lambda x: 3.0 * x**2, 0.0, 2.0)
    assert value == pytest.approx(8.0, abs=1e-13)
    assert err < 1e-12


def test_oscillatory_matches_scipy():
    f = lambda x: np.sin(7.3 * x) * np.exp(-0.2 * x)
    mine, _ = gauss_kronrod(f, 0.0, 20.0, abs_tol=1e-13)
    ref, _ = quad(f, 0.0, 20.0, epsabs=1e-14, limit=200)
    assert mine == pytest.approx(ref, abs=1e-11)


def test_complex_integrand():
    value, _ = gauss_kronrod(lambda x: np.exp(1j * x), 0.0, math.pi)
    assert value == pytest.approx(2j * 1.0, abs=1e-12)


def test_empty_interval():
    assert gauss_kronrod(lambda x: x, 1.0, 1.0) == (0.0, 0.0)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_nonfinite_bound_rejected(a, b):
    with pytest.raises(ValueError, match="finite integration bounds required"):
        gauss_kronrod(lambda x: x, a, b)


def test_budget_exhaustion_raises():
    rng = np.random.default_rng(0)

    def noisy(x):
        return rng.standard_normal(x.shape)

    with pytest.raises(QuadratureError):
        gauss_kronrod(noisy, 0.0, 1.0, abs_tol=1e-14, max_panels=64)


def test_reverse_orientation():
    fwd, _ = gauss_kronrod(lambda x: x**3, 0.0, 1.5)
    bwd, _ = gauss_kronrod(lambda x: x**3, 1.5, 0.0)
    assert bwd == pytest.approx(-fwd, abs=1e-13)


# (integrand, a, b, keywords) -> (value, error) bits from the single-panel
# integrator as it was before the initial mesh option, frozen with float.hex
FROZEN_SINGLE_PANEL = [
    ((lambda x: np.sin(7.3 * x) * np.exp(-0.2 * x), 0.0, 20.0, dict(abs_tol=1e-13)),
     ("0x1.17c428f6aeec1p-3", "0x1.034fc00000000p-45")),
    ((lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0, {}),
     ("0x1.356610a59f02dp+8", "0x1.a064800000000p-35")),
    ((lambda x: np.exp((2.0 + 5j) * x) / (1.0 + x * x), -1.0, 2.0, dict(rel_tol=1e-10)),
     (complex(float.fromhex("-0x1.8a824b5f14f69p+0"), float.fromhex("0x1.790331dce9258p+0")),
      "0x1.e2630fb1b6625p-36")),
]


@pytest.mark.parametrize(
    "case, frozen", FROZEN_SINGLE_PANEL, ids=["oscillatory", "peak", "complex"]
)
def test_without_breakpoints_bits_unchanged(case, frozen):
    f, a, b, keywords = case
    value, err = gauss_kronrod(f, a, b, **keywords)
    expected = frozen[0] if isinstance(frozen[0], complex) else float.fromhex(frozen[0])
    assert value == expected and err == float.fromhex(frozen[1])
    assert gauss_kronrod(f, a, b, breakpoints=(), **keywords) == (value, err)


def _peak_exact(delta=1e-4, centre=0.3):
    root = math.sqrt(delta)
    return (math.atan((1.0 - centre) / root) + math.atan(centre / root)) / root


@pytest.mark.parametrize(
    "f, exact, breakpoints",
    [
        (lambda x: np.abs(x - 0.3), 0.29, (0.3,)),
        (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), _peak_exact(), (0.1, 0.25, 0.3, 0.35, 0.5)),
        (lambda x: np.exp(-x), -math.expm1(-1.0), 2.0 ** -np.arange(10.0, 0.0, -1.0)),
        (lambda x: np.exp(1j * 40.0 * x), (np.exp(40j) - 1.0) / 40j, np.linspace(0.1, 0.9, 9)),
    ],
    ids=["kink", "peak", "graded", "complex-oscillatory"],
)
def test_breakpoints_match_single_panel(f, exact, breakpoints):
    single, _ = gauss_kronrod(f, 0.0, 1.0)
    meshed, err = gauss_kronrod(f, 0.0, 1.0, breakpoints=breakpoints)
    assert meshed == pytest.approx(single, rel=1e-11, abs=1e-12)
    assert meshed == pytest.approx(exact, rel=1e-11, abs=1e-12)
    assert err < 1e-10


def test_breakpoint_at_a_kink_settles_in_one_call():
    calls = []

    def kink(x):
        calls.append(x.size)
        return np.abs(x - 0.3)

    value, _ = gauss_kronrod(kink, 0.0, 1.0, breakpoints=(0.3,))
    assert calls == [30] and value == pytest.approx(0.29, abs=1e-15)
    calls.clear()
    gauss_kronrod(kink, 0.0, 1.0)
    assert len(calls) > 10


def test_breakpoints_reverse_orientation():
    f = lambda x: np.cos(3.0 * x) + x**2
    fwd, _ = gauss_kronrod(f, 0.0, 2.0, breakpoints=(0.5, 1.0, 1.5))
    bwd, _ = gauss_kronrod(f, 2.0, 0.0, breakpoints=(1.5, 1.0, 0.5))
    assert bwd == pytest.approx(-fwd, abs=1e-13)
    assert fwd == pytest.approx(math.sin(6.0) / 3.0 + 8.0 / 3.0, abs=1e-13)


def test_fourier_rule_default_bits():
    # the default step's rule, which the dense Fourier tail and the Levy density oracle take,
    # keeps the bits it had before the rule took a step argument
    nodes, weights = fourier_rule()
    digest = hashlib.sha256(nodes.astype("<f8").tobytes() + weights.astype("<c16").tobytes())
    assert digest.hexdigest() == "7839aed23d42823779bd3971dca86f61ce0709182338d5691d5c7316186f7c02"
    assert all(a.tobytes() == b.tobytes() for a, b in zip(fourier_rule(0.05), (nodes, weights)))


@pytest.mark.parametrize("h, size", [(0.05, 482), (0.2, 122)])
def test_fourier_rule_matches_a_closed_form(h, size):
    # int_0^inf e^{ix} / (1 + x)^2 dx = 1 + i e^{-i} E_1(-i): an algebraic decay with a pole
    # at x = -1, the shape of the option tail's remainder; at h = 0.25 the error is 6e-13
    nodes, weights = fourier_rule(h)
    assert nodes.size == weights.size == size
    exact = 1.0 + 1j * cmath.exp(-1j) * complex(exp1(-1j))
    assert abs((1.0 + nodes) ** -2 @ weights - exact) < 1e-15
