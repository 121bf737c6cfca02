"""Request records, result fingerprints and the checks shared by the workloads."""

from __future__ import annotations

import hashlib
import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# z-bound between a Monte Carlo estimate and its analytic twin
Z_BOUND = 5.0
TWIN_REL_TOL = 1e-10
CALIBRATION_TOL = 1e-8
DAMPENING_TOL = 1e-7
PATHWISE_REL_TOL = 1e-10


class CheckFailed(Exception):
    """A request's output failed its correctness check."""


@dataclass
class Outcome:
    """What the benchmark keeps of one result."""

    fingerprint: Any
    std_error: Optional[float] = None  # None: an exact result
    file_bytes: dict = field(default_factory=dict)  # size of each file a CLI run wrote

    @property
    def bytes_written(self) -> int:
        return sum(self.file_bytes.values())


@dataclass
class Request:
    """One call into the program.

    ``call`` performs it; ``check`` fully verifies the first result and
    raises :class:`CheckFailed` if it is wrong; ``summarize`` reduces a
    result to its :class:`Outcome`.  A repeat of the request must reproduce
    the first result's fingerprint exactly.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    summarize: Callable[[Any], Outcome] = None
    meta: dict = field(default_factory=dict)
    first: Optional[Outcome] = None  # outcome of the first, fully checked run

    def __post_init__(self):
        if self.summarize is None:
            self.summarize = lambda result: Outcome(_float_fingerprint(result))


def _float_fingerprint(result):
    """Default fingerprint: an exact real or complex number."""
    if isinstance(result, complex):
        return (result.real, result.imag)
    return float(result)


def fail(message: str):
    raise CheckFailed(message)


def finite(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        fail(f"{what}: non-finite value {value}")
    return value


def close(value, twin, what: str, rel: float = TWIN_REL_TOL, scale: float = 0.0) -> None:
    """|value - twin| <= rel * max(|value|, |twin|, scale)."""
    value = finite(value, what)
    twin = finite(twin, what + " twin")
    allowed = rel * max(abs(value), abs(twin), scale)
    if abs(value - twin) > allowed:
        fail(f"{what}: {value!r} vs twin {twin!r} (allowed {allowed:.3g})")


def within_z(estimate: float, std_error: float, analytic: float, what: str) -> None:
    estimate = finite(estimate, what)
    std_error = finite(std_error, what + " std error")
    if not std_error > 0:
        fail(f"{what}: standard error {std_error} is not positive")
    z = abs(estimate - analytic) / std_error
    if z > Z_BOUND:
        fail(f"{what}: estimate {estimate} is {z:.2f} standard errors from {analytic}")


@dataclass
class CliResult:
    code: Any
    stdout: str
    stderr: str


def run_cli(jc, argv) -> CliResult:
    """Run the CLI in this process, as ``jumpcurve <argv>`` would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = jc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_ok(result: CliResult) -> None:
    if result.code != 0:
        fail(f"CLI exited {result.code}: {result.stderr.strip()[:300]}")


def cli_outcome(result: CliResult, out_dir: str, files) -> Outcome:
    """Fingerprint a CLI run by exit code, stdout and the digests of its files.

    The files are deleted once hashed, so a repeat of the run that does not
    write them again fails instead of matching the first run's files.
    """
    cli_ok(result)
    digests = []
    sizes = {}
    for name in files:
        path = os.path.join(out_dir, name)
        with open(path, "rb") as handle:
            data = handle.read()
        os.remove(path)
        sizes[name] = len(data)
        digests.append(hashlib.sha256(data).hexdigest())
    return Outcome((result.code, result.stdout, tuple(digests)), None, sizes)
