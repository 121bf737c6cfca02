"""One workload in one fresh single-client process.

Started by ``run.py``; not meant to be run by hand.  The process imports
``jumpcurve`` from the checkout's ``src/``, builds the workload's inputs and
prints ``READY`` and the CPU time it has used once the first request could
be sent, which is where set-up ends.  With ``--setup-only`` it stops there.
Otherwise it sends the request set once as a warm-up that fully checks
every result, then sends it again and again (a closed loop with one client)
until ``--seconds`` have passed, and prints one JSON line with what it
measured.

With ``--trace 1`` the second half of the time runs under the tracer, and
the line holds the per-layer figures and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import NOMINAL_S, reference_seconds  # noqa: E402
from stats import (  # noqa: E402
    median,
    percentile,
    samples_beyond,
    tail_percentile,
    tail_pool_passes,
    time_to_accuracy,
)


def import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import jumpcurve
    import jumpcurve.cli  # noqa: F401  (the CLI module is not imported by the package)

    if not os.path.abspath(jumpcurve.__file__).startswith(src + os.sep):
        raise SystemExit(f"jumpcurve was imported from {jumpcurve.__file__}, not {src}")
    return jumpcurve


class Client:
    """Sends requests one after another and keeps what the figures need."""

    def __init__(self, requests):
        self.requests = requests
        self.tail_pct = tail_percentile(len(requests))
        self.attempted = 0
        self.failures = []

    def send(self, index, request, runner=None):
        """Send one request; return its latency in seconds and its outcome (None if it failed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = runner(index, request.call) if runner else request.call()
        except Exception as exc:  # a failed request is counted, not fatal
            self.failures.append(f"{request.kind}: raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        latency = time.perf_counter() - start
        try:
            if request.first is None:
                request.check(result)
            outcome = request.summarize(result)
            if request.first is None:
                request.first = outcome
            elif outcome.fingerprint != request.first.fingerprint:
                raise ValueError("result differs from the first run of the same request")
        except Exception as exc:
            self.failures.append(f"{request.kind}: check failed: {exc}")
            return latency, None
        return latency, outcome

    def run_pass(self, runner=None):
        """Send the request set once between two timings of the reference loop.

        Returns the pass's latencies and time to accuracy; the host speed
        during the pass is read as the mean of the two reference times.
        """
        before = reference_seconds()
        latencies, accuracy = [], []
        for index, request in enumerate(self.requests):
            latency, outcome = self.send(index, request, runner)
            latencies.append(latency)
            if outcome is not None:
                accuracy.append((latency, outcome.std_error))
        # kept as 8-byte doubles: a run holds every latency until it ends
        return {"reference_s": 0.5 * (before + reference_seconds()),
                "latencies": array("d", latencies),
                "time_to_accuracy_s": time_to_accuracy(accuracy)}

    def run_for(self, seconds, runner=None, min_passes=2):
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < min_passes or time.perf_counter() < deadline:
            passes.append(self.run_pass(runner))
        return passes


def figures(passes, tail_pct, scale):
    """A run's figures with pass ``i``'s times multiplied by ``scale[i]``.

    Throughput, p50 and time to accuracy are per pass, reduced to the median
    over the passes; the tail is taken over the latencies of all passes pooled.
    """
    per_pass = []
    pooled = []
    for p, k in zip(passes, scale):
        latencies = [k * latency for latency in p["latencies"]]
        pooled += latencies
        per_pass.append({
            "throughput_rps": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * median(latencies),
            # linear in the latencies, so it scales with them
            "time_to_accuracy_s": k * p["time_to_accuracy_s"],
        })
    result = {name: median([f[name] for f in per_pass]) for name in per_pass[0]}
    result["latency_tail_ms"] = 1e3 * percentile(pooled, tail_pct)
    return result, samples_beyond(pooled, tail_pct)


def summarize(passes, tail_pct):
    """A run's figures scaled to the reference host speed, and for the record the raw ones."""
    scaled, beyond = figures(passes, tail_pct, [NOMINAL_S / p["reference_s"] for p in passes])
    raw, _ = figures(passes, tail_pct, [1.0] * len(passes))
    raw["reference_s"] = median([p["reference_s"] for p in passes])
    return scaled, raw, beyond


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jc = import_program()
    from workloads import BUILDERS

    os.makedirs(args.workdir, exist_ok=True)
    requests = BUILDERS[args.workload](jc, args.seed, args.workdir)
    # set-up ends here; its CPU time (user + system) goes with the line
    print(f"READY {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    client = Client(requests)
    client.run_pass()  # warm-up: fills caches and fully checks every first result
    gc.collect()
    report = {"requests_per_pass": len(requests),
              "tail_percentile": round(client.tail_pct, 3)}
    if args.trace == 0:
        passes = client.run_for(args.seconds, min_passes=max(2, tail_pool_passes(len(requests))))
        # read before summarizing, which copies the latencies
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scaled, raw, beyond = summarize(passes, client.tail_pct)
        report.update(scaled, raw=raw, passes=len(passes), tail_samples_beyond=beyond)
    else:
        from layers import layer_metrics
        from tracer import Tracer

        untraced = client.run_for(args.seconds / 2)
        tracer = Tracer()
        executed = []  # the request behind each traced request id

        def traced_send(index, call):
            executed.append(requests[index])
            return tracer.run_request(len(executed) - 1, call)

        tracer.install()
        try:
            traced = client.run_for(args.seconds / 2, runner=traced_send, min_passes=1)
        finally:
            tracer.uninstall()
        plain_rps = summarize(untraced, client.tail_pct)[0]["throughput_rps"]
        traced_rps = summarize(traced, client.tail_pct)[0]["throughput_rps"]
        report["tracing"] = {
            "untraced_throughput_rps": plain_rps,
            "traced_throughput_rps": traced_rps,
            "slowdown": plain_rps / traced_rps,
            "spans_per_request": (len(tracer) - len(executed)) / len(executed),
        }
        report["per_layer"], report["accounting"] = layer_metrics(tracer, executed)
        report["spans"] = len(tracer)
        if args.spans:
            tracer.save(args.spans)
    report["attempted"] = client.attempted
    report["failed"] = len(client.failures)
    report["failures"] = client.failures[:20]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
