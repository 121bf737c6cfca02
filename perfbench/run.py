#!/usr/bin/env python3
"""jumpcurve benchmark.

    python3 perfbench/run.py --workload mc_pricing --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

Run from the root of a checkout.  One run measures one workload in a fresh
single-client worker process (``worker.py``) that imports ``jumpcurve``
from ``src/``.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer ones; the last line of standard output is the
JSON result, the line before it the run's metadata.  Set-up time is the
CPU time a fresh interpreter spends until its first request is ready, the
median over five of them (four set-up-only probes and the measuring worker
itself); the wall times are in the metadata.  The other times are scaled
to the reference host speed (see ``reference.py``); the record keeps the
unscaled ones.
``--all`` runs every workload both ways and prints each metric with its
unit.  Records and spans go to ``.bench_out/``; inputs are generated under
``.bench_tmp/`` and removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import median  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    MANIFEST = json.load(_handle)
WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]

SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170.0
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env():
    env = dict(os.environ)
    # one Monte Carlo worker thread (the library default); more only contend for the GIL
    env.pop("JUMPCURVE_THREADS", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(workload, seed, workdir, extra):
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", workdir, *extra]
    began = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    return proc, began


def wait_ready(proc, began, deadline):
    """(CPU seconds, wall seconds) from starting a worker's interpreter to its READY line."""
    readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
    if not readable:
        raise BenchError("worker set-up ran past the time limit")
    line = proc.stdout.readline()
    wall = time.perf_counter() - began
    words = line.split()
    if len(words) != 2 or words[0] != "READY":
        raise BenchError(f"worker did not become ready (got {line!r})")
    return float(words[1]), wall


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def measure(workload, seed, seconds, trace):
    """Run one workload once; return (result, metadata)."""
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = os.path.join(TMP_DIR, f"{workload}-{os.getpid()}")
    setups = []
    procs = []
    try:
        if not trace:
            for probe in range(SETUP_PROBES):
                proc, began = start_worker(workload, seed, os.path.join(run_dir, f"probe{probe}"),
                                           ["--setup-only"])
                procs.append(proc)
                setups.append(wait_ready(proc, began, deadline))
                finish(proc, deadline)
        spans = os.path.join(OUT_DIR, f"{workload}-spans.csv")
        proc, began = start_worker(workload, seed, os.path.join(run_dir, "main"),
                                   ["--seconds", str(seconds), "--trace", str(trace),
                                    "--spans", spans])
        procs.append(proc)
        setups.append(wait_ready(proc, began, deadline))
        report = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:  # another run is still using it
            pass

    if trace:
        metrics = {m["name"]: {"value": report["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in MANIFEST["per_layer"]}
    else:
        report["setup_s"] = median([cpu for cpu, _ in setups])
        metrics = {m["name"]: {"value": report[m["name"]], "unit": m["unit"]}
                   for m in MANIFEST["end_to_end"]}
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    metadata = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_info(),
        "failed_ratio": report["failed"] / report["attempted"],
        "failures": report["failures"],
        "requests_per_pass": report["requests_per_pass"],
    }
    if trace:
        metadata.update(tracing=report["tracing"], accounting=report["accounting"],
                        spans=report["spans"], spans_file=os.path.relpath(spans, ROOT))
    else:
        metadata.update(
            setup_cpu_s=[cpu for cpu, _ in setups], setup_wall_s=[wall for _, wall in setups],
            unscaled=report["raw"],
            **{k: report[k] for k in ("tail_percentile", "tail_samples_beyond", "passes")})
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"), "w") as handle:
        json.dump({"result": result, "metadata": metadata}, handle, indent=1)
    return result, metadata


def src_lines():
    total = 0
    src = os.path.join(ROOT, "src", "jumpcurve")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def host_info():
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True, env=worker_env()).stdout.split()
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
        "JUMPCURVE_THREADS": "unset (one Monte Carlo worker)",
        "src_lines": src_lines(),
    }


def run_all(seed, seconds):
    summary = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, metadata = measure(workload, seed, seconds, trace)
            summary.append({"result": result, "metadata": metadata})
            print(f"== {workload} (trace {trace}): attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                print(f"{workload:16s} {name:34s} {metric['value']:>16.6g} {metric['unit']}")
            if trace:
                print(f"{workload:16s} tracing slowdown {metadata['tracing']['slowdown']:.3f}x")
            else:
                print(f"{workload:16s} tail is p{metadata['tail_percentile']} "
                      f"({metadata['tail_samples_beyond']} samples beyond it in {metadata['passes']} "
                      f"passes of {metadata['requests_per_pass']} requests)")
    with open(os.path.join(OUT_DIR, "summary.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
    return all(item["result"]["correct"] for item in summary)


def main(argv=None):
    parser = argparse.ArgumentParser(description="jumpcurve benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both ways")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jumpcurve", "__init__.py")):
        print("error: no src/jumpcurve in this checkout", file=sys.stderr)
        return 2
    try:
        if args.all:
            return 0 if run_all(args.seed, args.seconds) else 1
        if args.workload is None:
            parser.error("--workload or --all is required")
        result, metadata = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"metadata": metadata}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
