"""Per-layer figures computed from a traced run's spans.

Counts and times are per traced request unless the name says otherwise
(``_us``/``_ms`` of a named function are the mean duration of one call,
children included).  A layer's ``self_ms`` excludes time in spans of any
other layer, so the eight layers' self times plus the benchmark's own
(``bench``) add up to the traced request time.
"""

from __future__ import annotations

from collections import defaultdict

from stats import self_times
from tracer import LAYERS, ROOT

FOURIER = ("options.fourier_call_price", "options.fourier_call_price_at")


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, executed):
    """``executed[i]`` is the request that ran with request id ``i``."""
    count = len(tracer)
    names = [tracer.names[nid] for nid in tracer.name]
    layer = [tracer.layer_of[nid] for nid in tracer.name]
    dur = [tracer.end[i] - tracer.start[i] for i in range(count)]
    own = self_times(list(zip(tracer.start, tracer.end, tracer.parent)))
    by_name = defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)
    n_req = len(executed)

    def request_of(i):
        return executed[tracer.request[i]]

    def mean_duration(name, scale, keep=lambda i: True):
        return scale * _mean([dur[i] for i in by_name[name] if keep(i)])

    def per_request(name):
        return len(by_name[name]) / n_req

    layer_self = defaultdict(float)
    for i in range(count):
        layer_self[layer[i]] += own[i]
    request_time = sum(dur[i] for i in by_name[ROOT])

    not_twin = lambda i: not request_of(i).meta.get("twin")  # noqa: E731
    twin_calls = [dur[i] for i in range(count)
                  if tracer.parent[i] >= 0 and names[tracer.parent[i]] == ROOT
                  and request_of(i).meta.get("twin")]
    calibrations = by_name["curves.calibrate_floor"]
    mc_spans = [i for name, spans in by_name.items() if name.startswith("simulation.mc_") for i in spans]
    exports = by_name["simulation.export_paths_csv"]
    prices = [i for name in FOURIER for i in by_name[name]]
    integrand = by_name["options.call_jump_exponent"]
    tail = [i for i in by_name["scipy.integrate.quad"]
            if tracer.parent[i] >= 0 and names[tracer.parent[i]] in FOURIER]
    cli_requests = [r for r in executed if r.meta.get("cli") and r.first is not None]
    export_sizes = [r.first.file_bytes["paths.csv"] for r in cli_requests if r.meta.get("export")]
    # (expected jumps per path per factor, path-factors) of each Monte Carlo request
    jump_counts = [(r.meta["jumps_per_path"], r.meta["n_paths"] * r.meta["n_factors"])
                   for r in executed if "jumps_per_path" in r.meta]

    metrics = {
        "model.validate_calls": per_request("model.validate"),
        "curves.bond_price_us": mean_duration("curves.bond_price", 1e6, not_twin),
        "curves.forward_rate_us": mean_duration("curves.forward_rate", 1e6, not_twin),
        "curves.calibrate_knot_us": 1e6 * (
            sum(dur[i] for i in calibrations) / sum(request_of(i).meta["knots"] for i in calibrations)
            if calibrations else 0.0),
        "curves.quadrature_twin_us": 1e6 * _mean(twin_calls),
        "multicurve.effective_spec_calls": per_request("multicurve.effective_spec"),
        "multicurve.libor_forward_us": mean_duration("multicurve.libor_forward", 1e6),
        "simulation.path_factor_us": 1e6 * (
            sum(dur[i] for i in mc_spans) / sum(tracer.size[i] for i in mc_spans)
            if mc_spans else 0.0),
        # computed from the inputs (alpha * T per factor), not measured; weighted
        # by path-factors like simulation.path_factor_us
        "simulation.jumps_per_path": (
            sum(j * w for j, w in jump_counts) / sum(w for _, w in jump_counts)
            if jump_counts else 0.0),
        "simulation.simulate_path_ms": mean_duration("simulation.simulate_path", 1e3),
        "simulation.export_rows_per_s": (
            sum(tracer.size[i] for i in exports) / sum(dur[i] for i in exports)
            if exports else 0.0),
        "simulation.export_bytes": _mean(export_sizes),
        "options.fourier_price_ms": mean_duration("options.fourier_call_price", 1e3),
        "options.fourier_price_at_ms": mean_duration("options.fourier_call_price_at", 1e3),
        "options.integrand_calls": len(integrand) / len(prices) if prices else 0.0,
        "options.integrand_points": (
            sum(tracer.size[i] for i in integrand) / len(prices) if prices else 0.0),
        "options.tail_quad_share": (
            sum(dur[i] for i in tail) / sum(dur[i] for i in prices) if prices else 0.0),
        "quadrature.gk_calls": per_request("quadrature.gauss_kronrod"),
        "quadrature.gk_ms": 1e3 * sum(dur[i] for i in by_name["quadrature.gauss_kronrod"]) / n_req,
        "quadrature.scipy_quad_calls": per_request("scipy.integrate.quad"),
        "quadrature.scipy_quad_ms": 1e3 * sum(dur[i] for i in by_name["scipy.integrate.quad"]) / n_req,
        "transforms.levy_density_ms": mean_duration("transforms.levy_density", 1e3),
        "transforms.char_fn_us": mean_duration("transforms.short_rate_char_fn", 1e6),
        "cli.bytes_written": _mean([r.first.bytes_written for r in cli_requests]),
    }
    for name in LAYERS:
        metrics[f"{name}.self_ms"] = 1e3 * layer_self[name] / n_req
        # an exception escapes a layer when the span that raised it was called from another layer
        metrics[f"{name}.errors"] = sum(
            1 for i in range(count)
            if tracer.error[i] and layer[i] == name
            and (tracer.parent[i] < 0 or layer[tracer.parent[i]] != name))
    accounting = {
        "traced_requests": n_req,
        "request_ms": 1e3 * request_time / n_req,
        "self_ms": {name: 1e3 * total / n_req for name, total in sorted(layer_self.items())},
        "covered_share": sum(layer_self.values()) / request_time if request_time else 0.0,
    }
    return metrics, accounting
