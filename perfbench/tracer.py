"""Span recording around the program's layer boundaries, installed from outside.

The tracer replaces functions in the ``jumpcurve`` namespaces with timing
wrappers; ``src/`` is never edited.  Spans sit at layer boundaries:

* every public function of every module, as the package exports it -- the
  calls the benchmark makes;
* every name a module imported from another module
  (``jumpcurve.options.gauss_kronrod``, ``jumpcurve.curves.require_valid``),
  because a call through that name crosses from one layer into another;
* ``scipy.integrate.quad``, counted in the ``quadrature`` layer as the
  program's second integrator;
* the few calls inside one module that a per-layer count needs
  (:data:`INNER`).

Calls from a module to its own functions are otherwise left alone, and so
are methods (``floor.integral``, ``measure.sample_jump``): they run in hot
loops, where a span's cost would swamp the work it times, so their time
counts as the calling layer's own.

A span is ``(name, start, end, parent, request)`` plus an error flag and an
optional work size.  Spans are recorded only while a request is running and
are kept in typed arrays in memory until :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("model", "curves", "multicurve", "transforms",
          "simulation", "options", "quadrature", "cli")
ROOT = "bench.request"
# same-module calls that are wrapped anyway: validate behind require_valid,
# effective_spec inside every dual-curve call, the Fourier integrand's jump
# exponent, and the CLI's entry point
INNER = frozenset({"model.validate", "multicurve.effective_spec",
                   "options.call_jump_exponent", "cli.main"})


def _n_paths_times_factors(fn):
    signature = inspect.signature(fn)

    def size(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        return int(bound["n_paths"]) * bound["spec"].n_factors

    return size


def _y_points(args, kwargs):
    y = args[2] if len(args) > 2 else kwargs["y"]
    return getattr(y, "size", 1)


def _export_rows(args, kwargs):
    paths = args[0] if args else kwargs["paths"]
    return sum(p.grid.size * p.factors.shape[0] for p in paths)


def _size_hook(name, fn):
    """Work-size recorder for the spans whose work is counted per call."""
    if name.startswith("simulation.mc_"):
        return _n_paths_times_factors(fn)
    if name == "options.call_jump_exponent":
        return _y_points
    if name == "simulation.export_paths_csv":
        return _export_rows
    return None


class Tracer:
    """Records spans in memory; :meth:`install` wraps the program, :meth:`uninstall` restores it."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.size = array("q")
        self.error = array("b")
        self._request = [-1]  # id of the running request; -1 records nothing
        self._stack = [-1]
        self._wrappers = {}
        self._patches = []
        self._root = self._recorder(lambda call: call(), self.name_id(ROOT, "bench"))

    def __len__(self):
        return len(self.name)

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def _recorder(self, fn, nid, size_of=None):
        """A wrapper of ``fn`` that records one span per call made inside a request."""
        add_name, add_parent, add_request = self.name.append, self.parent.append, self.request.append
        add_size, add_error, add_end = self.size.append, self.error.append, self.end.append
        add_start, end, error = self.start.append, self.end, self.error
        stack, current, clock = self._stack, self._request, time.perf_counter

        def traced(*args, **kwargs):
            request = current[0]
            if request < 0:
                return fn(*args, **kwargs)
            idx = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_request(request)
            add_size(size_of(args, kwargs) if size_of else 0)
            add_error(0)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def wrap(self, fn, name: str, layer: str):
        """One shared wrapper per function object, however many names it has."""
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            wrapper = functools.wraps(fn)(
                self._recorder(fn, self.name_id(name, layer), _size_hook(name, fn)))
            self._wrappers[id(fn)] = wrapper
        return wrapper

    def run_request(self, request_id: int, call):
        """Run one request under a root span; the root's self time is the benchmark's own."""
        self._request[0] = request_id
        try:
            return self._root(call)
        finally:
            self._request[0] = -1

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        package = importlib.import_module("jumpcurve")
        for layer in LAYERS:
            module = importlib.import_module(f"jumpcurve.{layer}")
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith("jumpcurve."):
                    home = obj.__module__.rsplit(".", 1)[1]
                    name = f"{home}.{obj.__name__}"
                    if home != layer or name in INNER:
                        self._patch(module, attr, self.wrap(obj, name, home))
        for attr, obj in list(vars(package).items()):
            if inspect.isfunction(obj) and obj.__module__.startswith("jumpcurve."):
                home = obj.__module__.rsplit(".", 1)[1]
                self._patch(package, attr, self.wrap(obj, f"{home}.{obj.__name__}", home))
        integrate = importlib.import_module("scipy.integrate")
        self._patch(integrate, "quad", self.wrap(integrate.quad, "scipy.integrate.quad", "quadrature"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path):
        """Write every span as one CSV row: name, layer, start, end, parent, request, size, error."""
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("index,name,layer,start,end,parent,request,size,error\n")
            for i in range(len(self.name)):
                nid = self.name[i]
                handle.write(
                    f"{i},{self.names[nid]},{self.layer_of[nid]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.request[i]},"
                    f"{self.size[i]},{self.error[i]}\n"
                )
