"""Per-layer tracing of qdcavity from outside the package.

install() replaces the public functions of each qdcavity module with
wrappers that record self time (the span's duration minus the spans of
traced calls made inside it) and call counts.  A function is replaced
in every qdcavity module namespace that binds it, so calls that go
through `from .x import name` are traced too.  Only the benchmark's
child process installs it; the package itself is never edited.
"""

import functools
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

_FAILED = object()

# (module, attribute, span key).  The key is the layer metric prefix:
# key "x.y" yields "x.y_s" (self time) and "x.y_calls".
FUNCTIONS = (
    ("algebra", "choose_cutoff", "algebra.field"),
    ("algebra", "coherent_weights", "algebra.field"),
    ("closedform", "amplitude_table", "closedform.amplitude_table"),
    ("closedform", "bloch_from_table", "closedform.bloch_from_table"),
    ("exact", "reduced_atomic_state", "exact.reduce"),
    ("states", "compose", "states.compose"),
    ("states", "decompose", "states.decompose"),
    ("states", "negativity", "states.negativity"),
    ("states", "purity", "states.scalar_metrics"),
    ("states", "entanglement_degree", "states.scalar_metrics"),
    ("teleport", "circuit_teleport", "teleport.circuit"),
    ("teleport", "closed_form_bob", "teleport.closed_form_bob"),
    ("teleport", "fidelity_paper", "teleport.fidelity"),
    ("teleport", "fidelity_overlap", "teleport.fidelity"),
    ("teleport", "average_fidelity", "teleport.fidelity"),
    ("cli", "fmt", "cli.format"),
    ("cli", "fmt_complex", "cli.format"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Self time and call counts per span key, plus event counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.largest_build = None  # (spec, cutoff)
        self.build = None  # the unwrapped Propagator constructor
        self.missing = []
        self.keys = set()  # span keys known before any call
        # "validate" while the validate subcommand runs, else "sweep".
        self.op = "sweep"
        self._stack = []

    def wrap(self, fn, key):
        """Wrap fn in a span.  key is a string, or a function of the
        result that names the span (the fallback on failure is the
        function's own name)."""
        if isinstance(key, str):
            self.keys.add(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = perf_counter()
            result = _FAILED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                inner = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                if result is _FAILED:
                    self.counts["failed_calls"] += 1
                    name = key if isinstance(key, str) else fn.__name__
                else:
                    name = key if isinstance(key, str) else key(result)
                self.self_s[name] += elapsed - inner
                self.calls[name] += 1
                if result is not _FAILED:
                    self._observe(name, result)

        return traced

    def _observe(self, name, result):
        if name == "closedform.amplitude_table":
            self.counts["manifold_points"] += result.c.shape[1]
            self.counts["table_bytes"] += result.c.nbytes
        elif name == "exact.physicality":
            if result.warnings:
                self.counts["positivity_warnings"] += 1
            if self.op == "sweep":
                self.counts["sweep_physicality_checks"] += 1

    def record_build(self, init):
        """Keep the arguments of the pass's largest Propagator build, so
        that build_peak_mb can build it again after the timed run."""
        def constructor(obj, spec, cutoff):
            init(obj, spec, cutoff)
            if self.largest_build is None or cutoff > self.largest_build[1]:
                self.largest_build = (spec, cutoff)
        return constructor

    def build_peak_mb(self):
        """tracemalloc peak of building the pass's largest Propagator
        again with the unwrapped constructor.  Call it after the timed
        run: tracemalloc slows every allocation, so it stays out of
        exact.build_s and of every other span."""
        if self.largest_build is None:
            return 0.0
        tracemalloc.start()
        try:
            self.build(*self.largest_build)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return peak / 2**20

    def metrics(self, grid_points):
        """Layer metrics of one pass; grid_points counts the (q, t)
        points the simulate/teleport sweeps evaluated."""
        out = {}
        for name in self.keys | set(self.self_s):
            out[f"{name}_s"] = self.self_s[name]
            out[f"{name}_calls"] = self.calls[name]
        out["cli.self_s"] = out.pop("cli.main_s", 0.0)
        out["exact.builds"] = out.pop("exact.build_calls", 0)
        out["exact.physicality_checks"] = out.pop("exact.physicality_calls", 0)
        out["exact.positivity_warnings"] = self.counts["positivity_warnings"]
        checks = self.counts["sweep_physicality_checks"]
        out["exact.physicality_checks_per_point"] = (
            checks / grid_points if grid_points else 0.0)
        out["closedform.manifold_points"] = self.counts["manifold_points"]
        out["closedform.table_bytes"] = self.counts["table_bytes"]
        out["trace.failed_calls"] = self.counts["failed_calls"]
        return out


def _validate_key(result):
    if isinstance(result, list):  # entanglement_minima_info's INFO lines
        return "validate.entanglement-minima"
    return f"validate.{result.name}"


def install() -> Tracer:
    """Wrap the qdcavity layers in spans of a new Tracer."""
    import qdcavity
    from qdcavity import cli, exact, validate  # noqa: F401  (loads all layers)

    tracer = Tracer()
    modules = [module for name, module in sys.modules.items()
               if name == "qdcavity" or name.startswith("qdcavity.")]

    def rebind(original, replacement):
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)

    targets = list(FUNCTIONS)
    targets += [("validate", name, _validate_key) for name in vars(validate)
                if name.startswith("check_")]
    targets.append(("validate", "entanglement_minima_info", _validate_key))
    for module_name, attr, key in targets:
        module = getattr(qdcavity, module_name)
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        rebind(original, tracer.wrap(original, key))

    density = exact.DensityMatrix
    from_matrix = density.__dict__["from_matrix"].__func__
    density.from_matrix = classmethod(
        tracer.wrap(from_matrix, "exact.physicality"))
    propagator = exact.Propagator
    init = propagator.__init__
    tracer.build = lambda spec, cutoff: init(
        propagator.__new__(propagator), spec, cutoff)
    propagator.__init__ = tracer.record_build(tracer.wrap(init, "exact.build"))
    propagator.evolve = tracer.wrap(propagator.evolve, "exact.evolve")
    return tracer
