"""Span tracing of epdifflab from outside the package.

The tracer replaces every public function of the traced modules at every
name that binds it (``epdiff`` and ``lagrangian`` import grid helpers with
``from .grid import ...``, so patching only the defining module would miss
their calls), plus a few methods and ``numpy.fft.fftn``/``ifftn``.  Each call
records a span (name, start, end, parent) in flat in-memory arrays; spans are
turned into per-layer metrics and written to disk only after the run.
"""

from __future__ import annotations

import functools
import inspect
import math
from array import array
from time import perf_counter

import numpy as np

TRACED_MODULES = ("grid", "operators", "symbols", "epdiff", "lagrangian", "conjugation",
                  "scenarios", "config")

# (module, class, attribute, span name, Tracer observer or None); classmethods
# keep their binding.
TRACED_METHODS = (
    ("operators", "FourierMultiplier", "build_elliptic", "operators.build_elliptic", None),
    ("conjugation", "ConvolutionKernel", "__init__", "conjugation.ConvolutionKernel.build",
     "_observe_kernel"),
    ("conjugation", "ConvolutionKernel", "apply", "conjugation.ConvolutionKernel.apply", None),
    ("lagrangian", "DiffeoChart", "displacement_at", "lagrangian.DiffeoChart.displacement_at",
     None),
    ("lagrangian", "DiffeoChart", "jacobian_at", "lagrangian.DiffeoChart.jacobian_at", None),
)

FFT_SPAN = "grid.fft"
NO_ERROR = -1


class Tracer:
    """Flat span store; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.error = array("i")  # index into ``names`` of the exception type, or -1
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.active = False
        self.fft_flop = 0.0
        self.fft_bytes = 0
        self.kernel_tuples = 0
        self.kernel_bytes = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` recording a span per call while the tracer is active.

        ``observe(args, kwargs, result)`` runs after a successful call, for
        counters that need the arguments or the result.
        """
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.error.append(NO_ERROR)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.error[idx] = tracer.intern(type(exc).__name__)
                raise
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        """Drop recorded spans and counters; wrappers stay installed."""
        for arr in (self.name_id, self.parent, self.error, self.start, self.end):
            del arr[:]
        self.fft_flop = 0.0
        self.fft_bytes = 0
        self.kernel_tuples = 0
        self.kernel_bytes = 0

    # --- observers -----------------------------------------------------------

    def _observe_fft(self, args, kwargs, result) -> None:
        data = args[0]
        axes = kwargs.get("axes")
        if axes is None:
            axes = range(data.ndim)
        n = math.prod(data.shape[a] for a in axes)
        batch = data.size // n if n else 0
        self.fft_flop += 5.0 * n * math.log2(n) * batch if n > 1 else 0.0
        self.fft_bytes += data.nbytes + result.nbytes

    def _observe_kernel(self, args, kwargs, result) -> None:
        kernel = args[0]
        for idx, an, lin in kernel.chunks:
            self.kernel_tuples += idx.shape[1]
            self.kernel_bytes += idx.nbytes + an.nbytes + lin.nbytes


def install(tracer: Tracer, package, extra_binders=()) -> None:
    """Patch the package's public functions, selected methods and numpy FFTs.

    A function is replaced under every name that binds it in the package, its
    modules and ``extra_binders`` (modules outside the package that imported
    it by name).
    """
    modules = {name: getattr(package, name) for name in TRACED_MODULES}
    binders = [package, *modules.values(), *extra_binders]
    for mod_name, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped = tracer.wrap(f"{mod_name}.{attr}", fn)
            for binder in binders:
                for bound_name, value in list(vars(binder).items()):
                    if value is fn:
                        setattr(binder, bound_name, wrapped)

    for mod_name, cls_name, attr, span, observer in TRACED_METHODS:
        cls = getattr(modules[mod_name], cls_name)
        raw = inspect.getattr_static(cls, attr)
        observe = getattr(tracer, observer) if observer else None
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, observe)))
        else:
            setattr(cls, attr, tracer.wrap(span, raw, observe))

    for attr in ("fftn", "ifftn"):
        setattr(np.fft, attr, tracer.wrap(FFT_SPAN, getattr(np.fft, attr), tracer._observe_fft))


class SpanTable:
    """Numpy view of recorded spans with per-name aggregates."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.error = np.frombuffer(tracer.error, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.duration = self.end - self.start
        child_time = np.zeros(len(self.duration))
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child_time

    def __len__(self) -> int:
        return len(self.duration)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def ms(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum() * 1e3)

    def self_ms(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum() * 1e3)

    def percentile_ms(self, name: str, q: float) -> float:
        d = self.duration[self.mask(name)]
        return float(np.percentile(d, q) * 1e3) if d.size else 0.0

    def errors(self, name: str, exc_name: str) -> int:
        if exc_name not in self.names:
            return 0
        return int((self.mask(name) & (self.error == self.names.index(exc_name))).sum())

    def module_self_ms(self, prefixes: tuple[str, ...]) -> float:
        """Self time of every span in the given modules, FFT spans excluded."""
        ids = [i for i, n in enumerate(self.names)
               if n != FFT_SPAN and n.split(".", 1)[0] in prefixes]
        return float(self.self_time[np.isin(self.name_id, ids)].sum() * 1e3)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` that run (at any depth) inside an ``ancestor`` span."""
        target = self.mask(ancestor)
        inside = np.zeros(len(self), dtype=bool)
        up = self.parent.copy()
        while np.any(up >= 0):  # one pass per nesting level
            live = up >= 0
            inside[live] |= target[up[live]]
            up[live] = self.parent[up[live]]
        return int((inside & self.mask(name)).sum())

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=self.name_id, parent=self.parent,
            error=self.error, start=self.start, end=self.end,
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


CALLS_AND_MS = (
    "grid.dealiased_product", "grid.directional_derivative", "grid.fft",
    "operators.apply", "operators.apply_inverse", "symbols.check_ellipticity",
    "epdiff.euler_rhs", "epdiff.cfl_limit", "epdiff.sup_velocity_gradient", "epdiff.diagnostics",
    "lagrangian.spray_rhs", "lagrangian.spray_at_identity", "lagrangian.invert",
    "lagrangian.compose", "conjugation.ConvolutionKernel.apply", "conjugation.apply_An_recursive",
)
MS_ONLY = (
    "operators.build_elliptic", "symbols.check_order_estimate", "symbols.check_strong_ellipticity",
    "symbols.sqrt_symbol", "lagrangian.lagrangian_energy", "conjugation.estimate_Cn",
    "conjugation.verify_sn_identity", "config.load_config",
)
MODULE_LAYERS = {
    "grid": ("grid",), "operators": ("operators",), "symbols": ("symbols",),
    "epdiff": ("epdiff",), "lagrangian": ("lagrangian",), "conjugation": ("conjugation",),
    "scenarios": ("scenarios", "config"),
}


def layer_metrics(spans: SpanTable, tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repeat: ``name -> (value, unit)``."""
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_MS:
        out[f"{name}.calls"] = (spans.calls(name), "count")
        out[f"{name}.ms"] = (spans.ms(name), "ms")
    for name in MS_ONLY:
        out[f"{name}.ms"] = (spans.ms(name), "ms")
    for layer, prefixes in MODULE_LAYERS.items():
        out[f"{layer}.self_ms"] = (spans.module_self_ms(prefixes), "ms")

    out["grid.dealiased_product.us_p50"] = (
        spans.percentile_ms("grid.dealiased_product", 50) * 1e3, "us")
    out["grid.fft.gflop_computed"] = (tracer.fft_flop / 1e9, "GFLOP")
    out["grid.fft.mb_computed"] = (tracer.fft_bytes / 1e6, "MB")
    rhs_calls = spans.calls("epdiff.euler_rhs")
    out["grid.fft_per_rhs"] = (
        _ratio(spans.calls_under(FFT_SPAN, "epdiff.euler_rhs"), rhs_calls), "count")

    out["epdiff.euler_rhs.ms_p50"] = (spans.percentile_ms("epdiff.euler_rhs", 50), "ms")
    out["epdiff.euler_rhs.ms_p99"] = (spans.percentile_ms("epdiff.euler_rhs", 99), "ms")
    steps = spans.calls("epdiff.step_rk4")
    rejects = spans.errors("epdiff.step_rk4", "CFLError")
    out["epdiff.step_rk4.calls"] = (steps, "count")
    out["epdiff.step_rk4.ms_p50"] = (spans.percentile_ms("epdiff.step_rk4", 50), "ms")
    out["epdiff.step_rk4.ms_p99"] = (spans.percentile_ms("epdiff.step_rk4", 99), "ms")
    out["epdiff.step_rk4.cfl_rejects"] = (rejects, "count")
    out["epdiff.step_rk4.accept_ratio"] = (_ratio(steps - rejects, steps), "ratio")
    out["epdiff.rhs_per_step"] = (_ratio(rhs_calls, steps - rejects), "count")
    out["epdiff.integrate.self_ms"] = (spans.self_ms("epdiff.integrate"), "ms")

    out["lagrangian.invert.residual_evals_per_call"] = (_ratio(
        spans.calls_under("lagrangian.DiffeoChart.displacement_at", "lagrangian.invert"),
        spans.calls("lagrangian.invert")), "count")

    out["conjugation.ConvolutionKernel.build_ms"] = (
        spans.ms("conjugation.ConvolutionKernel.build"), "ms")
    out["conjugation.ConvolutionKernel.tuples"] = (tracer.kernel_tuples, "count")
    out["conjugation.ConvolutionKernel.mb_computed"] = (tracer.kernel_bytes / 1e6, "MB")
    out["trace.spans"] = (len(spans), "count")
    return out


# Metrics that must repeat exactly between traced repeats and between runs.
def count_metrics(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    return {k: v for k, (v, unit) in metrics.items()
            if unit in ("count", "ratio", "GFLOP", "MB")}
