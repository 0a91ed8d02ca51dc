"""Spans around the calls into each tdesim module, installed from outside.

The package imports names into its modules with ``from .registers import
partial_trace``, so each module holds its own reference to a function.
Wrapping the defining module alone would miss those calls; instead every
reference in every ``tdesim`` module that is the original function is
rebound to the wrapper.  Classes are traced through ``__init__``.  The
numpy and scipy kernels are wrapped at their attributes and only counted,
so their time stays in the self time of the function that called them.

A layer's self time is its span's duration minus the duration of the
traced spans directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LAYERS = {
    "registers": ("PureState", "DensityOperator", "tensor", "permute_slots",
                  "partial_trace", "to_density", "relabel_cycles"),
    "dynamics": ("apply_gate", "displaced_expansion", "free_expansion",
                 "project", "measure_at_cycle", "ensemble_density",
                 "spectral_ensemble"),
    "channel": ("displaced_bell_channel",),
    "analytics": ("von_neumann_entropy", "trace_norm_distance", "purity",
                  "fig2_curves"),
    "scenarios": ("run_fig1", "run_reverse", "run_entropy_study",
                  "run_no_signaling", "run_proper_vs_improper",
                  "run_displaced_backend"),
    "dsl": ("parse_circuit", "run_program"),
    "cli": ("main",),
}

KERNELS = (("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh"),
           ("scipy.linalg", "svdvals"), ("numpy", "kron"))

TRACE_MARK = "BENCH_TRACE "   # prefix of the span line a traced CLI prints

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
KERNEL_NAMES = tuple(f"{m}.{f}" for m, f in KERNELS)


class Tracer:
    """Holds the wrappers and the per-span totals of one process.

    ``activate`` swaps the wrappers in and ``deactivate`` restores the
    original objects, so code run between the two (the benchmark's own
    checks) is neither traced nor slowed.
    """

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES + KERNEL_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.kron_out_bytes = 0
        self._stack = []
        self._swaps = []      # (owner, attribute, original, wrapper)
        self._build()

    def reset(self):
        for k in self.calls:
            self.calls[k] = 0
        for k in self.self_s:
            self.self_s[k] = 0.0
        self.kron_out_bytes = 0

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "kron_out_bytes": self.kron_out_bytes}

    def _span(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                calls[name] += 1
                self_s[name] += dt - inner
                if stack:
                    stack[-1] += dt
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _kron(self, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(a, b):
            calls["numpy.kron"] += 1
            out = fn(a, b)
            self.kron_out_bytes += out.nbytes
            return out
        return wrapper

    def _build(self):
        importlib.import_module("tdesim")
        pkg_modules = [m for n, m in sorted(sys.modules.items())
                       if n == "tdesim" or n.startswith("tdesim.")]
        for mod_name, names in LAYERS.items():
            mod = importlib.import_module(f"tdesim.{mod_name}")
            for name in names:
                original = getattr(mod, name)
                span = f"{mod_name}.{name}"
                if isinstance(original, type):
                    init = original.__init__
                    self._swaps.append((original, "__init__", init,
                                        self._span(span, init)))
                    continue
                wrapper = self._span(span, original)
                self._rebind(pkg_modules, original, wrapper)
        for mod_name, name in KERNELS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, name)
            full = f"{mod_name}.{name}"
            wrapper = self._kron(original) if name == "kron" else \
                self._count(full, original)
            self._swaps.append((mod, name, original, wrapper))
            self._rebind(pkg_modules, original, wrapper)

    def _rebind(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._swaps.append((mod, attr, original, wrapper))

    def activate(self):
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def deactivate(self):
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)
