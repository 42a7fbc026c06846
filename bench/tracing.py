"""Run-time span tracing of permkit's public functions, for traced benchmark runs.

`Tracer.install` wraps the traced functions of each permkit layer module and
rebinds every name in every loaded ``permkit.*`` module (and every
module-level dict, such as ``cli.PLAIN_ALGOS``) that refers to one of them,
so names imported by value are traced too.  `Tracer.close` puts every
original object back.  permkit's source files are never modified.

A span is ``[layer, name, start, end, parent, op, note, noted]``:
``parent`` is the enclosing span (or ``None``), ``op`` the benchmark op id,
and ``note`` the work counts read off the call's arguments and result
*after* the span has ended, so that counting never adds to a span's
duration.  The counting still runs inside the enclosing spans and the op,
so ``noted`` is its ``(start, end)`` interval: self times subtract it like a
child span, and `Tracer.note_s` and `Tracer.note_cpu_s` sum its wall and CPU
time so that op timings can subtract it.
Spans are only recorded inside `Tracer.op`; checks and input generation are
not traced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
from time import perf_counter, thread_time

import numpy as np

LAYERS = ("permanents", "series", "identities", "estimators", "bosonic", "combinatorics", "cli")

# Multi-index helpers that run several times inside every amplitude: a span
# costs more than the call itself, so they stay untraced.
UNTRACED = {"weight", "factorial_product", "as_multi_index"}

SERIES_METHODS = {
    "__mul__": "mul",
    "inverse": "inverse",
    "sqrt_inverse": "sqrt_inverse",
    "exp": "exp",
    "log": "log",
    "power": "power",
}

# Kernels whose float path is compared against their exact result.
FLOAT_CHECKED = {"naive", "ryser", "glynn"}

ERROR = "error"


def _short_name(layer: str, name: str) -> str:
    prefix = "permanent_"
    if layer == "permanents" and name.startswith(prefix):
        return name[len(prefix):]
    return name


def _nonzero(series) -> int:
    return sum(1 for c in series.coeffs if c)


def _note_permanent(name, fn):
    from permkit.numerics import scaled_error

    def note(args, kwargs, result):
        exact = not isinstance(result.value, complex)
        err = None
        rows = args[0] if args else None
        if exact and name in FLOAT_CHECKED and isinstance(rows, (list, tuple)) and len(rows) > 0:
            floats = np.array([[complex(v) for v in row] for row in rows], dtype=np.complex128)
            err = scaled_error(fn(floats).value, complex(result.value))
        return {"exact": exact, "terms": result.term_count, "float_err": err}

    return note


def _note_series(name):
    def note(args, kwargs, result):
        out = {"ring": result.ring, "nonzero": _nonzero(result), "stored": len(result.coeffs)}
        if name == "mul":
            out["pairs"] = _nonzero(args[0]) * _nonzero(args[1])
        return out

    return note


def _note_entry(args, kwargs, reports):
    return {
        "coeffs": sum(r.num_coefficients_checked for r in reports),
        "failed": sum(1 for r in reports if not r.passed),
    }


def _note_estimate(args, kwargs, report):
    return {"f": report.f_choice, "samples": report.samples}


def _note_sample(args, kwargs, draws):
    return {"draws": len(draws)}


def _note_pipeline(args, kwargs, report):
    return {"kept": report.kept_samples, "drawn": report.total_samples}


def _note_for(layer: str, name: str, fn):
    if layer == "permanents":
        return _note_permanent(name, fn)
    if layer == "series" and name == "det_series":
        return _note_series(name)
    if layer == "estimators" and name == "estimate_permanent":
        return _note_estimate
    if layer == "bosonic" and name == "sample":
        return _note_sample
    if layer == "bosonic" and name == "rejection_sampling_pipeline":
        return _note_pipeline
    return None


class Tracer:
    """Records spans of permkit calls made inside `op` blocks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.recording = False
        self.op_id = None
        self._local = threading.local()
        self._main_stack: list = []
        self._main_thread = threading.main_thread()
        self._undo: list = []
        self.wrapped: dict[str, object] = {}
        self.note_s = 0.0  # seconds spent counting work after spans ended
        self.note_cpu_s = 0.0  # CPU seconds of that counting

    # -- recording --------------------------------------------------------
    def _stack(self) -> list:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A pool thread's outermost span belongs to the main thread's open span.
        main = self._main_stack
        return main[-1] if main else None

    @contextlib.contextmanager
    def op(self, op_id):
        self.op_id = op_id
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    def _wrap(self, layer: str, name: str, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [layer, name, 0.0, 0.0, tracer._parent(stack), tracer.op_id, None, None]
            tracer.spans.append(span)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2], span[3] = start, perf_counter()
                stack.pop()
                span[6] = ERROR
                raise
            span[2], span[3] = start, perf_counter()
            stack.pop()
            if note is not None:
                noted, noted_cpu = perf_counter(), thread_time()
                span[6] = note(args, kwargs, result)
                span[7] = (noted, perf_counter())
                tracer.note_s += span[7][1] - noted
                tracer.note_cpu_s += thread_time() - noted_cpu
            return result

        return traced

    # -- installing and restoring ---------------------------------------------
    def _set(self, target, key, value, is_item=False) -> None:
        if is_item:
            self._undo.append((target, key, target[key], True))
            target[key] = value
        else:
            self._undo.append((target, key, target.__dict__[key], False))
            setattr(target, key, value)

    def install(self) -> None:
        """Wrap the traced functions and rebind every permkit name that refers to them."""
        replacement: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"permkit.{layer}")
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                short = _short_name(layer, name)
                wrapper = self._wrap(layer, short, obj, _note_for(layer, short, obj))
                replacement[id(obj)] = (obj, wrapper)
                self.wrapped[f"{mod.__name__}.{name}"] = obj

        series_cls = importlib.import_module("permkit.series").TruncatedSeries
        for attr, short in SERIES_METHODS.items():
            orig = series_cls.__dict__[attr]
            self.wrapped[f"permkit.series.TruncatedSeries.{attr}"] = orig
            self._set(series_cls, attr, self._wrap("series", short, orig, _note_series(short)))

        registry = importlib.import_module("permkit.identities").IDENTITY_REGISTRY
        for entry, fn in list(registry.items()):
            self.wrapped[f"permkit.identities.IDENTITY_REGISTRY[{entry}]"] = fn
            self._set(registry, entry, self._wrap("identities", entry, fn, _note_entry), is_item=True)

        for modname, mod in list(sys.modules.items()):
            if modname != "permkit" and not modname.startswith("permkit."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
                elif isinstance(obj, dict) and obj is not registry and not name.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = replacement.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._set(obj, key, hit[1], is_item=True)

    def close(self) -> None:
        """Put back every original object replaced by `install`."""
        while self._undo:
            target, key, orig, is_item = self._undo.pop()
            if is_item:
                target[key] = orig
            else:
                setattr(target, key, orig)

    # -- output ---------------------------------------------------------------
    def write(self, path) -> None:
        """Write the spans as JSON lines: layer, name, start, end, parent index, op id."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index[id(s[4])] if s[4] is not None else None
                fh.write(json.dumps([s[0], s[1], s[2], s[3], parent, s[5]]) + "\n")

