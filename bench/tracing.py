"""Span tracing around the calls into each dickeprep layer, from outside the program.

``Tracer.install`` replaces every callable named in a layer module's
``__all__`` (and the RecordStore methods) with a wrapper, and rebinds each
alias another dickeprep module imported by name (``cli.c_profile``,
``symstate.spectrum_value``, ...) to the same wrapper, so calls inside the
program are seen too.  ``uninstall`` puts the originals back.

Every wrapped call counts towards its layer's ``calls`` and work counters.
A call that enters a layer from outside it (from the benchmark or from
another layer) also records a span (layer, name, start, end, parent, op id)
in memory; a call within the layer it is already in records none, which
changes no layer's self time and keeps the span list small (CSV rendering
alone makes close to a million ``csvio.fmt`` calls per cycle).  Spans are
written out only at the end.

Self time of a span is its duration minus the durations of its direct
children; everything runs in one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import dickeprep
from dickeprep import grover, search, symstate

LAYER_NAMES = ("krawtchouk", "symfunc", "symstate", "grover", "fullsim", "search", "csvio", "cli")
# by module path: the package re-exports a function named krawtchouk
LAYERS = {name: importlib.import_module(f"dickeprep.{name}") for name in LAYER_NAMES}
RECORD_STORE_METHODS = ("append", "records", "index")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _grover_steps(args, kwargs, result):
    t = _arg(args, kwargs, 2, "t") if len(args) > 2 or "t" in kwargs else None
    # amplify(t=None) runs the recommended count
    return grover.plan_amplification(args[0], args[1]).t if t is None else t


def _dense_pass(args, kwargs, result):
    return 1 << args[0].n  # one sweep over the 2^n amplitudes


# Work counters: (layer, function name) -> (counter name, amount from the call).
# An amount depends only on the arguments and result, so counts repeat exactly.
COUNTERS = {
    ("krawtchouk", "column"): ("column_entries", lambda a, k, r: _arg(a, k, 1, "n") + 1),
    ("symstate", "biased_amplitude_table"): (
        "table_cells",
        lambda a, k, r: (_arg(a, k, 0, "n") + 1) * np.atleast_1d(_arg(a, k, 2, "rhos")).shape[0],
    ),
    ("symstate", "parity_sample"): ("parity_trials", lambda a, k, r: _arg(a, k, 1, "trials")),
    ("symstate", "parity_measure"): ("parity_trials", lambda a, k, r: 1),
    ("grover", "amplify"): ("steps", _grover_steps),
    ("fullsim", "apply_layer"): ("amplitude_passes", _dense_pass),
    ("fullsim", "apply_phase_oracle"): ("amplitude_passes", _dense_pass),
    ("fullsim", "flip_weight"): ("amplitude_passes", _dense_pass),
    ("fullsim", "diffuse_about"): ("amplitude_passes", _dense_pass),
    ("fullsim", "weight_profile"): ("amplitude_passes", _dense_pass),
    ("search", "exhaustive_search"): (
        "functions_scanned", lambda a, k, r: 1 << (_arg(a, k, 0, "n") + 1)),
    ("search", "optimize_r"): ("functions_scanned", lambda a, k, r: 1),
    ("csvio", "render_csv"): ("bytes", lambda a, k, r: len(r.encode("utf-8"))),
}
COUNTER_NAMES = sorted({f"{layer}.{name}" for (layer, _), (name, _) in COUNTERS.items()})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (layer, name, start, end, parent index, op id)
        self.calls: Counter[str] = Counter()  # layer -> wrapped calls
        self.counters: Counter[str] = Counter()  # "layer.counter" -> amount
        self.states: list = []  # SymmetricStates returned by symstate, for the norm residual
        self.op_id = -1
        self._stack: list[tuple[int, str]] = []  # open spans: (index, layer)
        self._enabled = False
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in LAYERS.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if callable(fn) and not inspect.isclass(fn):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for name in RECORD_STORE_METHODS:
            fn = getattr(search.RecordStore, name)
            self._set(search.RecordStore, name, self._wrap("search", f"RecordStore.{name}", fn))
        modules = [dickeprep] + [m for key, m in sys.modules.items() if key.startswith("dickeprep.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        counter = COUNTERS.get((layer, name))
        tracer = self

        def enter() -> int | None:
            """Open a span unless the call stays inside the current layer."""
            tracer.calls[layer] += 1
            if tracer._stack and tracer._stack[-1][1] == layer:
                return None
            idx = len(tracer.spans)
            tracer.spans.append((tracer._stack[-1][0] if tracer._stack else -1, tracer.op_id))
            tracer._stack.append((idx, layer))
            return idx

        def leave(idx: int | None, start: float) -> None:
            if idx is None:
                return
            end = time.perf_counter()
            tracer._stack.pop()
            parent, op_id = tracer.spans[idx]
            tracer.spans[idx] = (layer, name, start, end, parent, op_id)

        def record(args, kwargs, result) -> None:
            if counter is not None:
                cname, amount = counter
                tracer._enabled = False  # an amount may call the program itself
                try:
                    tracer.counters[f"{layer}.{cname}"] += amount(args, kwargs, result)
                finally:
                    tracer._enabled = True
            if layer == "symstate" and isinstance(result, symstate.SymmetricState):
                tracer.states.append(result)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if not tracer._enabled:
                    yield from fn(*args, **kwargs)
                    return
                idx = enter()
                start = time.perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    leave(idx, start)
        else:
            def wrapper(*args, **kwargs):
                if not tracer._enabled:
                    return fn(*args, **kwargs)
                idx = enter()
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(idx, start)
                record(args, kwargs, result)
                return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording -----------------------------------------------------------

    @contextmanager
    def active(self, op_id: int):
        """Record the calls made inside the block, tagged with op_id."""
        self.op_id = op_id
        self._enabled = True
        try:
            yield
        finally:
            self._enabled = False

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """layer -> self seconds."""
        child_time = [0.0] * len(self.spans)
        for layer, name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (layer, name, start, end, parent, op) in enumerate(self.spans):
            out[layer] += (end - start) - child_time[i]
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, op, layer, name, start, end]) + "\n")
