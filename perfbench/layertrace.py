"""Spans around belllab's public functions, installed from outside the package.

A name is looked up in the globals of the module that calls it, so a wrapper
is installed in every belllab module whose globals hold the function: ``bell``
calls its own imported ``spin_operator``, ``tensor_product`` and
``expectation``, ``correlations`` its own ``spin_operator`` and
``tensor_product``, and ``DensityMatrix`` reaches ``hermitian_eigen`` through
the globals of ``qlinalg``.  Patching the defining module alone misses most
calls.

Each span records its layer, start, end, parent span and command index.  Spans
stay in memory until the run ends; self time is a span's duration minus the
time its child spans cover.  Spans from threads other than the caller's get no
parent.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

TARGETS = {
    "qlinalg": ("hermitian_eigen", "spin_operator", "tensor_product"),
    "states": ("make_triorthogonal", "condition_on", "reduced_density"),
    "correlations": ("expectation", "conditional_correlation_closed"),
    "bell": ("optimize_settings", "chsh_operator", "hardy_operator", "maximal_family"),
    "experiment": ("outcome_probabilities", "sample_shots", "postselect"),
    "cli": ("run",),
}
LAYERS = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
MODULES = ("belllab",) + tuple(f"belllab.{mod}" for mod in TARGETS)

# layers whose call count is reported next to their self time
CALL_COUNTED = ("qlinalg.hermitian_eigen", "qlinalg.spin_operator", "qlinalg.tensor_product",
                "correlations.expectation")


class Tracer:
    def __init__(self):
        self.command = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self.span_id = array("q")
        self.layer = array("b")
        self.parent = array("q")
        self.cmd = array("q")
        self.start = array("d")
        self.end = array("d")
        self.shots = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn):
        index = LAYERS.index(layer)
        counts_shots = layer == "experiment.sample_shots"

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.span_id.append(sid)
                self.layer.append(index)
                self.parent.append(parent)
                self.cmd.append(self.command)
                self.start.append(t0)
                self.end.append(t1)
            if counts_shots:
                self.shots += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every global in belllab's modules that names a target function."""
        modules = [importlib.import_module(name) for name in MODULES]
        wrappers = {}
        for mod, fns in TARGETS.items():
            home = importlib.import_module(f"belllab.{mod}")
            for fn in fns:
                target = getattr(home, fn, None)
                if callable(target):
                    wrappers[id(target)] = (target, self.wrap(f"{mod}.{fn}", target))
        patched = []
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, name, wrappers[id(value)][1])
                    patched.append((module, name, value))
        try:
            yield [f"{m.__name__}.{name}" for m, name, _ in patched]
        finally:
            for module, name, value in patched:
                setattr(module, name, value)

    def _arrays(self):
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64), kind="stable")
        layer = np.frombuffer(self.layer, dtype=np.int8)[order]
        parent_id = np.frombuffer(self.parent, dtype=np.int64)[order]
        ids = np.frombuffer(self.span_id, dtype=np.int64)[order]
        dur = (np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64))[order]
        # span ids are dense from 0, so after sorting a span's id is its row
        assert ids.size == 0 or (ids[0] == 0 and ids[-1] == ids.size - 1)
        return layer, parent_id, dur

    def summary(self, rounds: int) -> dict:
        """Per-round per-layer metrics over every span recorded."""
        layer, parent, dur = self._arrays()
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = int(np.count_nonzero(layer == LAYERS.index(name))) // rounds
        for name in LAYERS:
            out[f"{name}.self_ms"] = float(self_time[layer == LAYERS.index(name)].sum()) * 1e3 / rounds

        opt = LAYERS.index("bell.optimize_settings")
        objective = np.flatnonzero(layer == LAYERS.index("correlations.expectation"))
        inside = np.zeros(objective.size, dtype=bool)
        up = parent[objective]
        while np.any(up >= 0):
            live = up >= 0
            inside[live] |= layer[up[live]] == opt
            up = np.where(live, parent[np.maximum(up, 0)], -1)
        n_obj = int(inside.sum())
        opt_s = float(dur[layer == opt].sum())
        out["bell.objective_us"] = opt_s / n_obj * 1e6 if n_obj else 0.0

        shots_s = float(dur[layer == LAYERS.index("experiment.sample_shots")].sum())
        out["experiment.sample_shots.shots"] = self.shots // rounds
        out["experiment.sample_shots.mshots_per_s"] = self.shots / shots_s / 1e6 if shots_s else 0.0
        return out

    def write_spans(self, path, limit: int = 100_000):
        """Write the first ``limit`` spans, in start order, as tab-separated text."""
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64), kind="stable")[:limit]
        start = np.frombuffer(self.start, dtype=np.float64)
        origin = float(start.min()) if start.size else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\tcommand\tlayer\tstart_us\tend_us\n")
            for i in order:
                fh.write(f"{self.span_id[i]}\t{self.parent[i]}\t{self.cmd[i]}\t{LAYERS[self.layer[i]]}\t"
                         f"{(self.start[i] - origin) * 1e6:.1f}\t{(self.end[i] - origin) * 1e6:.1f}\n")
