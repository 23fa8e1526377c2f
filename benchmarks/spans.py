"""Span tracing from outside the library, for the per-layer metrics.

``from .x import f`` binds ``f`` separately in every importing module, so a
traced function is replaced at every module of the package that holds it.
Spans are kept in memory as ``[name, start_ns, end_ns, parent, op]`` and
recorded only while an op is open, so work between ops (the gate) is never
attributed to a layer.  Targets missing from the library are skipped and
read as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

ROOT = "op"
EIGENSOLVES = "lapack.eigensolves"

# (module, attribute): span name is "<module>.<attribute>"
FUNCTIONS = (
    ("linalg", "herm_eig"), ("linalg", "partial_trace"),
    ("linalg", "mat_power_on_support"), ("linalg", "fidelity"),
    ("states", "measure"), ("states", "pinch"), ("states", "purify"),
    ("entropy", "conditional"), ("entropy", "von_neumann"),
    ("recovery", "eur_recovery_map"), ("recovery", "rotated_petz_map"),
    ("recovery", "apply_map"), ("recovery", "measurement_channel"),
    ("recovery", "tensor_with_identity"),
    ("relations", "check_bipartite"), ("relations", "check_tripartite"),
    ("simulate", "apply_gate"), ("simulate", "embed_operator"),
    ("simulate", "run_circuit"), ("simulate", "depolarize"),
    ("simulate", "sample_distribution"), ("simulate", "run_experiment"),
    ("gallery", "recovery_map_r3"),
)
# Construction plus validation: the span wraps the class's __post_init__.
VALIDATED_CLASSES = (("states", "DensityOperator"), ("states", "Pvm"), ("recovery", "CpMap"))

# Declared per-layer metrics, in BENCHMARK.json order.  Each is per op:
# "<span>.calls" counts calls, "<span>.self_ms" is span time minus the time
# its child spans cover.
LAYER_METRICS = (
    "linalg.herm_eig.calls", "linalg.herm_eig.self_ms",
    "linalg.partial_trace.calls", "linalg.partial_trace.self_ms",
    "linalg.mat_power_on_support.calls", "linalg.mat_power_on_support.self_ms",
    "linalg.fidelity.calls", "linalg.fidelity.self_ms",
    "lapack.eigensolves.calls", "lapack.eigensolves.self_ms",
    "states.DensityOperator.calls", "states.DensityOperator.self_ms",
    "states.Pvm.calls", "states.Pvm.self_ms",
    "states.measure.self_ms", "states.pinch.self_ms", "states.purify.self_ms",
    "entropy.conditional.calls", "entropy.conditional.self_ms",
    "entropy.von_neumann.calls",
    "recovery.eur_recovery_map.calls", "recovery.eur_recovery_map.self_ms",
    "recovery.rotated_petz_map.calls", "recovery.rotated_petz_map.self_ms",
    "recovery.CpMap.calls", "recovery.CpMap.self_ms",
    "recovery.apply_map.self_ms", "recovery.measurement_channel.self_ms",
    "recovery.tensor_with_identity.self_ms",
    "relations.check_bipartite.self_ms", "relations.check_tripartite.self_ms",
    "simulate.apply_gate.calls", "simulate.apply_gate.self_ms",
    "simulate.embed_operator.calls", "simulate.embed_operator.self_ms",
    "simulate.run_circuit.self_ms", "simulate.depolarize.self_ms",
    "simulate.sample_distribution.self_ms", "simulate.run_experiment.self_ms",
    "gallery.recovery_map_r3.calls", "gallery.recovery_map_r3.self_ms",
    "op.self_ms",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter_ns(), 0, parent, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; layer spans inside it carry ``op_id``."""
        self.op_id = op_id
        rec = self._open(ROOT)
        try:
            yield
        finally:
            self._close(rec)
            self.op_id = None

    # -- installing wrappers --

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self, package: str = "eurqsi"):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        try:
            for mod_name, attr in FUNCTIONS:
                orig = getattr(importlib.import_module(f"{package}.{mod_name}"), attr, None)
                if orig is None:
                    continue
                wrapper = self.wrap(f"{mod_name}.{attr}", orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapper)
            for mod_name, cls_name in VALIDATED_CLASSES:
                cls = getattr(importlib.import_module(f"{package}.{mod_name}"), cls_name, None)
                post_init = vars(cls).get("__post_init__") if cls is not None else None
                if post_init is not None:
                    self._patch(cls, "__post_init__",
                                self.wrap(f"{mod_name}.{cls_name}", post_init))
            for fn_name in ("eigh", "eigvalsh"):
                self._patch(np.linalg, fn_name, self.wrap(EIGENSOLVES, getattr(np.linalg, fn_name)))
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    # -- reading --

    def totals(self) -> dict[str, list[int]]:
        """Per span name: ``[calls, self_ns]`` summed over every recorded op."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            acc = out.setdefault(name, [0, 0])
            acc[0] += 1
            acc[1] += end - start - inner
        return out

    def layer_metrics(self, ops: int) -> dict[str, float]:
        totals = self.totals()
        out = {}
        for metric in LAYER_METRICS:
            span, stat = metric.rsplit(".", 1)
            calls, self_ns = totals.get(span, (0, 0))
            out[metric] = calls / ops if stat == "calls" else self_ns / 1e6 / ops
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s, e, p, op] for n, s, e, p, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))
