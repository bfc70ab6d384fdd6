"""Spans around kunent's public names, recorded from outside the program.

`Tracer.install` replaces each traced function or method with a wrapper,
in every kunent module that binds it (so `from .x import f` copies are
covered too), and `Tracer.uninstall` puts the originals back.  Spans are
kept in memory as (name, start, end, parent, request, note) and written
out once, at the end of a run.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# Span name -> (module, attribute path) of each traced public name.  The
# `tensor.other` and `criteria.probe` spans feed no metric; they are traced
# so that their time is not counted as their caller's self time.  The
# `oracle` module is the reference and is not traced.
TARGETS = {
    "tensor.validate": [("tensor", "DensityMatrix.__post_init__")],
    "tensor.sweep": [("tensor", "subset_trace_sweep")],
    "tensor.product_trace": [("tensor", "product_trace")],
    "tensor.other": [("tensor", "cross_trace"), ("tensor", "sandwich_trace"),
                     ("tensor", "PureState.__post_init__"),
                     ("tensor", "ProductOperator.__post_init__")],
    "states.build": [("states", name) for name in (
        "ghz", "w_state", "w_tilde", "mix", "random_k_unentangled", "ghz_noise_family",
        "w_noise_family", "NoiseFamily.evaluate")],
    "criteria.t1_traces": [("criteria", "Theorem1Evaluator.traces")],
    "criteria.t2_traces": [("criteria", "Theorem2Evaluator.traces")],
    "criteria.report": [("criteria", "Theorem1Evaluator.report"),
                        ("criteria", "Theorem2Evaluator.report"),
                        ("criteria", "Theorem2K1Evaluator.report")],
    "criteria.combine": [("criteria", "Theorem1Traces.combine"),
                         ("criteria", "Theorem2Traces.combine")],
    "criteria.probe": [("criteria", "ghz_probe"), ("criteria", "w_probe"),
                       ("criteria", "w_tilde_probe")],
    "thresholds.family_build": [("thresholds", "FamilyMargin.__init__")],
    "thresholds.margin": [("thresholds", "FamilyMargin.margin")],
    "thresholds.scan": [("thresholds", name) for name in (
        "FamilyMargin.report", "bisection_threshold", "ghz_threshold_table",
        "pq_boundary_scan", "boundary_scan_csv", "threshold_table_csv")],
    "serialize.load": [("serialize", "load_density_matrix"),
                       ("serialize", "load_product_operator"),
                       ("serialize", "load_factor")],
    "cli": [("cli", "main")],
}

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "tensor.validate_s": "s",
    "tensor.validate_calls": "count",
    "tensor.eig_checks": "count",
    "tensor.dense_mib": "MiB",
    "tensor.sweep_s": "s",
    "tensor.product_trace_s": "s",
    "tensor.product_trace_calls": "count",
    "states.build_s": "s",
    "states.build_calls": "count",
    "criteria.t1_traces_s": "s",
    "criteria.t1_traces_calls": "count",
    "criteria.t2_traces_s": "s",
    "criteria.t2_traces_calls": "count",
    "criteria.report_s": "s",
    "criteria.report_calls": "count",
    "criteria.combine_s": "s",
    "criteria.false_certs": "count",
    "thresholds.family_build_s": "s",
    "thresholds.family_builds": "count",
    "thresholds.margin_calls": "count",
    "thresholds.scan_self_s": "s",
    "serialize.load_s": "s",
    "serialize.load_mib": "MiB",
    "cli.self_s": "s",
    "cli.out_kib": "KiB",
    "trace.overhead_share": "ratio",
}


def _note_validate(args):
    rho = args[0]
    return {"mib": 16 * rho.dims.total_dim**2 / 2**20, "eig": bool(rho._check_psd)}


def _note_load(args):
    return {"mib": os.path.getsize(args[0]) / 2**20}


NOTES = {"tensor.validate": _note_validate, "serialize.load": _note_load}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                    note(args) if note else None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every target in TARGETS within `package` (the kunent package)."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                module = sys.modules[f"{package.__name__}.{module_name}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self.wrap(name, raw.__func__))
                    else:
                        wrapped = self.wrap(name, raw)
                    self._patched.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
                    continue
                original = getattr(module, path)
                wrapped = self.wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ results

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, request, note."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans) -> dict[str, float]:
    """Layer totals (self time, calls, notes) over all recorded spans."""
    own = self_times(spans)
    time_by = defaultdict(float)
    calls_by = defaultdict(int)
    entries = defaultdict(int)
    dense_mib = load_mib = 0.0
    eig = 0
    for span, t in zip(spans, own):
        name, parent, note = span[0], span[3], span[5]
        time_by[name] += t
        calls_by[name] += 1
        layer = name.split(".")[0]
        if parent < 0 or spans[parent][0].split(".")[0] != layer:
            entries[layer] += 1
        if name == "tensor.validate":
            dense_mib += note["mib"]
            eig += note["eig"]
        elif name == "serialize.load":
            load_mib += note["mib"]
    scan_self = time_by["thresholds.scan"] + time_by["thresholds.margin"]
    return {
        "tensor.validate_s": time_by["tensor.validate"],
        "tensor.validate_calls": calls_by["tensor.validate"],
        "tensor.eig_checks": eig,
        "tensor.dense_mib": dense_mib,
        "tensor.sweep_s": time_by["tensor.sweep"],
        "tensor.product_trace_s": time_by["tensor.product_trace"],
        "tensor.product_trace_calls": calls_by["tensor.product_trace"],
        "states.build_s": time_by["states.build"],
        "states.build_calls": entries["states"],
        "criteria.t1_traces_s": time_by["criteria.t1_traces"],
        "criteria.t1_traces_calls": calls_by["criteria.t1_traces"],
        "criteria.t2_traces_s": time_by["criteria.t2_traces"],
        "criteria.t2_traces_calls": calls_by["criteria.t2_traces"],
        "criteria.report_s": time_by["criteria.report"],
        "criteria.report_calls": calls_by["criteria.report"],
        "criteria.combine_s": time_by["criteria.combine"],
        "thresholds.family_build_s": time_by["thresholds.family_build"],
        "thresholds.family_builds": calls_by["thresholds.family_build"],
        "thresholds.margin_calls": calls_by["thresholds.margin"],
        "thresholds.scan_self_s": scan_self,
        "serialize.load_s": time_by["serialize.load"],
        "serialize.load_mib": load_mib,
        "cli.self_s": time_by["cli"],
    }
