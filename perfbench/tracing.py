"""Spans recorded around calls into mzi-lab, and the per-layer metrics from them.

``Tracer.install`` replaces each target function with a wrapper in every
``mzi_lab`` module that holds a reference to it (``output_grid`` is bound in
``interferometer``, ``measurements`` and ``optimize``; ``run_sweep`` in
``optimize`` and ``cli``).  A wrapper records one span: layer, start, end,
parent span and op id.  A layer's self time is its spans' durations minus
the durations of their child spans.  Some targets only count (the Newton
angle step, whose ``None`` return is a Nelder-Mead fallback) and record no
span.  A target the program no longer defines is reported as absent; its
metrics read 0.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

SPAN, COUNT = "span", "count"


def _count_phases(tracer, layer, args, kwargs):
    tracer.counts[layer + ".phases"] += np.size(kwargs["phis"] if "phis" in kwargs else args[2])
    return args, kwargs, 0


def _count_evals(tracer, layer, args, kwargs):
    """Wrap the objective (first argument) so its evaluations are counted."""
    fn, key = args[0], layer + ".evals"

    def counted(*a, **k):
        tracer.counts[key] += 1
        return fn(*a, **k)

    return (counted,) + tuple(args[1:]), kwargs, 0


def _mu_search(tracer, layer, args, kwargs):
    """Count objective evaluations and tag the span 1 when the search is seeded."""
    args, kwargs, _ = _count_evals(tracer, layer, args, kwargs)
    seed = kwargs["seed"] if "seed" in kwargs else (args[2] if len(args) > 2 else None)
    return args, kwargs, int(seed is not None)


def _accepted(key):
    def after(tracer, result, args, kwargs):
        if result is not None:
            tracer.counts[key] += 1

    return after


def _rows(tracer, result, args, kwargs):
    tracer.counts["optimize.run_sweep.rows"] += len(result)


def _dense_bytes(matrices):
    """Bytes of the ``matrices`` complex d×d operands a Fock call materialises, d = cutoff²."""

    def after(tracer, result, args, kwargs):
        if matrices == "state":  # fock_output_state(resource, phi, loss, cutoff) returns one
            nbytes = result.dm.nbytes
        elif matrices == "qfi":  # rho, its eigenvectors, d(rho)/d(phi), the SLD matrix
            d = args[3] ** 2 if len(args) > 3 else kwargs["cutoff"] ** 2
            nbytes = 4 * 16 * d * d
        elif matrices == "fidelity":  # two matrix square roots and their product
            nbytes = 3 * args[0].dm.nbytes
        else:  # the operator matrix
            nbytes = args[0].dm.nbytes
        tracer.counts["fock.dense_bytes_computed"] += nbytes

    return after


#: layer -> (module, attribute, kind, before hook, after hook)
TARGETS = {
    "interferometer.output_grid": ("mzi_lab.interferometer", "output_grid", SPAN, _count_phases, None),
    "interferometer.output_state": ("mzi_lab.interferometer", "output_state", SPAN, None, None),
    "measurements.sensitivity_profile": (
        "mzi_lab.measurements", "sensitivity_profile", SPAN, _count_phases, None),
    "optimize.min_over_mu": ("mzi_lab.optimize", "_minimize_over_mu", SPAN, _mu_search, None),
    "optimize.min_over_phi": ("mzi_lab.optimize", "_min_over_phi", SPAN, None, None),
    "optimize.golden_section": ("mzi_lab.optimize", "golden_section", SPAN, _count_evals, None),
    "optimize.fit_parabola": (
        "mzi_lab.optimize", "_fit_parabola", SPAN, None, _accepted("optimize.fit_parabola.accepted")),
    "optimize.min_double_hd": ("mzi_lab.optimize", "_min_double_hd", SPAN, None, None),
    "optimize.angle_refine": ("mzi_lab.optimize", "_refine_sum_quad_angles", SPAN, None, None),
    "optimize.newton_angles": (
        "mzi_lab.optimize", "_newton_angles", COUNT, None, _accepted("optimize.newton_angles.accepted")),
    "optimize.snl_threshold": ("mzi_lab.optimize", "snl_threshold", SPAN, None, None),
    "optimize.scheme_sensitivity": ("mzi_lab.optimize", "scheme_sensitivity", SPAN, None, None),
    "optimize.csv_ratio": ("mzi_lab.optimize", "optimal_csv_ratio", SPAN, None, None),
    "optimize.run_sweep": ("mzi_lab.optimize", "run_sweep", SPAN, None, _rows),
    "qfi.qfi_closed": ("mzi_lab.qfi", "qfi_closed", SPAN, None, None),
    "qfi.qfi_numeric": ("mzi_lab.qfi", "qfi_numeric", SPAN, None, None),
    "qfi.bures_fidelity": ("mzi_lab.qfi", "bures_fidelity", SPAN, None, None),
    "cli.emit": ("mzi_lab.cli", "emit", SPAN, None, None),
    "fock.output_state": ("mzi_lab.fock", "fock_output_state", SPAN, None, _dense_bytes("state")),
    "fock.qfi": ("mzi_lab.fock", "oracle_qfi", SPAN, None, _dense_bytes("qfi")),
    "fock.fidelity": ("mzi_lab.fock", "uhlmann_fidelity", SPAN, None, _dense_bytes("fidelity")),
    "fock.expectation": ("mzi_lab.fock", "oracle_expectation", SPAN, None, _dense_bytes("expectation")),
}


class Tracer:
    """In-memory span store.  Spans live in flat arrays indexed by span id."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.layers = list(targets)
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.layer = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.tag = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.calls = Counter()  # count-only targets
        self.absent = []
        self.active = False
        self.op_id = -1
        self._stack = []
        self._patched = []

    # -- recording --------------------------------------------------------------

    def open(self, layer, tag=0):
        idx = len(self.layer)
        self.layer.append(self._layer_id[layer])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.tag.append(tag)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer, fn, kind=SPAN, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tag = 0
            if before is not None:
                args, kwargs, tag = before(tracer, layer, args, kwargs)
            if kind == COUNT:
                tracer.calls[layer] += 1
                result = fn(*args, **kwargs)
            else:
                idx = tracer.open(layer, tag)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    # -- patching ---------------------------------------------------------------

    def install(self):
        """Wrap every target in every loaded ``mzi_lab`` module that binds it."""
        for layer, (module_name, attr, kind, before, after) in self.targets.items():
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(layer, original, kind, before, after)
            for name, module in list(sys.modules.items()):
                if name != "mzi_lab" and not name.startswith("mzi_lab."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------------

    def spans(self):
        """Spans as ``(layer, start, end, parent, op, tag)`` tuples."""
        return [
            (self.layers[l], s, e, p, o, t)
            for l, s, e, p, o, t in zip(self.layer, self.start, self.end, self.parent, self.op, self.tag)
        ]

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span,layer,start,end,parent,op,tag\n")
            for i, (layer, start, end, parent, op, tag) in enumerate(self.spans()):
                handle.write(f"{i},{layer},{start:.9f},{end:.9f},{parent},{op},{tag}\n")


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the durations of direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


def summarize(tracer):
    """Calls, self seconds and structural counts per layer."""
    layers = [tracer.layers[i] for i in tracer.layer]
    own = self_times(tracer.start, tracer.end, tracer.parent)
    calls = Counter(tracer.calls)
    self_s = Counter()
    golden_children = Counter()
    gap_evals = 0
    for i, layer in enumerate(layers):
        calls[layer] += 1
        self_s[layer] += own[i]
        parent = tracer.parent[i]
        if parent < 0:
            continue
        if layer == "optimize.golden_section" and layers[parent] == "optimize.min_over_mu":
            golden_children[parent] += 1
        elif layer == "optimize.scheme_sensitivity" and layers[parent] == "optimize.snl_threshold":
            gap_evals += 1
    seeded = [i for i, layer in enumerate(layers) if layer == "optimize.min_over_mu" and tracer.tag[i]]
    # A seeded mu search that rescans runs a second golden-section search.
    rescans = sum(1 for i in seeded if golden_children[i] >= 2)
    return {
        "calls": calls,
        "self_s": self_s,
        "counts": tracer.counts,
        "seeded": len(seeded),
        "rescans": rescans,
        "gap_evals": gap_evals,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(summary, overhead_ratio):
    """Values of every per-layer metric, keyed by metric name."""
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    out = {}
    for layer in (
        "interferometer.output_grid", "interferometer.output_state", "measurements.sensitivity_profile",
        "optimize.min_over_phi", "optimize.golden_section", "optimize.min_double_hd", "optimize.angle_refine",
        "optimize.snl_threshold", "optimize.scheme_sensitivity", "optimize.csv_ratio",
        "qfi.qfi_closed", "qfi.qfi_numeric", "qfi.bures_fidelity", "optimize.run_sweep",
        "fock.output_state", "fock.qfi", "fock.fidelity", "fock.expectation",
    ):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in ("interferometer.output_grid", "measurements.sensitivity_profile"):
        out[f"{layer}.phases"] = counts[f"{layer}.phases"]
    mu = "optimize.min_over_mu"
    out[f"{mu}.calls"] = calls[mu]
    out[f"{mu}.evals"] = counts[f"{mu}.evals"]
    out[f"{mu}.seeded_calls"] = summary["seeded"]
    out[f"{mu}.rescans"] = summary["rescans"]
    out[f"{mu}.seed_hit_ratio"] = _ratio(summary["seeded"] - summary["rescans"], summary["seeded"])
    out["optimize.golden_section.evals"] = counts["optimize.golden_section.evals"]
    out["optimize.polish.fits"] = calls["optimize.fit_parabola"]
    out["optimize.polish.fit_accept_ratio"] = _ratio(
        counts["optimize.fit_parabola.accepted"], calls["optimize.fit_parabola"]
    )
    newton_ok = counts["optimize.newton_angles.accepted"]
    out["optimize.angle_refine.nelder_mead_calls"] = calls["optimize.angle_refine"] - newton_ok
    out["optimize.angle_refine.newton_accept_ratio"] = _ratio(newton_ok, calls["optimize.newton_angles"])
    out["optimize.snl_threshold.gap_evals"] = summary["gap_evals"]
    out["optimize.run_sweep.rows"] = counts["optimize.run_sweep.rows"]
    out["cli.emit.self_s"] = self_s["cli.emit"]
    out["fock.dense_bytes_computed"] = counts["fock.dense_bytes_computed"]
    out["trace.overhead_ratio"] = overhead_ratio
    return out
