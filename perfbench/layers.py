"""Per-layer spans, recorded by wrapping library functions from outside.

A wrapper replaces a function in its defining module and in every other
loaded ``nck`` module that holds the same object, so re-bindings made by
``from .x import y`` (``nck.lifting.truncate_offdiag``,
``nck.constants.dual_norm``, the package namespace) are traced too.  The
LAPACK layer wraps ``numpy.linalg`` attributes, which is how ``nck`` calls
them.  Nothing is wrapped unless :func:`install` is called, and
:func:`uninstall` restores every binding it replaced.

Spans stay in memory until the run ends.  Each records its instance, its
parent span and its self time (its duration minus the time of its child
spans, LAPACK calls included).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: layer name -> (defining module, function names)
LAYERS = {
    "linalg.truncate_offdiag": ("nck.linalg", ("truncate_offdiag",)),
    "norms.dual_norm": ("nck.norms", ("dual_norm",)),
    "norms.primal_norm": ("nck.norms", ("triple_norm", "weighted_triple_norm")),
    "car.car_system": ("nck.car", ("car_system",)),
    "car.embed_tuple": ("nck.car", ("embed_tuple",)),
    "car.extract_coefficients": ("nck.car", ("extract_coefficients",)),
    "car.anticommutation_check": ("nck.car", ("anticommutation_check",)),
    "car.second_moment_check": ("nck.car", ("second_moment_check",)),
    "car.state_weight_check": ("nck.car", ("state_weight_check",)),
    "car.orthogonality_check": ("nck.car", ("orthogonality_check",)),
    "car.fourth_moment_check": ("nck.car", ("fourth_moment_check",)),
    "spaces.build": (
        "nck.spaces",
        ("rademacher_space", "steinhauss_space", "lacunary_space", "gaussian_space"),
    ),
    "spaces.element_from_tuple": ("nck.spaces", ("element_from_tuple",)),
    "spaces.conditional_expectation": ("nck.spaces", ("conditional_expectation",)),
    "spaces.sup_norm": ("nck.spaces", ("sup_norm",)),
    "spaces.moment_identity_check": ("nck.spaces", ("moment_identity_check",)),
    "lifting.lift": ("nck.lifting", ("lift",)),
    "lapack.eigh": ("numpy.linalg", ("eigh",)),
    "lapack.svd": ("numpy.linalg", ("svd",)),
    "lapack.eigvalsh": ("numpy.linalg", ("eigvalsh",)),
}


class Recorder:
    """Collects spans while ``active``; a wrapper passes straight through otherwise."""

    def __init__(self):
        self.active = False
        self.instance = -1
        self.spans = []      # (instance, id, parent, layer, start, end, self_s)
        self.counts = defaultdict(int)
        self.dual_iterations = []
        self._stack = []     # [id, child_s] of the open spans
        self._next_id = 0

    def call(self, layer, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((self.instance, span_id, parent, layer, start, end, dur - frame[1]))

    def summary(self) -> dict:
        """Per-layer totals: seconds, self seconds and calls, plus layer counts."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for _inst, _id, _parent, layer, start, end, self_s in self.spans:
            out[f"{layer}.s"] += end - start
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.calls"] += 1
        its = self.dual_iterations
        total_its = sum(its)
        out["linalg.truncate_offdiag.blocks"] = self.counts["blocks"]
        out["linalg.truncate_offdiag.dilation_elems"] = self.counts["dilation_elems"]
        out["norms.dual_norm.iterations"] = total_its
        out["norms.dual_norm.iterations_p90"] = float(np.percentile(its, 90)) if its else 0.0
        out["norms.dual_norm.iterations_max"] = max(its, default=0)
        out["norms.dual_norm.us_per_iteration"] = (
            out["norms.dual_norm.s"] / total_its * 1e6 if total_its else 0.0
        )
        out["norms.dual_norm.nonconverged"] = self.counts["nonconverged"]
        out["lifting.lift.steps"] = self.counts["lift_steps"]
        return out

    def root_seconds(self) -> float:
        """Time covered by spans called directly from the benchmark."""
        return sum(end - start for _i, _id, parent, _l, start, end, _s in self.spans if parent is None)

    def write(self, path, header: dict):
        """Write a header line then one JSON array per span, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_clip(rec, args, _kwargs, _result):
    shape = np.shape(args[0])
    m = 1 if len(shape) == 2 else shape[0]
    p, q = shape[-2], shape[-1]
    rec.counts["blocks"] += m
    rec.counts["dilation_elems"] += m * (p + q) ** 2


def _count_dual(rec, _args, _kwargs, result):
    rec.dual_iterations.append(result.iterations)
    rec.counts["nonconverged"] += not result.converged


def _count_lift(rec, _args, _kwargs, result):
    rec.counts["lift_steps"] += result.iterations


_COUNTERS = {
    "linalg.truncate_offdiag": _count_clip,
    "norms.dual_norm": _count_dual,
    "lifting.lift": _count_lift,
}


def _wrap(rec: Recorder, layer: str, fn):
    counter = _COUNTERS.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        result = rec.call(layer, fn, args, kwargs)
        if counter is not None:
            counter(rec, args, kwargs, result)
        return result

    return wrapper


def install(rec: Recorder) -> list:
    """Wrap every binding of every layer function; returns what :func:`uninstall` needs."""
    nck_modules = [m for name, m in sys.modules.items() if name == "nck" or name.startswith("nck.")]
    replaced = []
    for layer, (home, names) in LAYERS.items():
        home_module = sys.modules[home]
        holders = [home_module] + [m for m in nck_modules if m is not home_module]
        for name in names:
            original = getattr(home_module, name)
            wrapper = _wrap(rec, layer, original)
            for module in holders:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
    return replaced


def uninstall(replaced: list):
    for module, attr, original in reversed(replaced):
        setattr(module, attr, original)
