"""Span recorder for the traced run.

``install`` replaces qorder's public functions with wrappers at the place each
caller looks them up (``qorder.setclass.minimal_elements``,
``qorder._kernels.simplex_solve``, ...).  Each wrapper records a
``perf_counter`` span (name, start, end, parent, op id) in memory, and some
also add computed counters (bytes a kernel allocates, family sizes, relation
pairs, trials).  Only the traced run installs the wrappers, so the end-to-end
run executes the program unmodified.  ``layers.py`` turns the spans into
per-layer numbers.

Stdlib only: it runs inside the worker, next to the program under test.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


class Recorder:
    """Spans kept in parallel lists; ``op`` is set by the caller per op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_ids: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def to_json(self) -> dict:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "name": [index[n] for n in self.names],
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op_ids,
            "counters": dict(self.counters),
        }


# Computed counters: each hook gets (recorder, args, kwargs, result); result
# is None for the ``before`` hooks, which run even when the call then fails.


def _canonical_masks_bytes(rec, args, kwargs, result):
    n = int(args[0])
    rec.counters["kernels.canonical_masks.bytes"] += n * (1 << n) * 8


def _subset_leq_bytes(rec, args, kwargs, result):
    masks, n = args[0], int(args[1])
    k = len(masks)
    rec.counters["kernels.subset_leq_matrix.bytes"] += n * k * k * 8


def _subset_leq_density(rec, args, kwargs, result):
    k = len(args[0])
    rec.counters["setclass.relation_pairs"] += int(result.sum())
    rec.counters["setclass.relation_cells"] += k * k


def _family_size(rec, args, kwargs, result):
    rec.counters["setclass.family_size"] += len(result)


def _tableau_bytes(rec, args, kwargs, result):
    m, n = args[0].shape
    rec.counters["kernels.simplex_solve.tableau_bytes"] += (m + 1) * (n + m + 1) * 8


def _search_trials(rec, args, kwargs, result):
    rec.counters["design.counterexample_search.trials"] += (
        result.trial_index + 1 if result.found else result.trials
    )


# (module, attribute, span name, before hook, after hook).  Functions reached
# through several modules get one entry per lookup site and share a span name.
TARGETS = (
    ("qorder._kernels", "canonical_masks", "kernels.canonical_masks", _canonical_masks_bytes, None),
    ("qorder._kernels", "subset_leq_matrix", "kernels.subset_leq_matrix", _subset_leq_bytes, _subset_leq_density),
    ("qorder._kernels", "simplex_solve", "kernels.simplex_solve", _tableau_bytes, None),
    ("qorder.setclass", "span_limited_minimal", "setclass.span_limited_minimal", None, None),
    ("qorder.setclass", "span_limited_classes", "setclass.span_limited_classes", None, _family_size),
    ("qorder.setclass", "enumerate_set_classes", "setclass.enumerate_set_classes", None, None),
    ("qorder.setclass", "canonical_form", "setclass.canonical_form", None, None),
    ("qorder.setclass", "span_profile", "setclass.span_profile", None, None),
    ("qorder.setclass", "subset_order", "setclass.subset_order", None, None),
    ("qorder.setclass", "minimal_elements", "orders.minimal_elements", None, None),
    ("qorder.orders", "minimal_elements", "orders.minimal_elements", None, None),
    ("qorder.orders", "relation_axioms", "orders.relation_axioms", None, None),
    ("qorder.timbre", "minimal_elements", "orders.minimal_elements", None, None),
    ("qorder.timbre", "maximal_elements", "orders.maximal_elements", None, None),
    ("qorder.timbre", "transitive_reduction", "orders.transitive_reduction", None, None),
    ("qorder.timbre", "brightness_compare", "timbre.brightness_compare", None, None),
    ("qorder.timbre", "brightness_hasse", "timbre.brightness_hasse", None, None),
    ("qorder.design", "brightness_compare", "timbre.brightness_compare", None, None),
    ("qorder.design", "infimum", "timbre.infimum", None, None),
    ("qorder.design", "to_lp", "design.to_lp", None, None),
    ("qorder.design", "solve_design", "design.solve_design", None, None),
    ("qorder.design", "solve_closest_to_bound", "design.solve_closest_to_bound", None, None),
    ("qorder.design", "counterexample_search", "design.counterexample_search", None, _search_trials),
    ("qorder.design", "lp_solve", "simplex.lp_solve", None, None),
    ("qorder.spectra", "load_spectrum", "spectra.load_spectrum", None, None),
    ("qorder.spectra", "normalize", "spectra.normalize", None, None),
    ("qorder.spectra", "export_dot", "spectra.export_dot", None, None),
)


def _wrap(rec: Recorder, name: str, func, before, after):
    def traced(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs, None)
        idx = rec.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return traced


def install(rec: Recorder):
    """Wrap every target and return a function that puts the originals back.

    A missing attribute means a renamed function, and raises.
    """
    originals = []
    for module_name, attr, name, before, after in TARGETS:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise AttributeError(f"traced function {module_name}.{attr} no longer exists")
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, _wrap(rec, name, getattr(module, attr), before, after))

    def restore() -> None:
        for module, attr, func in originals:
            setattr(module, attr, func)

    return restore
