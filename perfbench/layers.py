"""Per-layer metrics of the traced run, computed from its spans.

A layer is a qorder module; a span is named ``<module>.<function>`` (the
``_kernels`` module appears as ``kernels`` because metric names start with a
letter).  Self time is a span's duration minus the durations of its direct
children.  Counters marked computed are derived from argument and result
sizes, not measured, and repeat exactly for a given seed.
"""

from __future__ import annotations

import numpy as np

SETCLASS = ("setclass-minimal", "setclass-large")

# Span -> the workloads it must fire on.  A span that never fires there means
# the traced function was renamed or bypassed, and the traced run fails.
HEAVY = {
    "cli.invoke": SETCLASS + ("design", "counterexample", "hasse"),
    "kernels.canonical_masks": SETCLASS,
    "setclass.enumerate_set_classes": SETCLASS,
    "setclass.canonical_form": SETCLASS,
    "setclass.span_profile": SETCLASS,
    "setclass.subset_order": SETCLASS,
    "kernels.subset_leq_matrix": SETCLASS,
    "orders.minimal_elements": ("setclass-minimal", "hasse"),
    "orders.transitive_reduction": ("hasse",),
    "orders.relation_axioms": ("hasse",),
    "timbre.brightness_compare": ("hasse",),
    "timbre.infimum": ("counterexample",),
    "design.to_lp": ("design",),
    "design.solve_closest_to_bound": ("design",),
    "design.counterexample_search": ("counterexample",),
    "simplex.lp_solve": ("design",),
    "kernels.simplex_solve": ("design", "counterexample"),
    "spectra.load_spectrum": ("design", "hasse"),
    "spectra.export_dot": ("hasse",),
}

# (metric, computed).  BENCHMARK.json's per_layer list names these metrics,
# with their units; run.py stops if the two lists differ.
METRICS = (
    ("kernels.canonical_masks.calls", False),
    ("kernels.canonical_masks.self_s", False),
    ("kernels.canonical_masks.bytes", True),
    ("setclass.enumerate_set_classes.self_s", False),
    ("setclass.canonical_form.calls", False),
    ("setclass.canonical_form.self_s", False),
    ("setclass.span_profile.calls", False),
    ("setclass.span_profile.self_s", False),
    ("setclass.family_size", True),
    ("setclass.subset_order.self_s", False),
    ("kernels.subset_leq_matrix.self_s", False),
    ("kernels.subset_leq_matrix.bytes", True),
    ("setclass.relation_density", True),
    ("orders.minimal_elements.self_s", False),
    ("orders.transitive_reduction.self_s", False),
    ("orders.relation_axioms.self_s", False),
    ("timbre.brightness_compare.calls", False),
    ("timbre.brightness_compare.self_s", False),
    ("timbre.infimum.calls", False),
    ("timbre.infimum.self_s", False),
    ("design.to_lp.calls", False),
    ("design.to_lp.self_s", False),
    ("design.solve_closest_to_bound.self_s", False),
    ("design.counterexample_search.self_s", False),
    ("design.counterexample_search.trials_per_op", True),
    ("simplex.lp_solve.calls", False),
    ("simplex.lp_solve.self_s", False),
    ("kernels.simplex_solve.calls", False),
    ("kernels.simplex_solve.self_s", False),
    ("kernels.simplex_solve.tableau_bytes", True),
    ("spectra.load_spectrum.calls", False),
    ("spectra.load_spectrum.self_s", False),
    ("spectra.export_dot.self_s", False),
    ("cli.invoke.self_s", False),
    ("trace.ops", False),
    ("trace.overhead_s", False),
    ("trace.coverage", False),
)


def layer_metrics(workload: str, spans: dict, untraced: dict, traced: dict) -> dict[str, float]:
    """Every METRICS value for one traced run; raises if a heavy span is silent.

    ``trace.overhead_s`` is traced wall minus untraced wall over the same ops;
    ``trace.coverage`` is the time of the spans directly under ``cli.invoke``
    divided by the summed op wall, the share of each op the layers explain.
    """
    names = spans["names"]
    name = np.asarray(spans["name"], dtype=np.int64)
    parent = np.asarray(spans["parent"], dtype=np.int64)
    dur = np.asarray(spans["end"]) - np.asarray(spans["start"])
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    calls = dict(zip(names, np.bincount(name, minlength=len(names)).tolist()))
    self_s = dict(zip(names, np.bincount(name, weights=dur - child, minlength=len(names)).tolist()))
    silent = [s for s, heavy in HEAVY.items() if workload in heavy and not calls.get(s)]
    if silent:
        raise RuntimeError(f"spans never fired on their heavy workload {workload}: {silent}")

    counters = spans["counters"]
    pairs, cells = counters.get("setclass.relation_pairs", 0), counters.get("setclass.relation_cells", 0)
    families = calls.get("setclass.span_limited_classes", 0)
    searches = calls.get("design.counterexample_search", 0)
    under_cli = nested & (name[np.maximum(parent, 0)] == names.index("cli.invoke"))
    op_wall = sum(op["latency"] for op in traced["ops"])
    derived = {
        "setclass.family_size": counters.get("setclass.family_size", 0) / families if families else 0.0,
        "setclass.relation_density": pairs / cells if cells else 0.0,
        "design.counterexample_search.trials_per_op":
            counters.get("design.counterexample_search.trials", 0) / searches if searches else 0.0,
        "trace.ops": len(traced["ops"]),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.coverage": float(dur[under_cli].sum()) / op_wall,
    }
    out = {}
    for metric, _ in METRICS:
        span, _, field = metric.rpartition(".")
        if metric in derived:
            out[metric] = float(derived[metric])
        elif field == "calls":
            out[metric] = float(calls.get(span, 0))
        elif field == "self_s":
            out[metric] = float(self_s.get(span, 0.0))
        else:
            out[metric] = float(counters.get(metric, 0))
    return out
