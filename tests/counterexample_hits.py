"""First hits of ``counterexample_search`` over a grid of n and seeds.

``tests/data/counterexample_hits.json`` holds, for every case, the exact
report: the trial index, the bytes of the target, bound and infimum as hex,
and the repr of both objectives.  ``test_design.py`` replays every case and
compares with ``==``.  Regenerate the file only when the search is meant to
change its answers::

    PYTHONPATH=src python tests/counterexample_hits.py
"""

import json
from pathlib import Path

from qorder.design import counterexample_search

PATH = Path(__file__).parent / "data" / "counterexample_hits.json"
SIZES = (2, 3, 4, 5, 6, 8, 16, 64)
SEEDS = range(40)


def cases():
    """(n, trials, seed, gap_tol) for every recorded search."""
    for n in SIZES:
        trials = 2000 if n <= 3 else 300
        for seed in SEEDS:
            yield n, trials, seed, 0.0 if seed % 2 == 0 else 1e-4


def record(n, trials, seed, gap_tol):
    report = counterexample_search(n, trials, seed, gap_tol)
    out = {"n": n, "trials": trials, "seed": seed, "gap_tol": gap_tol, "found": report.found}
    if report.found:
        out.update({
            "trial_index": report.trial_index,
            "target": report.target.tobytes().hex(),
            "bound": report.bound.tobytes().hex(),
            "infimum_point": report.infimum_point.tobytes().hex(),
            "objective_at_infimum": repr(report.objective_at_infimum),
            "lp_objective": repr(report.lp_objective),
        })
    return out


if __name__ == "__main__":
    PATH.write_text(json.dumps([record(*case) for case in cases()], indent=1) + "\n")
