"""The benchmark's traced run, in miniature: every heavy span fires.

``perfbench/tracing.py`` wraps qorder's functions from outside, and
``perfbench/layers.py`` fails a traced run when a span it lists as heavy
never fires on its workload.  This runs one small op per benchmark workload
in process, under those wrappers, so a traced function that stops being
called fails here and not only in a benchmark run.  Nothing in ``perfbench``
is modified.
"""

import json
import sys
from pathlib import Path

import pytest

from qorder.cli import main
from qorder.spectra import fixture_dir

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402
from worker import invoke  # noqa: E402


def workload_ops(tmp_path):
    design = ["timbre", "design", "--target", str(DATA / "target3.csv"),
              "--bound", str(DATA / "bound3.csv"), "--variant"]
    return {
        "setclass-minimal": [["setclass", "minimal", "--edo", "12", "--max-second", "3"]],
        "design": [design + ["l1min"], design + ["l1min2"], design + ["closest-to-bound"]],
        "counterexample": [["timbre", "counterexample", "--n", "4", "--seed", "0"]],
        "hasse": [["timbre", "hasse", str(fixture_dir()), "--dot", str(tmp_path / "h.dot")]],
    }


LISTED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", LISTED)
def test_every_heavy_span_fires(workload, tmp_path):
    ops = workload_ops(tmp_path)[workload]
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        results = [invoke(main, argv) for argv in ops]
    finally:
        restore()
    for argv, result in zip(ops, results):
        assert result["status"] == "ok", (argv, result["detail"])
    fired = set(rec.names)
    # the worker opens cli.invoke itself, around each op
    heavy = {span for span, on in layers.HEAVY.items() if workload in on} - {"cli.invoke"}
    assert heavy, workload
    assert sorted(heavy - fired) == []

