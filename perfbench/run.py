#!/usr/bin/env python3
"""The qorder benchmark: CLI workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload

Each op is one ``qorder`` CLI command, invoked in-process through its click
entry point by a fresh worker process (``worker.py``) whose address space is
capped at CAP_BYTES.  The loop is closed: one client, one op at a time, BLAS
pinned to one thread.  Inputs are generated from ``--seed`` before any worker
starts; every output is checked against a reference the benchmark computes
itself (``reference.py``) after the timed section.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over SETUP_REPS fresh workers of the wall time from
  process start through ``import qorder`` and one untimed warm-up op;
- ``ops_per_s`` and ``op_p50_ms``: successful ops per second of op time,
  and the median op latency, each taken per round of the workload's mix and
  reported as the median over the run's rounds;
- ``op_tail_ms``: a high percentile of every op latency in the run.  The
  percentile is fixed per workload, so that runs compare like with like, and
  is printed with the number of ops beyond it;
- ``peak_rss_mb``: the timed worker's peak resident set (VmHWM), or the cap
  when an op died of MemoryError;
- ``failed_ratio``: printed, and carried by ``failed`` / ``attempted`` in the
  last line.  An op fails when it raises, exits non-zero, prints a traceback,
  or gives output its reference check rejects.  A failed op's latency is
  +inf, so a later fix that turns a fast failure into a slow success does
  not read as a regression.

``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms`` are the measured wall-clock
figures at a fixed machine speed.  On a machine shared with other tenants,
the ops of one run can run a quarter faster or slower than those of the
next, and the measured figures of ten runs spread by as much.  The worker
times a fixed probe (``worker.probe``) between ops, never during one, and
the run's figures are scaled by PROBE_REF_S over the median probe of the
run: times are multiplied by that scale, and ops_per_s divided by it.  The
measured figures and the scale are printed beside them and kept in the
result file.

``--trace 1`` runs a fixed number of rounds untraced, traced (``tracing.py``)
and untraced again in one worker and reports the per-layer metrics of
``layers.py``, the tracing overhead and the span coverage.

Metric names and units, and the listed workloads, are read from
BENCHMARK.json at the root of the checkout; the run stops if they disagree
with what ``layers.py`` and ``workloads.py`` compute.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result with machine metadata is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from math import ceil, floor, inf
from pathlib import Path

import numpy as np

import layers
import reference
from workloads import WORKLOADS, Plan, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CAP_BYTES = 2 * 2**30  # admits (18, 3) with margin, refuses (17, 4)
# worker.probe's median over fourteen runs of setclass-minimal and hasse on
# a 2-vCPU Xeon VM, the machine the benchmark was defined on; so the scaled
# figures are that machine's at its typical speed.
PROBE_REF_S = 11.4e-3
SETUP_REPS = 5
WORKER_TIMEOUT = 150.0  # each worker, start to exit
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile that keeps +inf entries as +inf."""
    ordered = sorted(values)
    rank = pct / 100 * (len(ordered) - 1)
    lo, hi = ordered[floor(rank)], ordered[ceil(rank)]
    return hi if hi == inf else lo + (hi - lo) * (rank - floor(rank))


def run_worker(plan_path: Path, result_path: Path, mode: str) -> tuple[float, dict]:
    """Start one worker; return (seconds until it was ready, its report)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path), mode],
        stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT)
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - start
        proc.wait(timeout=max(1.0, WORKER_TIMEOUT - setup))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed (exit {proc.returncode}, said {line!r})")
    return setup, json.loads(result_path.read_text())


class Checker:
    """Reference verdict per (op, output); identical outputs are checked once."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.verdicts: dict[tuple[int, str], str | None] = {}
        self.oracles: dict = {}

    def __call__(self, idx: int, stdout: str) -> str | None:
        key = (idx, stdout)
        if key not in self.verdicts:
            data, error = reference.parse(stdout)
            try:
                self.verdicts[key] = error or self._check(self.plan.refs[idx], data)
            except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
                self.verdicts[key] = f"malformed output: {exc!r}"
        return self.verdicts[key]

    def _check(self, ref: tuple, data) -> str | None:
        kind = ref[0]
        if kind == "setclass":
            return reference.check_setclass(ref[1], ref[2], data)
        if kind == "counterexample":
            return reference.check_counterexample(*ref[1:], data)
        if kind == "design":
            target, bound = self.plan.data[ref[1]]
            if ref not in self.oracles:
                self.oracles[ref] = reference.oracle_design(
                    reference.normalized(target), reference.normalized(bound), ref[2])
            return reference.check_design(target, bound, ref[2], data, self.oracles[ref])
        names, spectra, dot = self.plan.data[ref[1]]
        if ref not in self.oracles:
            self.oracles[ref] = reference.expected_hasse(names, spectra)
        return reference.check_hasse(self.oracles[ref], data, dot.read_text() if dot.exists() else "")


def account(ops: list[dict], check: Checker) -> tuple[list[float], dict[str, list[str]]]:
    """Latencies (+inf for a failed op) and failure details grouped by kind."""
    latencies, failures = [], defaultdict(list)
    for op in ops:
        kind, detail = op["status"], op["detail"]
        if kind == "ok":
            detail = check(op["op"], op["out"])
            kind = "rejected" if detail else "ok"
        if kind == "ok":
            latencies.append(op["latency"])
        else:
            latencies.append(inf)
            failures[kind].append(detail)
    return latencies, failures


def figures(ops: list[dict], latencies: list[float], tail_pct: float) -> dict[str, float]:
    """ops_per_s and op_p50_ms as medians over the run's rounds, op_tail_ms
    over every op.  A round's throughput is its successful ops per second of
    op time; a failed op's time counts, and its latency is +inf."""
    rounds = defaultdict(list)
    for op, latency in zip(ops, latencies):
        rounds[op["round"]].append((op["latency"], latency))
    return {
        "ops_per_s": statistics.median(
            sum(v != inf for _, v in r) / sum(t for t, _ in r) for r in rounds.values()),
        "op_p50_ms": statistics.median(percentile([v for _, v in r], 50) for r in rounds.values()) * 1000,
        "op_tail_ms": percentile(latencies, tail_pct) * 1000,
    }


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "cap_bytes": CAP_BYTES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    work = OUT / f"work-{wl.name}-{seed}-{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = wl.build(np.random.default_rng(seed), work)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps({
            "root": str(ROOT), "cap_bytes": CAP_BYTES, "seconds": seconds,
            "trace_rounds": wl.trace_rounds, "ops": plan.ops, "rounds": plan.rounds,
            "warmup": plan.ops[plan.warmup],
        }))
        setups = []
        for rep in range(1 if trace else SETUP_REPS):
            mode = "trace" if trace else ("timed" if rep == SETUP_REPS - 1 else "setup")
            setup, report = run_worker(plan_path, work / f"result-{rep}.json", mode)
            setups.append(setup)
        check = Checker(plan)
        ops = [op for p in report["passes"] for op in p["ops"]]
        # the warm-up op counts as attempted, and can fail, but is not timed
        latencies, failures = account([dict(report["warmup"], op=plan.warmup)] + ops, check)
        latencies = latencies[1:]
        result = {
            "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": dict(machine(), worker_numpy=report["numpy"], worker_python=report["python"]),
            "attempted": len(ops) + 1, "failed": sum(map(len, failures.values())),
            "correct": "rejected" not in failures,
            "failures": {k: {"count": len(v), "examples": sorted(set(v))[:3]} for k, v in failures.items()},
        }
        if trace:
            _, traced, untraced = report["passes"]
            result["metrics"] = layers.layer_metrics(wl.name, report["spans"], untraced, traced)
            return result
        (timed,) = report["passes"]
        memory_error = "memory-error" in failures
        measured = figures(ops, latencies, wl.tail_pct)
        scale = PROBE_REF_S / statistics.median(report["probes"])  # times x scale
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "ops_per_s": measured["ops_per_s"] / scale,
            "op_p50_ms": measured["op_p50_ms"] * scale,
            "op_tail_ms": measured["op_tail_ms"] * scale,
            "peak_rss_mb": (CAP_BYTES if memory_error else report["peak_rss_kb"] * 1024) / 2**20,
        }
        result["measured"] = measured
        result["scale"] = scale
        result["probes"] = len(report["probes"])
        tail = measured["op_tail_ms"] / 1000
        result["tail"] = {"pct": wl.tail_pct, "beyond": sum(v > tail for v in latencies), "of": len(ops)}
        result["setup_runs_s"] = setups
        result["failed_ratio"] = result["failed"] / result["attempted"]
        result["rounds"] = ops[-1]["round"] + 1
        result["wall_s"] = timed["wall_s"]
        result["ops"] = [[plan.ops[op["op"]], op["round"], op["latency"], v != inf]
                         for op, v in zip(ops, latencies)]
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report_lines(res: dict, units: dict[str, str]) -> list[str]:
    m = res["machine"]
    lines = [
        f"== {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}  "
        f"cap {m['cap_bytes'] / 2**20:.0f} MiB  nproc {m['nproc']}  "
        f"mem {m['mem_total_bytes'] / 2**30:.1f} GiB  python {m['python']}  numpy {m['numpy']}"
    ]
    computed = {name for name, c in layers.METRICS if c}
    for name, value in res["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(res['setup_runs_s'])} workers"
        elif name == "op_tail_ms":
            note = f"p{res['tail']['pct']:g}, {res['tail']['beyond']} of {res['tail']['of']} ops beyond"
        elif name in ("ops_per_s", "op_p50_ms"):
            note = f"median of {res['rounds']} rounds"
        if name in res.get("measured", {}):
            note += f"; measured {res['measured'][name]:.6g}, scale {res['scale']:.4f}"
        elif name in computed:
            note = "computed"
        lines.append(f"  {name:46s} {value:14.6g} {units[name]:6s} {note}")
    if not res["trace"]:
        lines.append(f"  {'failed_ratio':46s} {res['failed_ratio']:14.6g} {'ratio':6s} "
                     f"{res['failed']} of {res['attempted']} ops")
    for kind, info in res["failures"].items():
        lines.append(f"  failed ({kind}): {info['count']}, e.g. " + " | ".join(info["examples"]))
    lines.append(f"  reference checks: {'all outputs accepted' if res['correct'] else 'OUTPUT REJECTED'}")
    return lines


def metric_units(spec: dict) -> dict[str, str]:
    """Units by metric name from BENCHMARK.json, checked against what the run
    computes: the end-to-end metrics, layers.METRICS, and the workloads."""
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if list(end_to_end) != list(END_TO_END):
        raise SystemExit(f"BENCHMARK.json end_to_end {list(end_to_end)} != run.py's {list(END_TO_END)}")
    if list(per_layer) != [name for name, _ in layers.METRICS]:
        raise SystemExit("BENCHMARK.json per_layer differs from layers.METRICS")
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        raise SystemExit(f"BENCHMARK.json lists workloads run.py does not know: {unknown}")
    return end_to_end | per_layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qorder" / "__init__.py").is_file():
        print(f"error: no qorder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = metric_units(spec)
    seconds = args.seconds or spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace))
        print("\n".join(report_lines(res, units)), flush=True)
        results.append(res)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(results, indent=1))
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
            for r in results for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
