"""One benchmark worker: a fresh process that runs qorder CLI ops in-process.

Usage: worker.py PLAN.json RESULT.json MODE, MODE one of

- ``setup``: cap the address space, import qorder, run the warm-up op,
  print ``ready`` and exit;
- ``timed``: the same, then run whole rounds of the plan's ops, one at a
  time (a closed loop with one client), for about ``seconds``: at least one
  round, and no round that would, at the mean round time so far, end after
  ``seconds``.  A machine-speed ``probe`` is timed between ops;
- ``trace``: the same set-up, then ``trace_rounds`` rounds three times:
  untraced (which also warms the allocator), traced with every layer wrapped
  by ``tracing``, and untraced again as the reference for the overhead.

The parent times set-up from process start to the ``ready`` line.  Outputs
are returned to the parent unchecked: reference checks run there, outside the
timed section.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def invoke(main, argv: list[str]) -> dict:
    """Run one CLI command through its click entry point, as the shell would."""
    out, err = io.StringIO(), io.StringIO()
    status, code, detail = "ok", 0, ""
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="qorder")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the CLI let it escape: a user sees a traceback
            status, code = ("memory-error" if isinstance(exc, MemoryError) else "exception"), 1
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    latency = time.perf_counter() - start
    stderr = err.getvalue()
    if status == "ok" and code != 0:
        status = "exit"
        detail = f"exit {code}: " + (stderr.strip().splitlines() or [""])[-1]
    elif status == "ok" and "Traceback" in stderr:
        status, detail = "stderr-traceback", stderr.strip().splitlines()[-1]
    return {"status": status, "start": start, "latency": latency, "detail": detail,
            "out": out.getvalue()}


PROBE_PERIOD_S = 0.2
_PROBE_ARRAYS: list = []  # allocated on the first probe, then resident


def probe() -> float:
    """Seconds for a fixed mix of interpreter, small-array numpy and memory work.

    On a machine shared with other tenants the ops of a whole run can run up
    to a quarter faster or slower than those of the next run.  This probe's
    median over a run moves with them (an interpreter loop, numpy dispatch on
    small arrays, and 128 MiB streamed between two 16 MiB arrays), so the
    parent can express a run's figures at a fixed machine speed.
    """
    import numpy as np

    if not _PROBE_ARRAYS:
        _PROBE_ARRAYS.extend((np.arange(64.0), np.ones(2**21), np.empty(2**21)))
    a, src, dst = _PROBE_ARRAYS
    start = time.perf_counter()
    x = 0
    for i in range(30_000):
        x += i * i % 7
    for _ in range(300):
        (a * a + a).sum()
    for _ in range(2):
        np.copyto(dst, src)
        np.copyto(src, dst)
    return time.perf_counter() - start


def run_rounds(main, plan: dict, rounds, rec=None, probes=None) -> dict:
    """Run the rounds' ops one at a time, each tagged with its round.  With a
    ``probes`` list, time ``probe`` before the first op and then after any op
    that ends PROBE_PERIOD_S or more after the last probe; never during an op."""
    ops = plan["ops"]
    results = []
    start = last_probe = time.perf_counter()
    if probes is not None:
        probes.append(probe())
    for r, round_ops in enumerate(rounds(start)):
        for idx in round_ops:
            if rec is not None:
                rec.op = len(results)
                span = rec.open("cli.invoke")
            result = invoke(main, ops[idx])
            if rec is not None:
                rec.close(span)
            result["op"] = idx
            result["round"] = r
            results.append(result)
            if probes is not None and time.perf_counter() - last_probe >= PROBE_PERIOD_S:
                probes.append(probe())
                last_probe = time.perf_counter()
    return {"wall_s": time.perf_counter() - start, "ops": results}


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space (VmHWM).

    Not ``ru_maxrss``: Linux carries that across fork and exec, so a worker
    would report its parent's size whenever the parent is the larger.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    plan_path, result_path, mode = sys.argv[1:4]
    plan = json.loads(Path(plan_path).read_text())
    cap = plan["cap_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(Path(plan["root"]) / "src"))

    import numpy
    import qorder
    from qorder import cli

    if not Path(qorder.__file__).resolve().is_relative_to(Path(plan["root"]).resolve()):
        raise SystemExit(f"imported qorder from {qorder.__file__}, not from the checkout")
    warmup = invoke(cli.main, plan["warmup"])
    print("ready", flush=True)
    report = {"warmup": warmup, "numpy": numpy.__version__, "python": sys.version.split()[0]}
    all_rounds = plan["rounds"]
    if mode == "timed":
        def timed_rounds(start):
            # whole rounds; stop before one that would end after ``seconds``
            r = 0
            while r == 0 or (time.perf_counter() - start) * (r + 1) / r <= plan["seconds"]:
                yield all_rounds[r % len(all_rounds)]
                r += 1

        report["probes"] = []
        report["passes"] = [run_rounds(cli.main, plan, timed_rounds, probes=report["probes"])]
    elif mode == "trace":
        import tracing

        fixed = [all_rounds[r % len(all_rounds)] for r in range(plan["trace_rounds"])]
        warm = run_rounds(cli.main, plan, lambda start: fixed)
        rec = tracing.Recorder()
        restore = tracing.install(rec)
        traced = run_rounds(cli.main, plan, lambda start: fixed, rec)
        restore()
        untraced = run_rounds(cli.main, plan, lambda start: fixed)
        report["passes"] = [warm, traced, untraced]
        report["spans"] = rec.to_json()
    # the probe's arrays are resident from the first probe on, after the
    # warm-up op; they are the harness's, not the program's
    probe_kb = sum(x.nbytes for x in _PROBE_ARRAYS) // 1024
    report["peak_rss_kb"] = peak_rss_kb() - probe_kb
    Path(result_path).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
