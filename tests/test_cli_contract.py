"""The CLI contract for the set-class commands and ``timbre counterexample``:
every input gets a correct answer or one clean ``error:`` line, never a
traceback.

Each command runs in process through ``main.main`` over a grid of options,
valid and not.  Set-class answers are checked by the benchmark's own
reference, ``perfbench/reference.py``, which does not call qorder.
"""

import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qorder.cli import main
from qorder.setclass import MAX_EDO
from qorder.spectra import MAX_HARMONICS

_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).parents[1] / "perfbench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

EDOS = ("0", "1", "2", "12", "18", "25", "12.5", "x")


def max_seconds(edo):
    """0, 1, 3, the edo and one above it; the last only for an integer edo."""
    return ("0", "1", "3", edo) + ((str(int(edo) + 1),) if edo.isdigit() else ())


def run(args):
    """(exit code, stdout, stderr) of ``qorder ARGS`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        main.main(args=args, prog_name="qorder")
    return exit_info.value.code, out.getvalue(), err.getvalue()


def expected_code(edo, max_second=None):
    """0 for a supported edo and step bound, 1 for other integers, 2 for text
    click does not read as an integer."""
    if not edo.isdigit() or (max_second is not None and not max_second.isdigit()):
        return 2
    edo_ok = 1 <= int(edo) <= MAX_EDO
    return 0 if edo_ok and (max_second is None or 1 <= int(max_second) <= int(edo)) else 1


def assert_clean(code, out, err, expected):
    assert code == expected, (out, err)
    assert "Traceback" not in out + err
    if code == 1:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("command", ["minimal", "check-prop1"])
def test_step_bounded_commands(command):
    for edo in EDOS:
        for max_second in max_seconds(edo):
            code, out, err = run(["setclass", command, "--edo", edo, "--max-second", max_second,
                                  "--format", "json"])
            assert_clean(code, out, err, expected_code(edo, max_second))
            if code == 0 and command == "minimal":
                assert reference.check_setclass(int(edo), int(max_second), json.loads(out)) is None
            elif code == 0:
                assert json.loads(out)["holds"] is True


def test_count():
    for edo in EDOS:
        code, out, err = run(["setclass", "count", "--edo", edo, "--format", "json"])
        assert_clean(code, out, err, expected_code(edo))
        if code == 0:
            data = json.loads(out)
            assert data["match"] is True and data["count"] == reference.burnside(int(edo))


def test_counterexample():
    for n in (2, 3, 4, 16):
        for trials in (1, 5, 300):
            for seed in (0, 1, 2**31):
                for gap_tol in ("0", "1e-4", "nan", "-1", "1e400"):
                    code, out, err = run(["timbre", "counterexample", "--n", str(n), "--trials",
                                          str(trials), "--seed", str(seed), "--gap-tol", gap_tol,
                                          "--format", "json"])
                    assert_clean(code, out, err, 0 if gap_tol in ("0", "1e-4") else 1)
                    if code == 0:
                        data = json.loads(out)
                        assert (data["n"], data["trials"], data["seed"]) == (n, trials, seed)
                        # the infimum is optimal for n <= 3
                        assert not data["found"] or n > 3


PAST_INT64 = (str(2**63), str(2**64 + 1))


@pytest.mark.parametrize("option", ["--n", "--trials", "--seed"])
@pytest.mark.parametrize("value", ["1.5", "-1", str(MAX_HARMONICS + 1), *PAST_INT64])
def test_counterexample_bad_integers(option, value):
    if value == "1.5":
        expected = 2
    elif value == str(MAX_HARMONICS + 1):  # above the harmonic cap: an error for n only
        expected = 1 if option == "--n" else 0
    else:
        expected = 1
    # the other options at small valid values
    args = {"--n": "4", "--trials": "5", "--seed": "0", option: value}
    code, out, err = run(["timbre", "counterexample", *(x for kv in args.items() for x in kv),
                          "--format", "json"])
    assert_clean(code, out, err, expected)
    if value in PAST_INT64:
        # named as given, not wrapped round to a negative int64
        assert err.rstrip().endswith(f"got {value}"), err
