"""The CLI contract for the set-class commands: every input gets a correct
answer or one clean ``error:`` line, never a traceback.

Each command runs in process through ``main.main`` over a grid of edos and
step bounds, valid and not.  Answers are checked by the benchmark's own
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
