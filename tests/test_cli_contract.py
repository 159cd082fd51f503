"""The CLI contract for the set-class commands, ``timbre counterexample``,
``order check`` and ``submajorize``: every input gets a correct answer or
one clean ``error:`` line, never a traceback.

Each command runs in process through ``main.main`` over a grid of options
or of generated JSON files, valid and not.  Set-class answers are checked
by the benchmark's own reference, ``perfbench/reference.py``, which does
not call qorder.
"""

import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qorder.cli import main
from qorder.orders import Comparison
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


def rotations(size, steps):
    """The rotations of 0..size-1 by multiples of ``steps``: a group when
    ``steps`` is every multiple, one element and the identity otherwise."""
    return [[(i + k) % size for i in range(size)] for k in steps]


def relations():
    """(name, relation JSON, expected exit code) for ``order check``: the
    empty relation and the total order on each size 0 to 6, and malformed
    ones on size 4.  JSON true and false are refused, alone and beside
    integers (numpy reads ``[0, true]`` as integers)."""
    for size in range(7):
        yield f"empty{size}", {"size": size, "pairs": []}, 0
        yield f"chain{size}", {"size": size, "pairs": [[i, j] for i in range(size) for j in range(i, size)]}, 0
    for name, payload in [
        ("out-of-range", {"size": 4, "pairs": [[0, 4]]}), ("negative", {"size": 4, "pairs": [[-1, 0]]}),
        ("fraction", {"size": 4, "pairs": [[0, 1.5]]}), ("string", {"size": 4, "pairs": [[0, "1"]]}),
        ("triple", {"size": 4, "pairs": [[0, 1, 2]]}), ("single", {"size": 4, "pairs": [[0]]}),
        ("scalar-pairs", {"size": 4, "pairs": 3}), ("no-size", {"pairs": []}), ("list", [[0, 1]]),
        ("size-fraction", {"size": 4.5, "pairs": []}), ("size-negative", {"size": -1, "pairs": []}),
        ("size-above", {"size": 8193, "pairs": []}),
        *((f"past-int64-{i}", {"size": 4, "pairs": [[0, big]]}) for i, big in enumerate(PAST_INT64_JSON)),
        ("size-past-int64", {"size": 2**64 + 1, "pairs": []}),
        ("booleans", {"size": 4, "pairs": [[True, False]]}),
        ("mixed-booleans", {"size": 4, "pairs": [[0, True]]}),
    ]:
        yield name, payload, 1


def actions():
    """(name, action JSON, expected exit code): the trivial and the cyclic
    group on each size 0 to 6, and on size 4 lists that are no group of
    permutations."""
    for size in range(7):
        yield f"trivial{size}", {"size": size, "perms": rotations(size, [0])}, 0
        yield f"cyclic{size}", {"size": size, "perms": rotations(size, range(max(size, 1)))}, 0
    for name, payload in [
        ("not-closed", {"size": 4, "perms": rotations(4, [0, 1])}),
        ("no-identity", {"size": 4, "perms": rotations(4, [1, 2, 3])}),
        ("no-perms", {"size": 4, "perms": []}),
        ("repeat", {"size": 4, "perms": [[0, 1, 2, 3], [0, 0, 1, 2]]}),
        ("short", {"size": 4, "perms": [[0, 1, 2]]}), ("out-of-range", {"size": 4, "perms": [[1, 2, 3, 4]]}),
        ("fraction", {"size": 4, "perms": [[0, 1, 2, 3.5]]}), ("string", {"size": 4, "perms": [["0", 1, 2, 3]]}),
        ("ragged", {"size": 4, "perms": [[0, 1, 2, 3], [0, 1]]}),
        *((f"past-int64-{i}", {"size": 4, "perms": [[0, 1, 2, big]]}) for i, big in enumerate(PAST_INT64_JSON)),
        # both would read as the identity on two points
        ("booleans", {"size": 2, "perms": [[False, True]]}),
        ("mixed-booleans", {"size": 2, "perms": [[0, True]]}),
    ]:
        yield name, payload, 1


# integers past int64 as JSON reads them: one just past each end, and 2**64 + 1
PAST_INT64_JSON = (2**63, -(2**63) - 1, 2**64 + 1)


def assert_names_past_int64(payload, err):
    """An error on a file holding an integer past int64 names it as given."""
    text = json.dumps(payload)
    for big in PAST_INT64_JSON:
        if str(big) in text:
            assert err.rstrip().endswith(f"got {big}"), err


def written(tmp_path, kind, cases):
    """{name: (path, JSON, expected exit code)}, each case written to a file."""
    files = {}
    for name, payload, code in cases:
        files[name] = tmp_path / f"{kind}-{name}.json", payload, code
        files[name][0].write_text(json.dumps(payload))
    return files


def test_order_check(tmp_path):
    files = {"relation": written(tmp_path, "relation", relations()),
             "action": written(tmp_path, "action", actions())}
    # each relation with the trivial action on its size, each action with
    # the total order on its size; size 4 stands in for a malformed size
    for kind, other, stem in (("relation", "action", "trivial"), ("action", "relation", "chain")):
        for path, payload, code in files[kind].values():
            size = payload.get("size") if isinstance(payload, dict) else None
            paths = {kind: path, other: files[other][f"{stem}{size if size in range(7) else 4}"][0]}
            got, out, err = run(["order", "check", "--relation", str(paths["relation"]),
                                 "--action", str(paths["action"]), "--format", "json"])
            assert_clean(got, out, err, code)
            if got == 0:
                orbits = json.loads(out)["orbits"]
                assert sorted(x for orbit in orbits for x in orbit) == list(range(size))
            assert_names_past_int64(payload, err)
    # sizes that differ
    got, out, err = run(["order", "check", "--relation", str(files["relation"]["chain3"][0]),
                         "--action", str(files["action"]["cyclic4"][0])])
    assert_clean(got, out, err, 1)


def multisets():
    """(name, JSON, readable) for ``submajorize``: arrays of 0 to 6 numbers,
    the ``values`` form, and arrays or objects that are no multiset of
    reals.  An integer past int64 is a real; one past the float range is not."""
    for size in range(7):
        yield f"ints{size}", list(range(size, 0, -1)), True
        yield f"floats{size}", [0.5 * i - 1 for i in range(size)], True
    yield "values", {"values": [1, 2, 3]}, True
    yield "past-int64", [2**63, -(2**63) - 1, 2**64 + 1], True
    for name, payload in [
        ("boolean", [1, True, 2]), ("string", [1, "2", 3]), ("null", [1, None, 3]), ("nested", [1, [2], 3]),
        ("past-float", [1, 10**400, 3]), ("object", {"x": [1, 2, 3]}), ("scalar", 3),
    ]:
        yield name, payload, False


def test_submajorize(tmp_path):
    # every ordered pair of files
    files = written(tmp_path, "multiset", multisets())
    for a_name, (a, a_payload, a_readable) in files.items():
        for b, b_payload, b_readable in files.values():
            code, out, err = run(["submajorize", str(a), str(b), "--format", "json"])
            sizes = [len(x["values"] if isinstance(x, dict) else x) if readable else None
                     for x, readable in ((a_payload, a_readable), (b_payload, b_readable))]
            valid = sizes[0] is not None and sizes[0] == sizes[1] and sizes[0] > 0
            assert_clean(code, out, err, 0 if valid else 1)
            if valid:
                assert Comparison(json.loads(out)["verdict"])
            elif a_name == "past-float":
                assert err.rstrip().endswith(f"got {10**400}"), err
