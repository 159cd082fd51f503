import gc
import io
import json
import math
import os
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qorder
from qorder import design, setclass
from qorder.cli import main
from qorder.simplex import LPResult, LPStatus
from qorder.spectra import fixture_dir

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


GOLDEN_CASES = {
    "setclass_minimal.json": ["setclass", "minimal", "--edo", "12", "--max-second", "2",
                              "--format", "json"],
    "setclass_count.json": ["setclass", "count", "--edo", "12", "--format", "json"],
    "setclass_prop1.json": ["setclass", "check-prop1", "--edo", "12", "--max-second", "3",
                            "--format", "json"],
    "timbre_compare.json": ["timbre", "compare",
                            str(fixture_dir() / "synthetic_horn.csv"),
                            str(fixture_dir() / "synthetic_trumpet.csv"),
                            "--format", "json"],
    "timbre_hasse.json": ["timbre", "hasse", str(fixture_dir()), "--format", "json"],
    "timbre_design.json": ["timbre", "design", "--target", str(DATA / "target3.csv"),
                           "--bound", str(DATA / "bound3.csv"),
                           "--variant", "closest-to-bound"],
    # n = 4, where other points than the returned vertex are also optimal
    "timbre_design_n4.json": ["timbre", "design", "--target", str(DATA / "target4.csv"),
                              "--bound", str(DATA / "bound4.csv"),
                              "--variant", "closest-to-bound"],
    "timbre_counterexample.json": ["timbre", "counterexample", "--n", "3", "--trials", "50",
                                   "--seed", "1", "--format", "json"],
    "order_check.json": ["order", "check",
                         "--relation", str(DATA / "relation_example.json"),
                         "--action", str(DATA / "action_example.json"),
                         "--format", "json"],
    "submajorize.json": ["submajorize", str(DATA / "submajorize_a.json"),
                         str(DATA / "submajorize_b.json"), "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_outputs_match_goldens(runner, name):
    output = run_ok(runner, GOLDEN_CASES[name])
    assert output == (GOLDEN / name).read_text()


def test_order_check_text_output(runner):
    output = run_ok(runner, ["order", "check",
                             "--relation", str(DATA / "relation_example.json"),
                             "--action", str(DATA / "action_example.json")])
    assert output == (
        "orbits: {0,2} {1,3}\n"
        "increasing: false\n"
        "transverse: true\n"
        "strong axioms: reflexive=true antisymmetric=true transitive=true\n"
        "strong equals weak: false\n"
    )


class TestSetclassCommands:
    def test_minimal_text_lines(self, runner):
        output = run_ok(runner, ["setclass", "minimal", "--edo", "12", "--max-second", "2"])
        assert output.splitlines() == [
            "{0,1,3,4,6,7,9,10}",
            "{0,1,3,4,6,8,10}",
            "{0,1,3,5,6,8,10}",
            "{0,2,4,6,8,10}",
        ]

    def test_count_text(self, runner):
        output = run_ok(runner, ["setclass", "count", "--edo", "12"])
        assert output == "set classes: 352\nburnside: 352\n"

    def test_prop1_text(self, runner):
        output = run_ok(runner, ["setclass", "check-prop1", "--edo", "7", "--max-second", "2"])
        assert output == "holds: true\n"

    def test_count_builds_no_class(self, runner, monkeypatch):
        def refuse(*args):
            raise AssertionError("setclass count built a class")

        monkeypatch.setattr(setclass, "canonical_form", refuse)
        monkeypatch.setattr(setclass, "_derived", refuse)
        output = run_ok(runner, ["setclass", "count", "--edo", "16", "--format", "json"])
        assert json.loads(output) == {"edo": 16, "count": 4116, "burnside": 4116, "match": True}


class TestTimbreCommands:
    def test_compare_text(self, runner):
        output = run_ok(runner, [
            "timbre", "compare",
            str(fixture_dir() / "synthetic_horn.csv"),
            str(fixture_dir() / "synthetic_trumpet.csv"),
        ])
        assert output == "Less\n"

    def test_hasse_writes_dot(self, runner, tmp_path):
        dot_path = tmp_path / "out.dot"
        run_ok(runner, ["timbre", "hasse", str(fixture_dir()), "--dot", str(dot_path)])
        assert dot_path.read_text() == (GOLDEN / "fixture_hasse.dot").read_text()

    def test_hasse_dot_escapes_quote_and_backslash(self, runner, tmp_path):
        directory = tmp_path / "spectra"
        directory.mkdir()
        names = {'a"b': "1,2.0\n2,1.0\n", "c\\d": "1,1.0\n2,2.0\n"}
        for name, text in names.items():
            (directory / f"{name}.csv").write_text(text)
        dot_path = tmp_path / "out.dot"
        output = run_ok(runner, ["timbre", "hasse", str(directory), "--dot", str(dot_path)])
        assert output.splitlines()[2] == 'a"b -> c\\d'
        assert dot_path.read_text() == (
            'digraph brightness {\n  "a\\"b";\n  "c\\\\d";\n  "a\\"b" -> "c\\\\d";\n}\n'
        )

    def test_design_writes_out_file(self, runner, tmp_path):
        out = tmp_path / "solution.json"
        output = run_ok(runner, [
            "timbre", "design", "--target", str(DATA / "target3.csv"),
            "--bound", str(DATA / "bound3.csv"), "--out", str(out),
        ])
        payload = json.loads(out.read_text())
        assert json.loads(output) == payload
        assert payload["status"] == "optimal"
        assert payload["objective"] == pytest.approx(0.8, abs=1e-9)
        assert payload["tv_distance"] == pytest.approx(0.4, abs=1e-9)
        assert payload["x_leq_p"] is True

    @pytest.mark.parametrize("variant", [v.value for v in design.Variant])
    def test_design_numerical_failure_payload(self, runner, monkeypatch, variant):
        if variant == "closest-to-bound":
            # no LP: the closed-form point misses a proved optimum that is off by 1e-6
            optimum = design.closest_to_target_optimum
            monkeypatch.setattr(design, "closest_to_target_optimum", lambda p, b: optimum(p, b) + 1e-6)
        else:
            monkeypatch.setattr(design, "lp_solve",
                                lambda lp: LPResult(np.zeros(lp.n_vars), math.nan, LPStatus.INFEASIBLE))
        output = run_ok(runner, ["timbre", "design", "--target", str(DATA / "target3.csv"),
                                 "--bound", str(DATA / "bound3.csv"), "--variant", variant])
        assert json.loads(output) == {
            "status": "numerical_failure", "x": None, "objective": None, "tv_distance": None, "x_leq_p": None,
        }

    def test_compare_reads_byte_order_marked_file(self, runner, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("1,0.5\n2,0.5\n")
        marked.write_bytes(b"\xef\xbb\xbf1,0.5\n2,0.5\n")
        assert run_ok(runner, ["timbre", "compare", str(marked), str(plain)]) == "Equal\n"

    @pytest.mark.parametrize("command", ["compare", "hasse", "design"])
    def test_spectra_padded_to_longest(self, runner, tmp_path, command):
        # a 2- and a 3-harmonic spectrum answer as if the first listed "3,0"
        spectra = {"a": "1,3.0\n2,1.0\n", "b": "1,1.0\n2,1.0\n3,2.0\n"}
        outputs = []
        for padding in ("", "3,0\n"):
            directory = tmp_path / f"padded{bool(padding)}"
            directory.mkdir()
            (directory / "a.csv").write_text(spectra["a"] + padding)
            (directory / "b.csv").write_text(spectra["b"])
            a, b = str(directory / "a.csv"), str(directory / "b.csv")
            args = {
                "compare": ["timbre", "compare", a, b],
                "hasse": ["timbre", "hasse", str(directory), "--format", "json"],
                "design": ["timbre", "design", "--target", b, "--bound", a],
            }[command]
            outputs.append(run_ok(runner, args))
        assert outputs[0] == outputs[1]
        if command == "compare":
            assert outputs[0] == "Less\n"

    def test_counterexample_text_found(self, runner):
        output = run_ok(runner, ["timbre", "counterexample", "--n", "4", "--trials", "2000",
                                 "--seed", "0"])
        assert output.startswith("found at trial 18")

    def test_counterexample_matches_committed_instance(self, runner):
        output = run_ok(runner, ["timbre", "counterexample", "--n", "4", "--seed", "0",
                                 "--format", "json"])
        report = json.loads(output)
        committed = json.loads((DATA / "infimum_gap_n4.json").read_text())
        assert report["found"]
        assert report["trial_index"] == committed["trial_index"] == 18
        for key in ("target", "bound", "infimum"):
            assert len(report[key]) == len(committed[key]) == 4
            assert all(abs(a - b) <= 1e-12 for a, b in zip(report[key], committed[key]))
        for key in ("objective_at_infimum", "lp_objective", "gap"):
            assert abs(report[key] - committed[key]) <= 1e-12

    def test_seed_env_default(self, runner):
        with_env = runner.invoke(
            main,
            ["timbre", "counterexample", "--n", "4", "--trials", "2000", "--format", "json"],
            env={"QO_SEED": "0"},
            catch_exceptions=False,
        )
        assert with_env.exit_code == 0
        assert json.loads(with_env.output)["seed"] == 0
        assert json.loads(with_env.output)["trial_index"] == 18


class TestErrorPaths:
    def test_domain_error_exit_one(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,-2.0\n")
        result = runner.invoke(main, ["timbre", "compare", str(bad), str(bad)])
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_huge_harmonic_index_exit_one(self, runner, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text("1,1.0\n1000000000000,1\n")
        result = runner.invoke(main, ["timbre", "compare", str(huge), str(huge)])
        assert result.exit_code == 1
        assert f"error: {huge}:2: harmonic index" in result.output

    def test_unparsable_first_row_exit_one(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,abc\n2,0.5\n")
        result = runner.invoke(main, ["timbre", "compare", str(bad), str(bad)])
        assert result.exit_code == 1
        assert result.output == f"error: {bad}:1: non-numeric field in '1,abc'\n"

    def test_overflowing_total_power_exit_one(self, runner, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text("1,1e308\n2,1e308\n")
        result = runner.invoke(main, ["timbre", "compare", str(huge), str(huge)])
        assert result.exit_code == 1
        assert result.output == "error: spectrum 'huge' has non-finite total power\n"

    @pytest.mark.parametrize("command", ["minimal", "check-prop1"])
    def test_family_above_order_limit_refused_before_any_class(self, runner, monkeypatch, command):
        def no_class(pcs):
            raise AssertionError("a class was built above the family limit")

        monkeypatch.setattr(setclass, "MAX_ORDER_CLASSES", 100)
        monkeypatch.setattr(setclass, "canonical_form", no_class)
        result = runner.invoke(main, ["setclass", command, "--edo", "12", "--max-second", "12"])
        assert result.exit_code == 1
        assert result.output.startswith("error: family of 351 classes exceeds")

    def test_family_above_order_limit_exit_one(self, runner, monkeypatch):
        # edo 12, steps up to 12: 351 nonempty classes
        monkeypatch.setattr(setclass, "MAX_ORDER_CLASSES", 100)
        result = runner.invoke(main, ["setclass", "minimal", "--edo", "12", "--max-second", "12"])
        assert result.exit_code == 1
        assert "error: family of 351 classes exceeds" in result.output

    def test_order_check_size_above_bound_exit_one(self, runner, tmp_path):
        from qorder.orders import MAX_GROUND_SIZE

        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"size": 1000000, "pairs": []}))
        action = DATA / "action_example.json"
        result = runner.invoke(main, ["order", "check", "--relation", str(huge),
                                      "--action", str(action)])
        assert result.exit_code == 1
        assert f"error: size must be between 0 and {MAX_GROUND_SIZE}" in result.output
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"size": MAX_GROUND_SIZE + 1, "perms": []}))
        result = runner.invoke(main, ["order", "check",
                                      "--relation", str(DATA / "relation_example.json"),
                                      "--action", str(wide)])
        assert result.exit_code == 1
        assert f"error: size must be between 0 and {MAX_GROUND_SIZE}" in result.output

    @pytest.mark.parametrize("kind, payload", [
        ("relation", {"size": 4, "pairs": [[0, 1.9]]}),
        ("relation", {"size": 4, "pairs": [[0, "1"]]}),
        ("relation", {"size": "4", "pairs": []}),
        ("action", {"size": 2, "perms": [[0.4, 1.2], [1.7, 0.3]]}),
        ("action", {"size": 2, "perms": [[0, "1"], [1, 0]]}),
    ])
    def test_order_check_non_integer_entries_exit_one(self, runner, tmp_path, kind, payload):
        paths = {"relation": DATA / "relation_example.json", "action": DATA / "action_example.json"}
        paths[kind] = tmp_path / "bad.json"
        paths[kind].write_text(json.dumps(payload))
        result = runner.invoke(main, ["order", "check", "--relation", str(paths["relation"]),
                                      "--action", str(paths["action"])])
        assert result.exit_code == 1
        assert result.output.startswith("error:")
        assert "expected integers" in result.output

    @pytest.mark.parametrize("kind, payload, big", [
        ("relation", {"size": 4, "pairs": [[0, 2**63]]}, 2**63),
        ("relation", {"size": 4, "pairs": [[2**64, 0]]}, 2**64),
        ("relation", {"size": 2**63, "pairs": []}, 2**63),
        ("action", {"size": 2, "perms": [[0, 1], [-(2**63) - 1, 0]]}, -(2**63) - 1),
    ])
    def test_order_check_names_integers_past_int64(self, runner, tmp_path, kind, payload, big):
        paths = {"relation": DATA / "relation_example.json", "action": DATA / "action_example.json"}
        paths[kind] = tmp_path / "big.json"
        paths[kind].write_text(json.dumps(payload))
        result = runner.invoke(main, ["order", "check", "--relation", str(paths["relation"]),
                                      "--action", str(paths["action"])])
        assert result.exit_code == 1
        assert result.output.startswith("error:")
        assert result.output.endswith(f"expected integers below 2**63 in magnitude, got {big}\n")

    def test_counterexample_n_above_harmonic_cap_exit_one(self, runner):
        result = runner.invoke(main, ["timbre", "counterexample", "--n", "100000"])
        assert result.exit_code == 1
        assert "error: n must be at least 2 and at most 1024" in result.output

    @pytest.mark.parametrize("args, env", [(["--seed", "-1"], {}), ([], {"QO_SEED": "-1"})],
                             ids=["option", "env"])
    def test_counterexample_negative_seed_exit_one(self, runner, args, env):
        result = runner.invoke(main, ["timbre", "counterexample", "--trials", "5", *args], env=env)
        assert result.exit_code == 1
        assert result.output == "error: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("command, option", [
        ("compare", "--tol"), ("hasse", "--tol"), ("counterexample", "--gap-tol"),
        ("submajorize", "--tol"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_tolerance_exit_one(self, runner, command, option, value):
        horn = str(fixture_dir() / "synthetic_horn.csv")
        args = {
            "compare": ["timbre", "compare", horn, horn],
            "hasse": ["timbre", "hasse", str(fixture_dir())],
            "counterexample": ["timbre", "counterexample", "--trials", "5"],
            "submajorize": ["submajorize", str(DATA / "submajorize_a.json"),
                            str(DATA / "submajorize_b.json")],
        }[command]
        result = runner.invoke(main, [*args, option, value, "--format", "json"])
        assert result.exit_code == 1
        problem = "nonnegative" if value == "-1" else "finite"
        assert f"must be {problem}, got {float(value)}" in result.output
        if option == "--tol":  # refused by the CLI, before any file is read
            assert f"--tol must be {problem}" in result.output
        assert result.output.startswith("error:")

    @pytest.mark.parametrize("values, shown", [
        ("[1, [2]]", "[2]"),
        ("[1, null]", "null"),
        ('[1, {"a": 2}]', '{"a": 2}'),
        ("[1, NaN]", "NaN"),
        ('{"values": [Infinity, 1]}', "Infinity"),
        ("[true, 2.5, 1]", "true"),
        ('[1, "2.5", 1]', '"2.5"'),
        ('[" 1e0 ", 2.5, 1]', '" 1e0 "'),
        ("[1, 1" + "0" * 400 + "]", "1" + "0" * 400),
    ], ids=["nested", "null", "object", "nan", "infinity", "boolean", "string",
            "padded-string", "huge-integer"])
    def test_submajorize_non_number_exit_one(self, runner, tmp_path, values, shown):
        bad = tmp_path / "bad.json"
        bad.write_text(values)
        result = runner.invoke(main, ["submajorize", str(bad), str(DATA / "submajorize_b.json")])
        assert result.exit_code == 1
        assert result.output == f"error: {bad}: expected finite numbers, got {shown}\n"

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_malformed_seed_env_exit_two(self, runner, value):
        result = runner.invoke(main, ["timbre", "counterexample", "--trials", "5"],
                               env={"QO_SEED": value})
        assert result.exit_code == 2
        assert "Invalid value for '--seed'" in result.output

    def test_usage_error_exit_two(self, runner):
        result = runner.invoke(main, ["setclass", "minimal", "--edo", "12", "--bogus"])
        assert result.exit_code == 2

    def test_missing_file_exit_two(self, runner):
        result = runner.invoke(main, ["timbre", "compare", "nope.csv", "also-nope.csv"])
        assert result.exit_code == 2


def test_spectrum_encoding_ignores_locale(tmp_path):
    # under the C locale, with UTF-8 mode off, the default text encoding is ASCII
    package_root = str(Path(qorder.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0"}
    accented, latin1 = tmp_path / "accented.csv", tmp_path / "latin1.csv"
    accented.write_bytes("# caf\u00e9\n1,0.5\n2,0.5\n".encode())
    latin1.write_bytes("# caf\u00e9\n1,0.5\n2,0.5\n".encode("latin-1"))
    procs = [subprocess.run([sys.executable, "-m", "qorder", "timbre", "compare", str(f), str(accented)],
                            capture_output=True, text=True, env=env) for f in (accented, latin1)]
    assert (procs[0].returncode, procs[0].stdout, procs[0].stderr) == (0, "Equal\n", "")
    assert procs[1].returncode == 1
    assert procs[1].stderr.startswith(f"error: {latin1}: not UTF-8 text: ")


def test_spectrum_names_ignore_locale(tmp_path):
    # under the C locale, with UTF-8 mode off, file names decode as ASCII
    package_root = str(Path(qorder.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0"}
    directory = tmp_path / "spectra"
    directory.mkdir()
    # brightest last; the last name is not UTF-8
    for name, text in ((b"b\xc3\xa9", "1,2\n2,1\n"), (b"c\xc3\xa9", "1,1\n2,2\n"), (b"d\xff", "1,1\n2,3\n")):
        (directory / os.fsdecode(name + b".csv")).write_text(text)
    dot_path = tmp_path / "out.dot"

    def hasse(*args):
        proc = subprocess.run([sys.executable, "-m", "qorder", "timbre", "hasse", str(directory), *args],
                              capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        return proc.stdout.decode("utf-8")

    assert hasse().splitlines() == [
        "maximal: d\\xff", "minimal: b\u00e9", "b\u00e9 -> c\u00e9", "c\u00e9 -> d\\xff",
    ]
    assert json.loads(hasse("--format", "json"))["names"] == ["b\u00e9", "c\u00e9", "d\\xff"]
    hasse("--dot", str(dot_path))
    assert dot_path.read_bytes().decode("utf-8") == (
        'digraph brightness {\n  "b\u00e9";\n  "c\u00e9";\n  "d\\\\xff";\n'
        '  "b\u00e9" -> "c\u00e9";\n  "c\u00e9" -> "d\\\\xff";\n}\n'
    )


@pytest.mark.parametrize("dot_name, shown", [
    (b"sorti\xc3\xa9.dot", "sorti\u00e9.dot"),
    (b"d\xff.dot", "d\\xff.dot"),
], ids=["utf-8", "not-utf-8"])
def test_paths_in_messages_ignore_locale(tmp_path, dot_name, shown):
    # under the C locale, with UTF-8 mode off, a path prints as its file-system
    # bytes read as UTF-8, the rule of spectrum names; other bytes as \xNN
    package_root = str(Path(qorder.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0"}
    (tmp_path / "loc").mkdir()
    bad, good = b"b\xc3\xa4d\xc3\xa9.csv", b"b\xc3\xa9.csv"
    (tmp_path / os.fsdecode(bad)).write_text("1,abc\n2,0.5\n")
    (tmp_path / os.fsdecode(good)).write_text("1,1\n")

    def run(*args):
        return subprocess.run([sys.executable, "-m", "qorder", *args], capture_output=True, cwd=tmp_path, env=env)

    hasse = run(b"timbre", b"hasse", os.fsencode(fixture_dir()), b"--dot", b"loc/" + dot_name)
    assert (hasse.returncode, hasse.stderr) == (0, b"")
    assert hasse.stdout.decode("utf-8").endswith(f"\nwrote loc/{shown}\n")
    assert (tmp_path / "loc" / os.fsdecode(dot_name)).is_file()
    compare = run(b"timbre", b"compare", bad, good)
    assert (compare.returncode, compare.stdout) == (1, b"")
    assert compare.stderr.decode("utf-8") == "error: b\u00e4d\u00e9.csv:1: non-numeric field in '1,abc'\n"


def test_in_process_calls_keep_no_redirected_stream(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,abc\n2,0.5\n")
    calls = [(["setclass", "count", "--edo", "5"], 0, "set classes: 8"),
             (["timbre", "compare", str(bad), str(bad)], 1, "error: ")]
    streams = []
    for args, code, prefix in calls * 3:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
            main.main(args=args, prog_name="qorder")
        assert exit_info.value.code == code
        assert (err if code else out).getvalue().startswith(prefix)
        streams += [weakref.ref(out), weakref.ref(err)]
        del out, err, exit_info
    gc.collect()
    assert [ref() for ref in streams] == [None] * len(streams)


def test_module_entry_point():
    # the child imports the same qorder as this process, installed or not
    package_root = str(Path(qorder.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qorder", "setclass", "count", "--edo", "5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "set classes: 8\nburnside: 8\n"


def run_capped(limit, *args):
    """``qorder setclass ARGS`` in a subprocess whose address space is capped
    at ``limit`` bytes, with one BLAS thread."""
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # the child imports the same qorder as this process, installed or not
    package_root = str(Path(qorder.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qorder", "setclass", *args],
        capture_output=True, text=True, preexec_fn=cap_address_space,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )


def test_check_prop1_at_22_3_within_512_mib():
    # K = 30,229 classes: the packed order is 114 MB where a K x K bool table
    # would be 871 MiB, more than the whole address space allowed here
    proc = run_capped(512 << 20, "check-prop1", "--edo", "22", "--max-second", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "holds: true\n", "")


@pytest.mark.parametrize("args, lines", [
    (("count", "--edo", "24"), 2),
    (("minimal", "--edo", "24", "--max-second", "2"), 39),
])
def test_edo_24_within_256_mib(args, lines):
    # the orbits of Z_24 are found 2**18 masks at a time: three arrays of all
    # 2**24 masks would take 192 MiB
    proc = run_capped(256 << 20, *args)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == lines
