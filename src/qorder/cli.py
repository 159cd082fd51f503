"""Command line interface.

Exit codes: 0 success, 1 domain error (printed to stderr with an ``error:``
prefix), 2 usage error.  ``QO_SEED`` supplies the default seed for the
randomized search.  All output is deterministic given flags and seed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import click

from . import design as design_mod
from . import orders, setclass, spectra, timbre

_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    help="Output format.",
)


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to the current standard output, or standard error.

    The stream is resolved on each call, as click does without ``file=``
    (an ASCII-configured stream is rewrapped as UTF-8), but not through
    click's cache: that cache is keyed weakly on the stream with the stream
    itself as the value, so it would keep every stream an in-process caller
    redirected to alive until exit.  File-system bytes in ``message`` (its
    surrogate escapes) are read as UTF-8, as spectrum names are.
    """
    message = message.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    click.echo(message, file=click.get_text_stream("stderr" if err else "stdout", errors=None))


def _echo_json(payload) -> None:
    _echo(json.dumps(payload, indent=2, sort_keys=True))


def _domain_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (ValueError, OSError) as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main() -> None:
    """Quotient orders for chords, scales, and timbral brightness."""


# -- setclass ----------------------------------------------------------------


@main.group("setclass")
def setclass_group() -> None:
    """Pitch class set classes in N-tone equal temperament."""


@setclass_group.command("minimal")
@click.option("--edo", type=int, required=True, help="Tones per octave.")
@click.option("--max-second", "max_second", type=int, required=True,
              help="Largest allowed adjacent step span.")
@_FORMAT
@_domain_errors
def setclass_minimal(edo: int, max_second: int, fmt: str) -> None:
    """Minimal classes of the subset order among bounded-step classes."""
    classes = setclass.span_limited_minimal(edo, max_second)
    if fmt == "json":
        _echo_json({
            "edo": edo,
            "max_second": max_second,
            "classes": [setclass.class_to_json(c) for c in classes],
        })
    else:
        for cls in classes:
            _echo(str(cls))


@setclass_group.command("count")
@click.option("--edo", type=int, required=True)
@_FORMAT
@_domain_errors
def setclass_count(edo: int, fmt: str) -> None:
    """Count the transposition classes and cross-check by orbit counting."""
    count = setclass.count_set_classes(edo)
    check = setclass.burnside_count(edo)
    if fmt == "json":
        _echo_json({"edo": edo, "count": count, "burnside": check, "match": count == check})
    else:
        _echo(f"set classes: {count}")
        _echo(f"burnside: {check}")


@setclass_group.command("check-prop1")
@click.option("--edo", type=int, required=True)
@click.option("--max-second", "max_second", type=int, required=True)
@_FORMAT
@_domain_errors
def setclass_check_prop1(edo: int, max_second: int, fmt: str) -> None:
    """Verify that minimal bounded-step classes are exactly those whose
    two-step spans all exceed the step bound."""
    holds = setclass.thirds_criterion_holds(edo, max_second)
    if fmt == "json":
        _echo_json({"edo": edo, "max_second": max_second, "holds": holds})
    else:
        _echo(f"holds: {str(holds).lower()}")


# -- timbre -------------------------------------------------------------------


@main.group("timbre")
def timbre_group() -> None:
    """Brightness order on harmonic spectra."""


def _load_vectors(paths) -> list[timbre.TimbralVector]:
    """The spectra at ``paths``, normalised and zero-padded to the longest:
    unlisted harmonics read as zero power."""
    raws = [spectra.load_spectrum(path) for path in paths]
    longest = max(raw.powers.size for raw in raws)
    return [spectra.normalize(raw, longest) for raw in raws]


@timbre_group.command("compare")
@click.argument("spectrum_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("spectrum_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=1e-9, show_default=True)
@_FORMAT
@_domain_errors
def timbre_compare(spectrum_a: str, spectrum_b: str, tol: float, fmt: str) -> None:
    """Compare two spectra in the brightness order."""
    orders.check_tolerance(tol, "--tol")
    a, b = _load_vectors([spectrum_a, spectrum_b])
    verdict = timbre.brightness_compare(a, b, tol)
    if fmt == "json":
        _echo_json({"a": a.name, "b": b.name, "verdict": verdict.value})
    else:
        _echo(verdict.value)


@timbre_group.command("hasse")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False), default=None,
              help="Write the cover relation as a DOT file.")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@_FORMAT
@_domain_errors
def timbre_hasse(directory: str, dot_path: str | None, tol: float, fmt: str) -> None:
    """Brightness diagram of every CSV spectrum in a directory."""
    orders.check_tolerance(tol, "--tol")
    paths = sorted(Path(directory).glob("*.csv"))
    if not paths:
        raise ValueError(f"no .csv spectra found in {directory}")
    collection = _load_vectors(paths)
    diagram = timbre.brightness_hasse(collection, tol)
    dot = spectra.export_dot(diagram.cover, diagram.names)
    if dot_path is not None:
        Path(dot_path).write_text(dot, encoding="utf-8")
    edges = sorted((diagram.names[i], diagram.names[j]) for i, j in diagram.cover.pairs())
    if fmt == "json":
        _echo_json({
            "names": sorted(diagram.names),
            "maximal": list(diagram.maximal),
            "minimal": list(diagram.minimal),
            "edges": [list(e) for e in edges],
            "near_equal": [list(pair) for pair in diagram.near_equal],
        })
    else:
        _echo("maximal: " + ", ".join(diagram.maximal))
        _echo("minimal: " + ", ".join(diagram.minimal))
        for src, dst in edges:
            _echo(f"{src} -> {dst}")
        if dot_path is not None:
            _echo(f"wrote {dot_path}")


@timbre_group.command("design")
@click.option("--target", "target_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--bound", "bound_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--variant", type=click.Choice([v.value for v in design_mod.Variant]),
              default=design_mod.Variant.CLOSEST_TO_TARGET.value, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the solution JSON to this path.")
@_domain_errors
def timbre_design(target_path: str, bound_path: str, variant: str, out_path: str | None) -> None:
    """Find the timbre no brighter than the bound that best matches the target."""
    target, bound = _load_vectors([target_path, bound_path])
    problem = design_mod.DesignProblem(target, bound, design_mod.Variant(variant))
    solution = design_mod.solve_design(problem)
    optimal = solution.x is not None
    payload = {
        "x": [float(v) for v in solution.x.power] if optimal else None,
        "objective": solution.objective if optimal else None,
        "tv_distance": solution.objective / 2.0 if optimal else None,
        "x_leq_p": design_mod.solution_no_brighter_than_target(problem, solution) if optimal else None,
        "status": solution.status.value,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path is not None:
        Path(out_path).write_text(text + "\n")
    _echo(text)


@timbre_group.command("counterexample")
@click.option("--n", "n", type=int, default=4, show_default=True)
@click.option("--trials", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=0, envvar="QO_SEED", show_default=True,
              help="Read from QO_SEED when not given.")
@click.option("--gap-tol", "gap_tol", type=float, default=1e-4, show_default=True)
@_FORMAT
@_domain_errors
def timbre_counterexample(n: int, trials: int, seed: int, gap_tol: float, fmt: str) -> None:
    """Search for instances where the dominance infimum of bound and target
    fails to minimise the distance to the target."""
    report = design_mod.counterexample_search(n, trials, seed, gap_tol)
    payload = {
        "n": report.n,
        "trials": report.trials,
        "seed": report.seed,
        "gap_tol": report.gap_tol,
        "found": report.found,
    }
    if report.found:
        payload.update({
            "trial_index": report.trial_index,
            "target": [float(v) for v in report.target],
            "bound": [float(v) for v in report.bound],
            "infimum": [float(v) for v in report.infimum_point],
            "objective_at_infimum": report.objective_at_infimum,
            "lp_objective": report.lp_objective,
            "gap": report.gap,
        })
    if fmt == "json":
        _echo_json(payload)
    elif report.found:
        _echo(f"found at trial {report.trial_index} (seed {report.seed}): "
              f"gap {report.gap:.6g}")
        _echo(f"target: {list(map(float, report.target))}")
        _echo(f"bound: {list(map(float, report.bound))}")
    else:
        _echo(f"not found in {report.trials} trials (seed {report.seed}); inconclusive")


# -- order --------------------------------------------------------------------


@main.group("order")
def order_group() -> None:
    """Generic finite relations and quotient orders."""


@order_group.command("check")
@click.option("--relation", "relation_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--action", "action_path", type=click.Path(exists=True, dir_okay=False), required=True)
@_FORMAT
@_domain_errors
def order_check(relation_path: str, action_path: str, fmt: str) -> None:
    """Induce quotient relations and report the order-theoretic diagnostics."""
    rel = orders.relation_from_json(json.loads(Path(relation_path).read_text()))
    action = orders.action_from_json(json.loads(Path(action_path).read_text()))
    props = orders.action_properties(rel, action)
    strong, weak = orders.induced_relations(rel, action)
    strong_axioms = orders.relation_axioms(strong.relation)
    weak_axioms = orders.relation_axioms(weak.relation)
    same = bool((strong.relation.rows == weak.relation.rows).all())
    diagnostics = {
        "strong_is_preorder": strong_axioms.preorder,
        "increasing_implies_equal": same if props.increasing else None,
        "transverse_implies_antisymmetric": (
            strong_axioms.antisymmetric if props.transverse else None
        ),
    }
    if fmt == "json":
        _echo_json({
            "orbits": [list(o) for o in strong.orbits],
            "increasing": props.increasing,
            "transverse": props.transverse,
            "strong": dataclasses.asdict(strong_axioms),
            "weak": dataclasses.asdict(weak_axioms),
            "strong_equals_weak": same,
            "diagnostics": diagnostics,
        })
    else:
        _echo("orbits: " + " ".join("{" + ",".join(map(str, o)) + "}" for o in strong.orbits))
        _echo(f"increasing: {str(props.increasing).lower()}")
        _echo(f"transverse: {str(props.transverse).lower()}")
        axioms = dataclasses.asdict(strong_axioms).items()
        _echo("strong axioms: " + " ".join(f"{k}={str(v).lower()}" for k, v in axioms))
        _echo(f"strong equals weak: {str(same).lower()}")


# -- submajorize ----------------------------------------------------------------


@main.command("submajorize")
@click.argument("multiset_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("multiset_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=1e-9, show_default=True)
@_FORMAT
@_domain_errors
def submajorize_cmd(multiset_a: str, multiset_b: str, tol: float, fmt: str) -> None:
    """Compare two JSON arrays of reals by descending prefix sums."""

    def load(path: str) -> list[float]:
        data = json.loads(Path(path).read_text())
        if isinstance(data, dict) and "values" in data:
            data = data["values"]
        if not isinstance(data, list):
            raise ValueError(f"{path}: expected a JSON array of numbers")
        values = []
        for v in data:
            # only JSON numbers: not true/false, which Python counts as ints,
            # nor numeric strings; an integer beyond the float range overflows
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            try:
                values.append(float(v) if number else math.nan)
            except OverflowError:
                values.append(math.inf)
            if not math.isfinite(values[-1]):
                raise ValueError(f"{path}: expected finite numbers, got {json.dumps(v)}")
        return values

    orders.check_tolerance(tol, "--tol")
    verdict = orders.submajorize_compare(load(multiset_a), load(multiset_b), tol)
    if fmt == "json":
        _echo_json({"verdict": verdict.value})
    else:
        _echo(verdict.value)


if __name__ == "__main__":  # pragma: no cover
    main()
