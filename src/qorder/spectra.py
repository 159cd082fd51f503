"""Ingestion of tabulated harmonic power spectra and export plumbing.

CSV format: UTF-8 text, with or without a byte-order mark; one
``harmonic_index,power`` row per harmonic, 1-based indices, ``#`` comment
lines allowed.  The first other row is a header, and skipped, when neither of
its fields is a number.  Harmonics missing from the file below the largest
listed index are read as zero power; nothing is padded above it unless
``normalize`` is asked to.  Spectra hold at most ``MAX_HARMONICS`` harmonics,
read or padded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .orders import FiniteRelation, _integer
from .timbre import TimbralVector

FIXTURE_NAMES = (
    "synthetic_clarinet",
    "synthetic_flute",
    "synthetic_horn",
    "synthetic_oboe",
    "synthetic_sax",
    "synthetic_trumpet",
)

MAX_HARMONICS = 1024


class SpectrumFormatError(ValueError):
    """Raised for malformed spectrum files; message carries file and line."""


@dataclass(frozen=True, eq=False)
class RawSpectrum:
    """Unnormalised nonnegative powers in harmonic order, named."""

    name: str
    powers: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.powers, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("powers must be a nonempty 1-d vector")
        if bool((arr < 0).any()):
            raise ValueError("negative power in raw spectrum")
        arr.setflags(write=False)
        object.__setattr__(self, "powers", arr)


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def load_spectrum(path: str | Path) -> RawSpectrum:
    """Parse a spectrum CSV, named by its file stem; errors name the offending line.

    The name is the stem's file-system bytes read as UTF-8, whatever the
    locale; bytes that are not UTF-8 become ``\\xNN`` escapes, so that
    distinct files keep distinct names.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SpectrumFormatError(f"{path}: not UTF-8 text: {exc}") from None
    entries: dict[int, float] = {}
    first = True
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise SpectrumFormatError(f"{path}:{lineno}: expected 'index,power', got {line!r}")
        header, first = first and not any(map(_is_number, fields)), False
        if header:
            continue
        try:
            index = int(fields[0])
            power = float(fields[1])
        except ValueError:
            raise SpectrumFormatError(f"{path}:{lineno}: non-numeric field in {line!r}") from None
        if not 1 <= index <= MAX_HARMONICS:
            raise SpectrumFormatError(
                f"{path}:{lineno}: harmonic index {index} outside 1..{MAX_HARMONICS}"
            )
        if index in entries:
            raise SpectrumFormatError(f"{path}:{lineno}: duplicate harmonic index {index}")
        if not np.isfinite(power) or power < 0:
            raise SpectrumFormatError(f"{path}:{lineno}: negative or non-finite power {fields[1]}")
        entries[index] = power
    if not entries:
        raise SpectrumFormatError(f"{path}: no spectrum rows found")
    top = max(entries)
    powers = np.zeros(top)
    for index, power in entries.items():
        powers[index - 1] = power
    return RawSpectrum(os.fsencode(path.stem).decode("utf-8", "backslashreplace"), powers)


def normalize(raw: RawSpectrum, pad_to: int | None = None) -> TimbralVector:
    """Scale total power to one; optionally zero-pad the high-harmonic end."""
    with np.errstate(over="ignore"):
        total = float(raw.powers.sum())
    if not 0.0 < total < np.inf:
        raise ValueError(f"spectrum {raw.name!r} has {'zero' if total == 0.0 else 'non-finite'} total power")
    powers = raw.powers / total
    if pad_to is not None:
        pad_to = _integer(pad_to, "pad_to must be an integer")
        if pad_to < powers.size:
            raise ValueError(f"pad_to {pad_to} below spectrum length {powers.size}")
        if pad_to > MAX_HARMONICS:
            raise ValueError(f"pad_to {pad_to} above the limit of {MAX_HARMONICS} harmonics")
        powers = np.concatenate([powers, np.zeros(pad_to - powers.size)])
    return TimbralVector(powers, raw.name)


def _dot_id(name: str) -> str:
    """``name`` as a quoted DOT ID, its backslashes and double quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(cover: FiniteRelation, names: Sequence[str]) -> str:
    """Render a cover relation as a DOT digraph.

    An edge u -> v records that v covers u, i.e. v is the brighter of the
    two.  Node and edge order is lexicographic, so output is byte-stable.
    """
    if len(names) != cover.size:
        raise ValueError("one name per relation element required")
    lines = ["digraph brightness {"]
    for name in sorted(names):
        lines.append(f"  {_dot_id(name)};")
    edges = sorted((names[i], names[j]) for i, j in cover.pairs())
    for src, dst in edges:
        lines.append(f"  {_dot_id(src)} -> {_dot_id(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def fixture_dir() -> Path:
    """Directory holding the bundled synthetic instrument spectra."""
    return Path(str(resources.files("qorder") / "fixtures"))


def load_fixture_collection() -> list[TimbralVector]:
    """The six bundled synthetic spectra, normalised, sorted by name."""
    return [normalize(load_spectrum(fixture_dir() / f"{name}.csv")) for name in FIXTURE_NAMES]
