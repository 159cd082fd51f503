import numpy as np
import pytest

from qorder.orders import Comparison, FiniteRelation
from qorder.spectra import (
    FIXTURE_NAMES,
    MAX_HARMONICS,
    RawSpectrum,
    SpectrumFormatError,
    export_dot,
    fixture_dir,
    load_fixture_collection,
    load_spectrum,
    normalize,
)
from qorder.timbre import brightness_compare


def write(tmp_path, text, name="spec.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadSpectrum:
    def test_basic(self, tmp_path):
        raw = load_spectrum(write(tmp_path, "1,4.0\n2,2.0\n3,2.0\n"))
        assert np.allclose(raw.powers, [4.0, 2.0, 2.0])
        assert raw.name == "spec"

    def test_header_and_comments(self, tmp_path):
        raw = load_spectrum(write(tmp_path, "# comment\nharmonic_index,power\n1,1.0\n\n2,3.0\n"))
        assert np.allclose(raw.powers, [1.0, 3.0])

    def test_interior_gap_reads_as_zero(self, tmp_path):
        raw = load_spectrum(write(tmp_path, "1,1.0\n3,1.0\n"))
        assert np.allclose(raw.powers, [1.0, 0.0, 1.0])

    def test_negative_power_names_line(self, tmp_path):
        with pytest.raises(SpectrumFormatError, match=":2:"):
            load_spectrum(write(tmp_path, "1,1.0\n2,-0.5\n"))

    def test_non_numeric_field(self, tmp_path):
        with pytest.raises(SpectrumFormatError, match="non-numeric"):
            load_spectrum(write(tmp_path, "1,1.0\ntwo,0.5\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(SpectrumFormatError, match="no spectrum rows"):
            load_spectrum(write(tmp_path, "# nothing here\n"))

    def test_duplicate_index(self, tmp_path):
        with pytest.raises(SpectrumFormatError, match="duplicate"):
            load_spectrum(write(tmp_path, "1,1.0\n1,2.0\n"))

    def test_index_cap_names_line(self, tmp_path):
        raw = load_spectrum(write(tmp_path, f"1,1.0\n{MAX_HARMONICS},1.0\n"))
        assert raw.powers.size == MAX_HARMONICS
        for index in (0, MAX_HARMONICS + 1, 10**12):
            with pytest.raises(SpectrumFormatError, match=r"spec\.csv:2: harmonic index"):
                load_spectrum(write(tmp_path, f"1,1.0\n{index},1\n"))


class TestNormalize:
    def test_basic(self):
        raw = RawSpectrum("x", np.array([4.0, 2.0, 2.0]))
        assert np.allclose(normalize(raw).power, [0.5, 0.25, 0.25])

    def test_padding(self):
        raw = RawSpectrum("x", np.array([1.0, 1.0]))
        assert np.allclose(normalize(raw, pad_to=4).power, [0.5, 0.5, 0.0, 0.0])

    def test_pad_below_length_rejected(self):
        raw = RawSpectrum("x", np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="pad_to"):
            normalize(raw, pad_to=2)

    def test_pad_above_cap_rejected(self):
        raw = RawSpectrum("x", np.array([1.0, 1.0]))
        assert normalize(raw, pad_to=MAX_HARMONICS).n == MAX_HARMONICS
        with pytest.raises(ValueError, match="pad_to"):
            normalize(raw, pad_to=MAX_HARMONICS + 1)

    def test_pad_to_follows_the_integer_rule(self):
        raw = RawSpectrum("x", np.array([1.0, 1.0]))
        for pad_to in (3.0, np.int64(3), np.uint8(3)):
            padded = normalize(raw, pad_to=pad_to)
            assert padded.n == 3 and np.allclose(padded.power, [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("pad_to", [3.5, "3", float("nan"), float("inf"), [3]])
    def test_non_integer_pad_to_rejected(self, pad_to):
        raw = RawSpectrum("x", np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="pad_to must be an integer"):
            normalize(raw, pad_to=pad_to)

    def test_all_zero_rejected(self):
        raw = RawSpectrum("x", np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="zero total power"):
            normalize(raw)

    def test_idempotent(self):
        raw = RawSpectrum("x", np.array([0.5, 0.25, 0.25]))
        once = normalize(raw)
        again = normalize(RawSpectrum("x", once.power))
        assert np.allclose(once.power, again.power, atol=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            powers = rng.uniform(0.0, 5.0, size=8)
            powers[int(rng.integers(0, 8))] += 1.0
            scale = rng.uniform(0.01, 100.0)
            a = normalize(RawSpectrum("x", powers))
            b = normalize(RawSpectrum("x", scale * powers))
            assert np.allclose(a.power, b.power, atol=1e-12)
            assert brightness_compare(a, b) is Comparison.EQUAL


class TestExportDot:
    def test_two_chain(self):
        cover = FiniteRelation.from_pairs(2, [(0, 1)])
        dot = export_dot(cover, ["dark", "bright"])
        assert '"dark" -> "bright";' in dot
        assert dot.startswith("digraph brightness {")

    def test_empty(self):
        cover = FiniteRelation(0, np.zeros((0, 0), dtype=bool))
        assert export_dot(cover, []) == "digraph brightness {\n}\n"

    def test_deterministic(self):
        cover = FiniteRelation.from_pairs(3, [(2, 0), (1, 0)])
        names = ["c", "a", "b"]
        assert export_dot(cover, names) == export_dot(cover, names)

    def test_quotes_and_backslashes_escaped(self):
        cover = FiniteRelation.from_pairs(3, [(0, 1), (1, 2)])
        dot = export_dot(cover, ['a"b', "c", "d\\"])
        assert dot.splitlines() == [
            "digraph brightness {",
            '  "a\\"b";',
            '  "c";',
            '  "d\\\\";',
            '  "a\\"b" -> "c";',
            '  "c" -> "d\\\\";',
            "}",
        ]

    def test_name_count_checked(self):
        cover = FiniteRelation.from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError, match="one name"):
            export_dot(cover, ["only"])


class TestFixtures:
    def test_all_present_with_twenty_harmonics(self):
        vectors = load_fixture_collection()
        assert tuple(v.name for v in vectors) == FIXTURE_NAMES
        for v in vectors:
            assert v.n == 20

    def test_files_marked_synthetic(self):
        for name in FIXTURE_NAMES:
            text = (fixture_dir() / f"{name}.csv").read_text()
            assert "SYNTHETIC" in text.splitlines()[0]
