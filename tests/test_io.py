"""File formats: round-trips, pinned quantization, malformed-input errors."""

import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pnpunmix.io as io_module
from pnpunmix.cube import HsiCube, fold, unfold
from pnpunmix.errors import FileFormatError
from pnpunmix.io import (
    read_abundances,
    read_config,
    read_cube,
    read_endmembers,
    read_graymap,
    write_abundances,
    write_config,
    write_cube,
    write_endmembers,
    write_graymap,
)
from pnpunmix.model import AbundanceMatrix, EndmemberMatrix


def f32_cube(shape, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, shape).astype(np.float32).astype(np.float64)
    return HsiCube(values)


class TestCubeFile:
    def test_round_trip_is_bitwise_at_f32(self, tmp_path):
        cube = f32_cube((5, 4, 3))
        path = tmp_path / "scene.raw"
        write_cube(path, cube)
        back = read_cube(path)
        npt.assert_array_equal(back.values, cube.values)

    def test_payload_layout_is_band_major_little_endian(self, tmp_path):
        cube = f32_cube((2, 3, 4), seed=1)
        path = tmp_path / "scene.raw"
        write_cube(path, cube)
        expected = unfold(cube).values.astype("<f4").tobytes()
        assert path.read_bytes() == expected
        assert len(expected) == 2 * 3 * 4 * 4

    def test_sidecar_names_shape_and_encoding(self, tmp_path):
        path = tmp_path / "scene.raw"
        write_cube(path, f32_cube((2, 3, 4)))
        assert (tmp_path / "scene.hdr").read_bytes() == (
            b"channels = 2\n"
            b"rows = 3\n"
            b"cols = 4\n"
            b"dtype = float32\n"
            b"layout = band-major\n"
            b"endianness = little\n"
        )

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "scene.raw"
        write_cube(path, f32_cube((2, 3, 4)))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FileFormatError, match="bytes"):
            read_cube(path)

    def test_overlong_payload_rejected(self, tmp_path):
        path = tmp_path / "scene.raw"
        write_cube(path, f32_cube((2, 3, 4)))
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(FileFormatError, match="payload is 100 bytes") as err:
            read_cube(path)
        assert str(path) in str(err.value)

    def test_missing_sidecar_rejected(self, tmp_path):
        path = tmp_path / "scene.raw"
        write_cube(path, f32_cube((2, 3, 4)))
        (tmp_path / "scene.hdr").unlink()
        with pytest.raises(FileFormatError, match="sidecar"):
            read_cube(path)

    def test_missing_payload_rejected(self, tmp_path):
        path = tmp_path / "scene.raw"
        write_cube(path, f32_cube((2, 3, 4)))
        path.unlink()
        with pytest.raises(FileFormatError, match="payload"):
            read_cube(path)

    def test_unsupported_dtype_tag_rejected(self, tmp_path):
        path = tmp_path / "scene.raw"
        write_cube(path, f32_cube((2, 3, 4)))
        hdr = tmp_path / "scene.hdr"
        hdr.write_text(hdr.read_text().replace("float32", "float64"))
        with pytest.raises(FileFormatError, match="dtype"):
            read_cube(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "scene.raw"
        write_cube(path, f32_cube((2, 3, 4)))
        hdr = tmp_path / "scene.hdr"
        lines = [ln for ln in hdr.read_text().splitlines() if "rows" not in ln]
        hdr.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="rows"):
            read_cube(path)

    def test_duplicate_sidecar_key_rejected(self, tmp_path):
        path = tmp_path / "scene.raw"
        write_cube(path, f32_cube((2, 3, 4)))
        hdr = tmp_path / "scene.hdr"
        hdr.write_text(hdr.read_text() + "rows = 3\n")
        with pytest.raises(FileFormatError, match="duplicate key 'rows'") as err:
            read_cube(path)
        assert str(hdr) in str(err.value)

    def test_binary_sidecar_names_its_path(self, tmp_path):
        path = tmp_path / "scene.raw"
        write_cube(path, f32_cube((2, 3, 4)))
        hdr = tmp_path / "scene.hdr"
        hdr.write_bytes(hdr.read_bytes() + b"\xff\n")
        with pytest.raises(FileFormatError, match="not a text file") as err:
            read_cube(path)
        assert str(hdr) in str(err.value)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "scene.raw"
        write_cube(path, f32_cube((1, 2, 2)))
        bad = np.array([1.0, np.inf, 0.0, 0.5], dtype="<f4")
        path.write_bytes(bad.tobytes())
        with pytest.raises(FileFormatError, match="finite"):
            read_cube(path)


class TestAbundanceFile:
    def test_round_trip_within_f32_quantization(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0.1, 1.0, (4, 30))
        truth = AbundanceMatrix(raw / raw.sum(axis=0), 5, 6)
        path = tmp_path / "truth.raw"
        write_abundances(path, truth)
        back = read_abundances(path)
        assert (back.spatial_rows, back.spatial_cols) == (5, 6)
        npt.assert_allclose(back.values, truth.values, atol=1e-7)
        npt.assert_allclose(back.values.sum(axis=0), 1.0, atol=1e-5)

    def test_default_read_tolerance_absorbs_quantization(self, tmp_path, monkeypatch):
        # a strict in-memory tolerance would reject the file
        rng = np.random.default_rng(4)
        raw = rng.uniform(0.1, 1.0, (6, 64))
        truth = AbundanceMatrix(raw / raw.sum(axis=0), 8, 8)
        path = tmp_path / "truth.raw"
        write_abundances(path, truth)
        read_abundances(path)
        monkeypatch.setattr(io_module, "STORED_ASC_TOL", 1e-12)
        with pytest.raises(FileFormatError, match="sum"):
            read_abundances(path)


# channels or endmembers 1..5 (P=1 included), 1xN and Nx1 images included
_SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 7), st.integers(1, 7))
_F32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
_FRACTIONS = st.floats(0.0, 1.0, width=32)


def _files(path: Path) -> tuple[bytes, bytes]:
    return path.read_bytes(), path.with_suffix(".hdr").read_bytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), shape=_SHAPES, chunk=st.integers(1, 8))
def test_cube_file_round_trip_is_bitwise(data, shape, chunk):
    # reads of a few values at a time span several chunks and a partial one
    cube = HsiCube(data.draw(arrays(np.float64, shape, elements=_F32)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cube.raw"
        write_cube(path, cube)
        assert path.read_bytes() == unfold(cube).values.astype("<f4").tobytes()
        with mock.patch.object(io_module, "READ_CHUNK_VALUES", chunk):
            back = read_cube(path)
    assert back.values.shape == cube.values.shape
    assert back.values.tobytes() == cube.values.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), shape=_SHAPES)
def test_abundance_file_matches_the_folded_cube_route(data, shape):
    count, rows, cols = shape
    raw = data.draw(arrays(np.float64, (count, rows * cols), elements=_FRACTIONS))
    raw[0, raw.sum(axis=0) == 0.0] = 1.0
    abundances = AbundanceMatrix(raw / raw.sum(axis=0), rows, cols)
    with tempfile.TemporaryDirectory() as tmp:
        direct, folded = Path(tmp) / "direct.raw", Path(tmp) / "folded.raw"
        write_abundances(direct, abundances)
        write_cube(folded, fold(abundances))
        assert _files(direct) == _files(folded)
        back = read_abundances(direct)
    stored = abundances.values.astype("<f4").astype(np.float64)
    assert (back.spatial_rows, back.spatial_cols) == (rows, cols)
    assert back.values.tobytes() == stored.tobytes()


# names that read back, and names mixing in what the CSV cannot carry as
# written: commas, line breaks, edge whitespace, non-ASCII; values include
# a pair that prints to the same nine digits
_NAMES = (st.text("ab0.-_", min_size=1, max_size=4)
          | st.text("a ,\t\n\r\x0c\x1c\u00e9\u2028", max_size=3))
_SPECTRA = st.sampled_from([0.1, 0.1 + 1e-12, 0.7]) | st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), bands=st.integers(1, 4), count=st.integers(1, 3))
def test_endmember_file_reads_back_as_written_or_is_refused(data, bands, count):
    names = tuple(data.draw(st.lists(_NAMES, min_size=count, max_size=count)))
    values = data.draw(arrays(np.float64, (bands, count), elements=_SPECTRA))
    try:
        endmembers = EndmemberMatrix(values, names)
    except ValueError:
        assume(False)  # a zero or repeated column is no endmember matrix
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "endmembers.csv"
        path.write_bytes(b"kept")
        try:
            write_endmembers(path, endmembers)
        except ValueError:
            assert path.read_bytes() == b"kept"
            return
        back = read_endmembers(path)
    assert back.names == names
    npt.assert_allclose(back.values, values, rtol=0, atol=1e-6)


class TestEndmemberCsv:
    @pytest.mark.parametrize("names, values", [
        (("",), [[0.1], [0.2], [0.3]]),  # the header line would be blank
        (("a,b", "c"), [[0.1, 0.2]]),
        (("a\nb", "c"), [[0.1, 0.2]]),
        (("a\x0cb", "c"), [[0.1, 0.2]]),  # a line break to str.splitlines
        ((" a", "c"), [[0.1, 0.2]]),
        (("a", "c\t"), [[0.1, 0.2]]),
        (("\u00e9", "c"), [[0.1, 0.2]]),
        (("a", "c"), [[0.1, 0.1 + 1e-12]]),  # one column, once printed
    ])
    def test_what_would_not_read_back_is_refused_before_writing(self, tmp_path,
                                                                names, values):
        path = tmp_path / "endmembers.csv"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="would not read back|identical"):
            write_endmembers(path, EndmemberMatrix(np.array(values), names))
        assert path.read_text() == "kept\n"

    def test_round_trip_with_names(self, tmp_path):
        values = np.array([[1 / 3, 0.25], [2 / 3, 0.75], [0.1, 0.9]])
        em = EndmemberMatrix(values, names=("soil", "water"))
        path = tmp_path / "endmembers.csv"
        write_endmembers(path, em)
        back = read_endmembers(path)
        assert back.names == ("soil", "water")
        npt.assert_allclose(back.values, em.values, atol=1e-6)

    def test_header_then_one_row_per_band(self, tmp_path):
        em = EndmemberMatrix(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]))
        path = tmp_path / "endmembers.csv"
        write_endmembers(path, em)
        lines = path.read_text().splitlines()
        assert lines[0] == "em_0,em_1"
        assert len(lines) == 1 + 3

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.1,0.2\n0.3\n")
        with pytest.raises(FileFormatError, match="columns"):
            read_endmembers(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.1,oops\n")
        with pytest.raises(FileFormatError, match="numeric"):
            read_endmembers(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(FileFormatError, match="band row"):
            read_endmembers(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="no such file"):
            read_endmembers(tmp_path / "absent.csv")

    def test_binary_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(bytes([0, 233, 150, 7]) * 16)
        with pytest.raises(FileFormatError, match="not a text file"):
            read_endmembers(path)


class TestGraymap:
    def test_three_by_two_layout(self, tmp_path):
        # format oracle: 3 rows x 2 cols -> width 2, height 3, 6 bytes
        plane = np.zeros((3, 2))
        path = tmp_path / "map.pgm"
        write_graymap(path, plane)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 3\n255\n")
        assert len(data) == len(b"P5\n2 3\n255\n") + 6

    def test_quantization_pinned(self, tmp_path):
        plane = np.array([[0.0, 0.5], [1.0, 0.1]])
        path = tmp_path / "map.pgm"
        write_graymap(path, plane)
        back = read_graymap(path)
        # 0.5 -> 128 (half rounds up), 0.1 -> floor(25.5 + 0.5) = 26
        npt.assert_array_equal(back, np.array([[0, 128], [255, 26]], dtype=np.uint8))

    def test_out_of_range_clamped_with_warning(self, tmp_path):
        path = tmp_path / "map.pgm"
        with pytest.warns(UserWarning, match="clamped"):
            write_graymap(path, np.array([[-0.5, 1.5]]))
        npt.assert_array_equal(read_graymap(path), np.array([[0, 255]], dtype=np.uint8))

    def test_roundoff_above_one_clamped_silently(self, tmp_path):
        # the QP can return an abundance one ulp above 1
        path = tmp_path / "map.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_graymap(path, np.array([[1.0 + 2.2e-16, -1e-13]]))
        npt.assert_array_equal(read_graymap(path), np.array([[255, 0]], dtype=np.uint8))

    def test_round_trip_random_plane(self, tmp_path):
        rng = np.random.default_rng(7)
        plane = rng.uniform(0.0, 1.0, (9, 5))
        path = tmp_path / "map.pgm"
        write_graymap(path, plane)
        back = read_graymap(path)
        npt.assert_array_equal(back, np.floor(255.0 * plane + 0.5).astype(np.uint8))

    def test_reader_skips_header_comments(self, tmp_path):
        path = tmp_path / "map.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n2 3\n255\n" + payload)
        back = read_graymap(path)
        assert back.shape == (3, 2)
        assert back.tobytes() == payload

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "map.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(FileFormatError, match="magic"):
            read_graymap(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "map.pgm"
        path.write_bytes(b"P5\n2 3\n255\n" + bytes(5))
        with pytest.raises(FileFormatError, match="bytes"):
            read_graymap(path)

    def test_non_finite_plane_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            write_graymap(tmp_path / "map.pgm", np.array([[np.nan]]))


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        fields = {"mode": "pro-a", "rho0": "0.5", "max_iter": "20"}
        path = tmp_path / "run.cfg"
        write_config(path, fields)
        assert read_config(path) == fields

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# run settings\n\nmode = pro-h\n  # indented comment\nlam = 1e-3\n")
        assert read_config(path) == {"mode": "pro-h", "lam": "1e-3"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode pro-h\n")
        with pytest.raises(FileFormatError, match="key = value"):
            read_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode = pro-h\nmode = pro-a\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            read_config(path)

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(" = 3\n")
        with pytest.raises(FileFormatError, match="empty key"):
            read_config(path)

    def test_value_may_contain_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("note = a=b\n")
        assert read_config(path) == {"note": "a=b"}

    def test_binary_file_names_its_path(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"mode = pro-h\n\xff\n")
        with pytest.raises(FileFormatError, match="not a text file") as err:
            read_config(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("fields", [
        {"a": "1\nb = 2"},
        {"a": "1\rb"},
        {"x=y": 3},
        {"#k": 1},
        {"": 1},
        {" k": 1},
        {"k": "v "},
        {"k": "\tv"},
        {1: "a", "1": "b"},
    ], ids=repr)
    def test_pair_that_would_not_read_back_rejected(self, tmp_path, fields):
        with pytest.raises(ValueError, match="would not read back"):
            write_config(tmp_path / "run.cfg", fields)
        assert not (tmp_path / "run.cfg").exists()


def _config_text(forbid: str) -> st.SearchStrategy:
    """Text without surrogates that a config line keeps as written."""
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
    return text.filter(lambda t: t == t.strip() and len(t.splitlines()) <= 1
                       and not any(c in t for c in forbid))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fields=st.dictionaries(
    _config_text("=").filter(lambda k: k and not k.startswith("#")),
    st.one_of(_config_text(""), st.integers(), st.floats()),
    max_size=6,
))
def test_config_round_trips_as_strings(fields):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        write_config(path, fields)
        assert read_config(path) == {k: str(v) for k, v in fields.items()}
