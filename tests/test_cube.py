"""Layout tests for the cube <-> pixel-matrix reshapes, and the copy contract
of the containers.

The 2x2x2 expected matrix below was worked out by hand from the pixel
ordering contract n = col*rows + row before the reshape code existed.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pnpunmix.cube import HsiCube, PixelMatrix, fold, unfold
from pnpunmix.errors import ShapeError
from pnpunmix.model import AbundanceMatrix, EndmemberMatrix, mix


def test_unfold_hand_case():
    band0 = [[1.0, 2.0], [3.0, 4.0]]
    band1 = [[5.0, 6.0], [7.0, 8.0]]
    cube = HsiCube(np.array([band0, band1]))
    mat = unfold(cube)
    # pixel n walks down each column first: (r0,c0), (r1,c0), (r0,c1), (r1,c1)
    assert_array_equal(mat.values, [[1.0, 3.0, 2.0, 4.0], [5.0, 7.0, 6.0, 8.0]])
    assert mat.spatial_rows == 2 and mat.spatial_cols == 2


def test_fold_hand_case():
    mat = PixelMatrix(np.array([[1.0, 3.0, 2.0, 4.0], [5.0, 7.0, 6.0, 8.0]]), 2, 2)
    cube = fold(mat)
    assert_array_equal(cube.values[0], [[1.0, 2.0], [3.0, 4.0]])
    assert_array_equal(cube.values[1], [[5.0, 6.0], [7.0, 8.0]])


def test_single_column_image():
    # rows=3, cols=1: pixel order is just the rows
    cube = HsiCube(np.arange(3.0).reshape(1, 3, 1))
    assert_array_equal(unfold(cube).values, [[0.0, 1.0, 2.0]])


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_bitwise(seed):
    rng = np.random.default_rng(seed)
    bands = int(rng.integers(1, 12))
    rows = int(rng.integers(1, 17))
    cols = int(rng.integers(1, 17))
    cube = HsiCube(rng.standard_normal((bands, rows, cols)))
    back = fold(unfold(cube))
    assert np.array_equal(back.values, cube.values)

    mat = PixelMatrix(rng.standard_normal((bands, rows * cols)), rows, cols)
    again = unfold(fold(mat))
    assert np.array_equal(again.values, mat.values)
    assert again.spatial_rows == rows and again.spatial_cols == cols


def test_values_are_read_only_float64():
    cube = HsiCube(np.ones((1, 2, 2), dtype=np.float32))
    assert cube.values.dtype == np.float64
    with pytest.raises(ValueError):
        cube.values[0, 0, 0] = 2.0
    mat = PixelMatrix(np.ones((2, 4), dtype=int), 2, 2)
    assert mat.values.dtype == np.float64
    with pytest.raises(ValueError):
        mat.values[0, 0] = 2.0


def test_shape_validation():
    with pytest.raises(ShapeError):
        HsiCube(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        PixelMatrix(np.ones((2, 5)), 2, 2)
    with pytest.raises(ShapeError):
        PixelMatrix(np.ones(4), 2, 2)


def _readonly(arr):
    arr.setflags(write=False)
    return arr


# every container with a valid input of its shape: the copy contract and
# the finiteness check live in cube.py, and AbundanceMatrix inherits them
CONTAINERS = (
    (HsiCube, (2, 2, 2)),
    (lambda values: PixelMatrix(values, 2, 2), (2, 4)),
    (lambda values: AbundanceMatrix(values, 2, 2), (2, 4)),
)


def test_writeable_input_is_copied():
    for make, shape in CONTAINERS:
        data = np.full(shape, 0.5)
        container = make(data)
        data.flat[0] = 5.0
        assert container.values.flat[0] == 0.5
        assert not np.shares_memory(container.values, data)


def test_read_only_view_is_copied():
    for make, shape in CONTAINERS:
        base = np.full((shape[0] + 1, *shape[1:]), 0.5)
        view = base[:-1]
        view.setflags(write=False)
        container = make(view)
        base.flat[0] = -1.0
        assert container.values.flat[0] == 0.5
        assert not np.shares_memory(container.values, base)


def test_read_only_owned_float64_is_adopted():
    data = _readonly(np.arange(8.0).reshape(2, 4).copy())
    assert PixelMatrix(data, 2, 2).values is data
    cube_data = _readonly(np.zeros((2, 3, 4)))
    assert np.shares_memory(HsiCube(cube_data).values, cube_data)
    fractions = _readonly(np.full((2, 4), 0.5))
    assert AbundanceMatrix(fractions, 2, 2).values is fractions
    # a clamp makes a new array and leaves the caller's as it was
    hair = _readonly(np.array([[-1e-13, 0.5], [1.0 + 1e-13, 0.5]]))
    clamped = AbundanceMatrix(hair, 1, 2)
    assert clamped.values[0, 0] == 0.0
    assert hair[0, 0] == -1e-13
    assert not np.shares_memory(clamped.values, hair)
    assert not clamped.values.flags.writeable


def test_non_finite_rejected():
    # on every construction path: copied, adopted, read-only view, converted
    paths = (lambda a: a, _readonly, lambda a: _readonly(a)[:1],
             lambda a: a.astype(np.float32))
    for bad, prepare, (make, shape) in itertools.product(
            (np.nan, np.inf, -np.inf), paths, CONTAINERS):
        data = np.full(shape, 0.5)
        data.flat[0] = bad
        with pytest.raises(ValueError, match="finite"):
            make(prepare(data))


def test_mix_result_is_read_only_and_owns_its_memory():
    em = EndmemberMatrix(np.array([[0.2, 0.9], [0.5, 0.1], [0.7, 0.4]]))
    ab = AbundanceMatrix(np.array([[0.25, 1.0, 0.0], [0.75, 0.0, 1.0]]), 1, 3)
    y = mix(em, ab)
    assert not y.values.flags.writeable
    with pytest.raises(ValueError):
        y.values[0, 0] = 0.0
    assert not np.shares_memory(y.values, em.values)
    assert not np.shares_memory(y.values, ab.values)
    assert_array_equal(y.values, em.values @ ab.values)


def test_cube_properties():
    cube = HsiCube(np.zeros((5, 3, 4)))
    assert cube.bands == 5
    assert cube.rows == 3
    assert cube.cols == 4
    mat = unfold(cube)
    assert mat.channels == 5
    assert mat.pixels == 12
