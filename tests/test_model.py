"""Mixing-model container and noise tests.

Expected vectors are hand-computed from the linear model y = M a.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from pnpunmix.cube import PixelMatrix
from pnpunmix.errors import ShapeError
from pnpunmix.model import AbundanceMatrix, EndmemberMatrix, add_noise_snr, mix


def test_mix_identity_endmembers():
    em = EndmemberMatrix(np.eye(2))
    ab = AbundanceMatrix(np.array([[0.3], [0.7]]), 1, 1)
    y = mix(em, ab)
    assert_array_equal(y.values, [[0.3], [0.7]])


def test_mix_hand_case():
    # three bands, two materials: last band sees the sum of both
    em = EndmemberMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    ab = AbundanceMatrix(np.array([[0.25], [0.75]]), 1, 1)
    y = mix(em, ab)
    assert_allclose(y.values[:, 0], [0.25, 0.75, 1.0], rtol=0, atol=0)
    assert y.spatial_rows == 1 and y.spatial_cols == 1


def test_mix_shape_mismatch():
    em = EndmemberMatrix(np.eye(3))
    ab = AbundanceMatrix(np.full((2, 4), 0.5), 2, 2)
    with pytest.raises(ShapeError):
        mix(em, ab)


def test_endmember_validation():
    with pytest.raises(ValueError, match="zero"):
        EndmemberMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="identical"):
        EndmemberMatrix(np.array([[0.5, 0.5], [0.2, 0.2]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        EndmemberMatrix(np.array([[1.5], [0.2]]))
    assert any("0, 1" in str(w.message) for w in caught)


def test_huge_column_warns_once_at_the_caller():
    # the column norm overflows to inf, which is not zero: no numpy warning,
    # and the range warning points at this file, not the dataclass __init__
    with pytest.warns(UserWarning, match=r"outside \[0, 1\]") as caught:
        EndmemberMatrix(np.array([[1e160, 0.2], [1e160, 0.4]]))
    assert [w.filename for w in caught] == [__file__]


def test_column_whose_norm_underflows_is_all_zero():
    # accepting it would let M'M underflow to 0 and the QP pick a vertex
    with pytest.raises(ValueError, match="all zero"):
        EndmemberMatrix(np.array([[1e-170, 0.2], [1e-170, 0.4]]))


def test_endmember_names():
    em = EndmemberMatrix(np.eye(2), names=("soil", "water"))
    assert em.names == ("soil", "water")
    with pytest.raises(ShapeError):
        EndmemberMatrix(np.eye(2), names=("soil",))


def test_abundance_simplex_validation():
    ok = AbundanceMatrix(np.array([[0.4, 1.0], [0.6, 0.0]]), 1, 2)
    assert ok.endmembers == 2 and ok.pixels == 2

    with pytest.raises(ValueError, match="sum"):
        AbundanceMatrix(np.array([[0.4], [0.7]]), 1, 1)

    # a hair below zero is clamped, further below is rejected
    clamped = AbundanceMatrix(np.array([[-1e-13], [1.0 + 1e-13]]), 1, 1)
    assert clamped.values[0, 0] == 0.0
    with pytest.raises(ValueError, match="negative"):
        AbundanceMatrix(np.array([[-1e-9], [1.0 + 1e-9]]), 1, 1)


def test_abundance_asc_tolerance_override():
    drifted = np.array([[0.5], [0.5 + 5e-6]])
    with pytest.raises(ValueError):
        AbundanceMatrix(drifted, 1, 1)
    relaxed = AbundanceMatrix(drifted, 1, 1, asc_tol=1e-5)
    assert relaxed.values[1, 0] == 0.5 + 5e-6


def test_noise_seeded_and_reproducible():
    rng = np.random.default_rng(7)
    y = PixelMatrix(rng.uniform(0.1, 1.0, size=(50, 64 * 64)), 64, 64)
    n1 = add_noise_snr(y, 20.0, seed=123)
    n2 = add_noise_snr(y, 20.0, seed=123)
    assert np.array_equal(n1.values, n2.values)
    n3 = add_noise_snr(y, 20.0, seed=124)
    assert not np.array_equal(n1.values, n3.values)


@pytest.mark.parametrize("snr_db", [5.0, 10.0, 20.0, 30.0])
def test_noise_calibration(snr_db):
    # realized SNR measured independently from the noise actually added
    rng = np.random.default_rng(11)
    y = PixelMatrix(rng.uniform(0.05, 1.0, size=(50, 64 * 64)), 64, 64)
    noisy = add_noise_snr(y, snr_db, seed=3)
    noise = noisy.values - y.values
    realized = 10.0 * np.log10(np.sum(y.values**2) / np.sum(noise**2))
    assert abs(realized - snr_db) < 0.1


def test_infinite_snr_is_noiseless():
    y = PixelMatrix(np.ones((3, 4)), 2, 2)
    out = add_noise_snr(y, np.inf, seed=0)
    assert np.array_equal(out.values, y.values)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    clean=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 30)),
                 elements=st.floats(-1e6, 1e6)),
    snr_db=st.floats(-60.0, 3080.0),
    seed=st.integers(0, 2**64 - 1),
)
# near the largest ratio that does not overflow, the noise still shows
@example(clean=np.array([[1e6, 1e-300]]), snr_db=3080.0, seed=1)
# near the lowest SNR whose sigma (~1e154) is finite, every noisy value is too
@example(clean=np.ones((3, 4)), snr_db=-3080.0, seed=0)
def test_noise_is_the_direct_expression_bit_for_bit(clean, snr_db, seed):
    # the in-place buffer gives the bytes of the expression it replaced
    sigma = np.sqrt(float(np.sum(clean**2)) / (clean.size * 10.0 ** (snr_db / 10.0)))
    expected = clean + sigma * np.random.default_rng(seed).standard_normal(clean.shape)
    noisy = add_noise_snr(PixelMatrix(clean, 1, clean.shape[1]), snr_db, seed)
    assert noisy.values.tobytes() == expected.tobytes()


def test_noise_allocates_one_matrix():
    y = PixelMatrix(np.random.default_rng(5).uniform(0.1, 1.0, size=(64, 4096)), 64, 64)
    tracemalloc.start()
    try:
        noisy = add_noise_snr(y, 20.0, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, plus the container's finiteness mask (an eighth)
    assert peak <= 1.2 * y.values.nbytes
    assert not noisy.values.flags.writeable


@pytest.mark.parametrize("snr_db", [3100.0, 1e308, 10**400, np.float64(3100.0), -math.inf],
                         ids=["3100", "1e308", "int 10**400", "numpy 3100", "-inf"])
def test_snr_whose_ratio_is_past_the_float_range_is_noiseless(snr_db):
    # 10^(snr/10) overflows (or snr_db is an int no float holds): like inf,
    # and -inf returns the input too, as it always has
    y = PixelMatrix(np.ones((3, 4)), 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = add_noise_snr(y, snr_db, seed=0)
    assert out.values.tobytes() == y.values.tobytes()


@pytest.mark.parametrize("snr_db", [-4000.0, -3240.0, -10**4])
def test_snr_whose_ratio_underflows_is_a_value_error(snr_db):
    # 10^(snr/10) underflows to 0, so sigma would divide by zero
    y = PixelMatrix(np.ones((3, 4)), 2, 2)
    with pytest.raises(ValueError, match="snr_db .* underflows to 0"):
        add_noise_snr(y, snr_db, seed=0)


@pytest.mark.parametrize("scale, snr_db", [(1.0, -3200.0), (1.0, -3090.0), (1e100, -2500.0)])
def test_snr_whose_sigma_overflows_is_a_value_error(scale, snr_db):
    # the ratio is a normal or subnormal float, but the energy over it, sigma^2,
    # is past the float range: the noise would be infinite
    y = PixelMatrix(np.full((3, 4), scale), 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="snr_db .* too low: .*sigma overflows"):
            add_noise_snr(y, snr_db, seed=0)
