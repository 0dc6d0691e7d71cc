"""DFT beam codebook tests."""

import numpy as np
import pytest

from fdhbf.codebook import BeamCodebook, dft_codebook


def test_degenerate_single_beam():
    cb = dft_codebook(1)
    assert cb.cardinality == 1
    assert np.allclose(cb.beam(0), [1.0], atol=1e-15)


def test_two_point_dft():
    cb = dft_codebook(2)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(cb.beam(0), [r, r], atol=1e-12)
    assert np.allclose(cb.beam(1), [r, -r], atol=1e-12)


def test_full_codebook_is_unitary():
    cb = dft_codebook(16)
    b = cb.beams
    gram = b.conj().T @ b
    assert np.max(np.abs(gram - np.eye(16))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 64, 256, 1024])
def test_constant_modulus(n):
    cb = dft_codebook(n)
    dev = np.abs(np.abs(cb.beams) ** 2 * n - 1.0)
    assert dev.max() < 1e-12
    norms = np.linalg.norm(cb.beams, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_invalid_length_rejected():
    with pytest.raises(ValueError):
        dft_codebook(0)


def test_subsampling_takes_every_sth_beam():
    full = dft_codebook(8)
    sub = dft_codebook(8, subsample_step=2)
    assert sub.cardinality == 4
    assert sub.beam_length == 8
    for k in range(4):
        assert np.array_equal(sub.beam(k), full.beam(2 * k))


def test_beams_are_immutable():
    cb = dft_codebook(4)
    with pytest.raises((ValueError, RuntimeError)):
        cb.beams[0, 0] = 0.0


def test_repeated_calls_share_one_read_only_codebook():
    """A sweep asks for the same two codebooks in every cell; they are built
    once and shared, which is safe because their beams cannot be written."""
    cb = dft_codebook(16, 2)
    assert dft_codebook(16, 2) is cb
    assert dft_codebook(16, 1) is not cb
    assert not cb.beams.flags.writeable
    with pytest.raises(ValueError):
        cb.beams.flags.writeable = True


def test_beam_index_range():
    cb = dft_codebook(4)
    with pytest.raises(IndexError):
        cb.beam(4)


def test_codebook_wrapper_validates():
    with pytest.raises(ValueError):
        BeamCodebook(np.zeros((0, 3)))
