"""Analog beam codebooks for the per-chain subarrays.

Beams are columns; every entry has squared magnitude 1/beam_length, so each
beam is unit norm and realizable with phase shifters only.
"""

import functools

import numpy as np


class BeamCodebook:
    """Immutable collection of constant-modulus beams (columns of `beams`)."""

    def __init__(self, beams: np.ndarray):
        beams = np.asarray(beams, dtype=np.complex128)
        if beams.ndim != 2 or beams.shape[1] == 0:
            raise ValueError("a codebook needs at least one beam column")
        if beams.shape[0] == 0:
            raise ValueError("beams must have at least one element")
        beams = beams.copy()
        beams.flags.writeable = False
        # a view of a read-only array cannot be made writeable again, so a
        # shared codebook stays as built
        self.beams = beams.view()

    @property
    def beam_length(self) -> int:
        return self.beams.shape[0]

    @property
    def cardinality(self) -> int:
        return self.beams.shape[1]

    def beam(self, index: int) -> np.ndarray:
        return self.beams[:, index]

    def __repr__(self):  # pragma: no cover - debugging nicety
        return f"BeamCodebook(beam_length={self.beam_length}, cardinality={self.cardinality})"


@functools.lru_cache
def dft_codebook(beam_length: int, subsample_step: int = 1) -> BeamCodebook:
    """DFT codebook: beam k has element l equal to
    exp(-j*2*pi*k*l/n) / sqrt(n).

    `subsample_step` keeps every s-th column (cardinality ceil(n/s)); the
    default keeps all n beams, whose Gram matrix is exactly the identity.
    Codebooks are read-only, so each (beam_length, subsample_step) is built
    once per process and shared.
    """
    if beam_length < 1:
        raise ValueError("beam_length must be >= 1")
    if subsample_step < 1:
        raise ValueError("subsample_step must be >= 1")
    l = np.arange(beam_length)[:, None]
    k = np.arange(0, beam_length, subsample_step)[None, :]
    beams = np.exp(-2j * np.pi * l * k / beam_length) / np.sqrt(beam_length)
    return BeamCodebook(beams)
