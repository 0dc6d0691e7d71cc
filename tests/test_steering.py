"""The steering kernel against its formula: channel._steering_matrix builds
element l = q*a + b of each steering vector as exp(j*q*a*w) * exp(j*b*w) /
sqrt(n) from two small tables, for w = 2*pi*s*sin(angle).  Each entry must
stay within a few eps * (1 + |l*w|) / sqrt(n) of the direct
exp(j*2*pi*s*l*sin(angle)) / sqrt(n), the size of the direct form's own
phase rounding, on every array size, spacing and stack of angles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fdhbf.channel import ArrayGeometry, _steering_matrix, steering_vector

# an entry's distance from the direct form, in units of (1 + |phase|) *
# 2**-53 / sqrt(n); the largest seen over 3,000 random draws of 10 angles
# each (n in 1..300, spacing up to 4) was 3.56
ENTRY_ERROR = 8.0

ANGLES = arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=5),
                elements=st.floats(-np.pi / 2.0, np.pi / 2.0))
GEOMETRIES = st.builds(ArrayGeometry, st.integers(1, 300),
                       st.floats(0.0, 4.0, exclude_min=True))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(GEOMETRIES, ANGLES)
def test_steering_matrix_is_within_its_bound_of_the_direct_exp(geometry, angles):
    n = geometry.num_elements
    got = _steering_matrix(geometry, angles)
    assert got.shape == (*angles.shape[:-1], n, angles.shape[-1])
    l = np.arange(n)[:, None]
    phase = 2.0 * np.pi * geometry.spacing_wavelengths * l * np.sin(angles)[..., None, :]
    want = np.exp(1j * phase) / np.sqrt(n)
    bound = ENTRY_ERROR * (1.0 + np.abs(phase)) * 2.0 ** -53 / np.sqrt(n)
    assert np.all(np.abs(got - want) <= bound)
    assert np.all(got[..., 0, :] == 1.0 / np.sqrt(n))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(GEOMETRIES, ANGLES)
def test_steering_vector_is_the_matrix_column(geometry, angles):
    """Each angle's vector alone is its column of a stacked matrix, bit for
    bit, whatever angles share the stack."""
    matrix = _steering_matrix(geometry, angles)
    for index in np.ndindex(angles.shape):
        column = matrix[(*index[:-1], slice(None), index[-1])]
        assert steering_vector(geometry, float(angles[index])).tobytes() == column.tobytes()
