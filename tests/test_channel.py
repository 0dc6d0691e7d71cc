"""Channel generator tests: steering vectors, clustered multipath draws,
the near-field Rician self-interference model, and matrix dump files."""

import numpy as np
import pytest

from fdhbf.canceller import TapImpairments
from fdhbf.channel import (
    ArrayGeometry,
    ClusteredChannelParams,
    SiChannelParams,
    clustered_channel,
    clustered_from_paths,
    dump_matrix,
    load_matrix,
    rician_si_channel,
    si_los_matrix,
    steering_vector,
)


# =====================================================================
# steering vectors
# =====================================================================


def test_steering_broadside():
    a = steering_vector(ArrayGeometry(4), 0.0)
    assert np.allclose(a, np.full(4, 0.5), atol=1e-15)


def test_steering_endfire_two_elements():
    # spacing lambda/2 at angle pi/2 -> per-element phase step of pi
    a = steering_vector(ArrayGeometry(2, spacing_wavelengths=0.5), np.pi / 2.0)
    assert np.allclose(a, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 128, 1024])
def test_steering_unit_norm(n, rng):
    for _ in range(5):
        a = steering_vector(ArrayGeometry(n), float(rng.uniform(-np.pi / 2, np.pi / 2)))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0)
    with pytest.raises(ValueError):
        ArrayGeometry(4, spacing_wavelengths=0.0)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("make", [
    lambda v: ArrayGeometry(8, v),
    lambda v: ClusteredChannelParams(angle_spread_rad=v),
    lambda v: SiChannelParams(tx_rx_distance_wavelengths=v),
    lambda v: TapImpairments(enabled=True, attenuation_step_db=v),
], ids=["spacing", "angle_spread", "si_distance", "attenuation_step"])
def test_constructors_reject_non_finite_values(make, value):
    # accepted, each would give non-finite channels or tap weights
    with pytest.raises(ValueError):
        make(value)
    SiChannelParams(k_factor_db=np.inf)  # pure line of sight stays valid


# =====================================================================
# clustered multipath
# =====================================================================


def test_single_path_rank_one():
    geom_rx, geom_tx = ArrayGeometry(4), ArrayGeometry(6)
    h = clustered_from_paths([1.0], [0.3], [-0.2], geom_rx, geom_tx, pathloss_db=0.0)
    a = steering_vector(geom_rx, 0.3)
    b = steering_vector(geom_tx, -0.2)
    want = np.sqrt(4 * 6) * np.outer(a, b.conj())
    assert np.allclose(h, want, atol=1e-12)
    s = np.linalg.svd(h, compute_uv=False)
    assert s[1] < 1e-12 * s[0]


def test_clustered_shape_and_determinism():
    geom_rx, geom_tx = ArrayGeometry(8), ArrayGeometry(4)
    params = ClusteredChannelParams(pathloss_db=80.0)
    h1 = clustered_channel(8, 4, geom_rx, geom_tx, params, np.random.default_rng(5))
    h2 = clustered_channel(8, 4, geom_rx, geom_tx, params, np.random.default_rng(5))
    assert h1.shape == (8, 4)
    assert np.array_equal(h1, h2)


def test_clustered_pathloss_normalization():
    # ensemble mean of ||H||_F^2 / (rows*cols) should sit at 10^(-PL/10)
    geom_rx, geom_tx = ArrayGeometry(8), ArrayGeometry(4)
    params = ClusteredChannelParams(num_clusters=3, rays_per_cluster=4, pathloss_db=110.0)
    rng = np.random.default_rng(101)
    acc = 0.0
    draws = 10_000
    for _ in range(draws):
        h = clustered_channel(8, 4, geom_rx, geom_tx, params, rng)
        acc += np.sum(np.abs(h) ** 2)
    mean_gain = acc / draws / (8 * 4)
    assert mean_gain == pytest.approx(1e-11, rel=0.05)


def test_clustered_pathloss_scaling_exact_per_draw():
    # same random stream, +20 dB pathloss -> every draw scales by exactly 1/100
    geom_rx, geom_tx = ArrayGeometry(8), ArrayGeometry(4)
    p1 = ClusteredChannelParams(pathloss_db=90.0)
    p2 = ClusteredChannelParams(pathloss_db=110.0)
    h1 = clustered_channel(8, 4, geom_rx, geom_tx, p1, np.random.default_rng(7))
    h2 = clustered_channel(8, 4, geom_rx, geom_tx, p2, np.random.default_rng(7))
    ratio = np.sum(np.abs(h1) ** 2) / np.sum(np.abs(h2) ** 2)
    assert ratio == pytest.approx(100.0, rel=1e-12)


def test_clustered_from_paths_validation():
    g = ArrayGeometry(2)
    with pytest.raises(ValueError):
        clustered_from_paths([], [], [], g, g, 0.0)
    with pytest.raises(ValueError):
        clustered_from_paths([1.0, 1.0], [0.1], [0.2, 0.3], g, g, 0.0)


# =====================================================================
# near-field Rician self-interference
# =====================================================================

PAPER_SI = SiChannelParams()  # 35 dB K, 40 dB pathloss, d = 2 wavelengths, pi/6


def test_si_los_reference_distance():
    los = si_los_matrix(ArrayGeometry(8), ArrayGeometry(16), PAPER_SI)
    mags = np.abs(los)
    assert mags.max() == pytest.approx(1.0, abs=1e-12)
    assert np.all(mags <= 1.0 + 1e-12)
    assert los.shape == (8, 16)


def test_rician_pure_los_limit():
    params = SiChannelParams(k_factor_db=300.0)
    g_rx, g_tx = ArrayGeometry(4), ArrayGeometry(8)
    h1 = rician_si_channel(4, 8, g_rx, g_tx, params, np.random.default_rng(1))
    h2 = rician_si_channel(4, 8, g_rx, g_tx, params, np.random.default_rng(2))
    # scattered part is negligible at K = 10^30: any two seeds agree
    assert np.allclose(h1, h2, atol=1e-12 * np.abs(h1).max())
    target = 4 * 8 * 1e-4
    assert np.sum(np.abs(h1) ** 2) == pytest.approx(target, rel=1e-6)


def test_rician_mean_power_paper_params():
    g_rx, g_tx = ArrayGeometry(4), ArrayGeometry(4)
    rng = np.random.default_rng(42)
    acc = 0.0
    draws = 10_000
    for _ in range(draws):
        h = rician_si_channel(4, 4, g_rx, g_tx, PAPER_SI, rng)
        acc += np.sum(np.abs(h) ** 2)
    assert acc / draws / 16 == pytest.approx(1e-4, rel=0.05)


def test_rician_pure_scatter_variance():
    # K -> 0 (linear) leaves only the i.i.d. part with per-entry variance
    # 10^(-pathloss/10)
    params = SiChannelParams(k_factor_db=float("-inf"), pathloss_db=40.0)
    g = ArrayGeometry(4)
    rng = np.random.default_rng(11)
    samples = np.concatenate(
        [rician_si_channel(4, 4, g, g, params, rng).ravel() for _ in range(3000)]
    )
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(1e-4, rel=0.05)
    # zero-mean within Monte-Carlo noise (per-dim SEM is about 3e-5 here)
    assert abs(np.mean(samples)) < 2e-4


def test_rician_dimension_validation():
    with pytest.raises(ValueError):
        rician_si_channel(4, 8, ArrayGeometry(2), ArrayGeometry(8), PAPER_SI,
                          np.random.default_rng(0))


# =====================================================================
# dump files
# =====================================================================


def test_matrix_dump_round_trip(tmp_path, rng):
    from conftest import crandn

    m = crandn(rng, 5, 3) * 10.0 ** rng.uniform(-12, 3)
    path = tmp_path / "mat.txt"
    dump_matrix(path, m)
    back = load_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(back, m)  # exact, not approximate


def test_matrix_dump_header(tmp_path):
    path = tmp_path / "small.txt"
    dump_matrix(path, np.array([[1 + 2j]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "1 1"
    assert len(lines) == 2
