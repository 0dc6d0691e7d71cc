"""Channel generator tests: steering vectors, clustered multipath draws,
the near-field Rician self-interference model, and matrix dump files."""

import numpy as np
import pytest

from fdhbf.canceller import TapImpairments
from fdhbf.config import config_from_values
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
from fdhbf.numerics import db_to_linear
from fdhbf.sweep import _SLAB, draw_channels, run_sweep, trial_rng


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
    lambda v: ClusteredChannelParams(pathloss_db=v),
    lambda v: SiChannelParams(pathloss_db=v),
    lambda v: SiChannelParams(tx_rx_angle_rad=v),
], ids=["spacing", "angle_spread", "si_distance", "attenuation_step",
        "clustered_pathloss", "si_pathloss", "si_angle"])
def test_constructors_reject_non_finite_values(make, value):
    # accepted, each would give non-finite channels or tap weights
    with pytest.raises(ValueError):
        make(value)


def test_widest_angle_spread_draws_finite_channels(rng):
    params = ClusteredChannelParams(angle_spread_rad=1e6)
    assert np.isfinite(clustered_channel(ArrayGeometry(4), ArrayGeometry(8), params, rng)).all()
    with pytest.raises(ValueError):  # its Laplacian offsets would overflow to inf
        ClusteredChannelParams(angle_spread_rad=1e308)


def test_k_factor_rejects_nan_but_keeps_both_infinities():
    with pytest.raises(ValueError):
        SiChannelParams(k_factor_db=np.nan)
    SiChannelParams(k_factor_db=np.inf)  # pure line of sight
    SiChannelParams(k_factor_db=-np.inf)  # pure scatter


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
    h1 = clustered_channel(geom_rx, geom_tx, params, np.random.default_rng(5))
    h2 = clustered_channel(geom_rx, geom_tx, params, np.random.default_rng(5))
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
        h = clustered_channel(geom_rx, geom_tx, params, rng)
        acc += np.sum(np.abs(h) ** 2)
    mean_gain = acc / draws / (8 * 4)
    assert mean_gain == pytest.approx(1e-11, rel=0.05)


def test_clustered_pathloss_scaling_exact_per_draw():
    # same random stream, +20 dB pathloss -> every draw scales by exactly 1/100
    geom_rx, geom_tx = ArrayGeometry(8), ArrayGeometry(4)
    p1 = ClusteredChannelParams(pathloss_db=90.0)
    p2 = ClusteredChannelParams(pathloss_db=110.0)
    h1 = clustered_channel(geom_rx, geom_tx, p1, np.random.default_rng(7))
    h2 = clustered_channel(geom_rx, geom_tx, p2, np.random.default_rng(7))
    ratio = np.sum(np.abs(h1) ** 2) / np.sum(np.abs(h2) ** 2)
    assert ratio == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("spread", [np.deg2rad(10.0), 0.0])
def test_clustered_channel_keeps_its_documented_stream(spread):
    """clustered_channel is clustered_from_paths of its five documented draws,
    made one call each: RX centers, TX centers, RX offsets, TX offsets (none
    at zero spread), then the gains' normals; same bits and the same
    generator state, so the calls it merges keep the stream."""
    params = ClusteredChannelParams(num_clusters=3, rays_per_cluster=5, angle_spread_rad=spread)
    geom_rx, geom_tx = ArrayGeometry(4), ArrayGeometry(8)
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = clustered_channel(geom_rx, geom_tx, params, got_rng)
    nc, nr = params.num_clusters, params.rays_per_cluster
    rx_centers = want_rng.uniform(-np.pi / 2.0, np.pi / 2.0, nc)
    tx_centers = want_rng.uniform(-np.pi / 2.0, np.pi / 2.0, nc)
    rx_off, tx_off = ((want_rng.laplace(0.0, spread / np.sqrt(2.0), (nc, nr)) if spread > 0
                       else np.zeros((nc, nr))) for _ in range(2))
    normals = want_rng.standard_normal((2, nc, nr))
    want = clustered_from_paths((normals[0] + 1j * normals[1]) / np.sqrt(2.0),
                                rx_centers[:, None] + rx_off, tx_centers[:, None] + tx_off,
                                geom_rx, geom_tx, params.pathloss_db)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


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
    h1 = rician_si_channel(g_rx, g_tx, params, np.random.default_rng(1))
    h2 = rician_si_channel(g_rx, g_tx, params, np.random.default_rng(2))
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
        h = rician_si_channel(g_rx, g_tx, PAPER_SI, rng)
        acc += np.sum(np.abs(h) ** 2)
    assert acc / draws / 16 == pytest.approx(1e-4, rel=0.05)


def test_rician_pure_scatter_variance():
    # K -> 0 (linear) leaves only the i.i.d. part with per-entry variance
    # 10^(-pathloss/10)
    params = SiChannelParams(k_factor_db=float("-inf"), pathloss_db=40.0)
    g = ArrayGeometry(4)
    rng = np.random.default_rng(11)
    samples = np.concatenate(
        [rician_si_channel(g, g, params, rng).ravel() for _ in range(3000)]
    )
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(1e-4, rel=0.05)
    # zero-mean within Monte-Carlo noise (per-dim SEM is about 3e-5 here)
    assert abs(np.mean(samples)) < 2e-4


# =====================================================================
# the cached line-of-sight matrix
# =====================================================================

GEOMETRY_PAIRS = [
    (ArrayGeometry(32), ArrayGeometry(64)),  # the default node
    (ArrayGeometry(5, 0.7), ArrayGeometry(3, 0.4)),
]


def test_si_los_matrix_is_shared_and_read_only():
    g_rx, g_tx = GEOMETRY_PAIRS[1]
    los = si_los_matrix(g_rx, g_tx, PAPER_SI)
    assert si_los_matrix(g_rx, g_tx, PAPER_SI) is los
    # equal but distinct keys find the same entry
    assert si_los_matrix(ArrayGeometry(5, 0.7), ArrayGeometry(3, 0.4), SiChannelParams()) is los
    with pytest.raises(ValueError):
        los[0, 0] = 0.0
    with pytest.raises(ValueError):
        los *= 2.0


def _uncached_si_draw(geom_rx, geom_tx, params, rng):
    """rician_si_channel as it was before the cache: a fresh LOS matrix,
    normalized in place."""
    rows, cols = geom_rx.num_elements, geom_tx.num_elements
    target = rows * cols * db_to_linear(-params.pathloss_db)
    nlos = (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)
    nlos *= np.sqrt(target / (rows * cols))
    los = si_los_matrix.__wrapped__(geom_rx, geom_tx, params).copy()
    los *= np.sqrt(target) / np.linalg.norm(los)
    k = db_to_linear(params.k_factor_db)
    if np.isinf(k):
        return los
    return np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * nlos


@pytest.mark.parametrize("k_db", [35.0, 300.0, np.inf, -np.inf])
@pytest.mark.parametrize("pair", range(len(GEOMETRY_PAIRS)))
def test_cached_si_draws_equal_the_uncached_formula(k_db, pair):
    g_rx, g_tx = GEOMETRY_PAIRS[pair]
    params = SiChannelParams(k_factor_db=k_db)
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(3):  # the first draw may build the matrix, the rest reuse it
        got = rician_si_channel(g_rx, g_tx, params, got_rng)
        assert np.array_equal(got, _uncached_si_draw(g_rx, g_tx, params, want_rng))
    # both streams consumed the same draws
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_pure_los_draw_is_a_writable_copy():
    g_rx, g_tx = GEOMETRY_PAIRS[1]
    params = SiChannelParams(k_factor_db=np.inf)
    first = rician_si_channel(g_rx, g_tx, params, np.random.default_rng(1))
    before = first.copy()
    assert first.flags.writeable
    first[:] = 0.0
    assert np.array_equal(rician_si_channel(g_rx, g_tx, params, np.random.default_rng(1)), before)


def test_a_sweep_builds_the_los_matrix_once():
    """Every slab of a one-worker sweep draws its SI channels from one cached
    matrix, one lookup per slab (here one chunk of 2 x 5 cells across both
    power points, in slabs of 8 and 2); a key that stops hashing equal would
    rebuild it per slab."""
    cfg = config_from_values({"sweep.trials": 5, "sweep.powers_dbm": "0, 30",
                              "sweep.seed": 4})
    si_los_matrix.cache_clear()
    run_sweep(cfg)
    info = si_los_matrix.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# =====================================================================
# slabs: one stacked draw per sequence of generators
# =====================================================================

SLAB_CONFIGS = {
    "default": {},
    "no angle spread": {"channel.angle_spread_rad": 0.0},
    "k +inf": {"si.k_factor_db": np.inf},
    "k -inf": {"si.k_factor_db": -np.inf},
    "one ray": {"channel.clusters": 1, "channel.rays": 1},
    "1 dl antenna": {"node.dl_rx_antennas": 1},
    "2 ul antennas": {"node.ul_tx_antennas": 2},
}


@pytest.mark.parametrize("size", [1, 3, _SLAB])
@pytest.mark.parametrize("name", SLAB_CONFIGS)
def test_a_slab_draws_each_generator_as_alone(name, size):
    """draw_channels of a sequence of generators gives one record of stacks
    whose row i is generator i's draw of its own call, bit for bit, leaves
    each generator in the same state, and gives each row an SI matrix of its
    own: writable, sharing no memory with another row's or with the cached
    LOS matrix."""
    cfg = config_from_values(SLAB_CONFIGS[name])
    cells = range(4, 4 + size)
    alone_rngs = [trial_rng(cfg.seed, 1, t) for t in cells]
    slab_rngs = [trial_rng(cfg.seed, 1, t) for t in cells]
    alone = [draw_channels(cfg, rng) for rng in alone_rngs]
    slab = draw_channels(cfg, slab_rngs)
    links = ("h_dl", "h_ul", "h_si")
    assert [len(getattr(slab, link)) for link in links] == [size] * 3
    rows = [slab[i] for i in range(size)]
    for a, b in zip(alone, rows):
        for link in links:
            x, y = getattr(a, link), getattr(b, link)
            assert x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))
    assert [r.bit_generator.state for r in slab_rngs] == [r.bit_generator.state for r in alone_rngs]
    s = cfg.array_spacing_wavelengths
    los = si_los_matrix(ArrayGeometry(cfg.node.rx_antennas, s),
                        ArrayGeometry(cfg.node.tx_antennas, s), cfg.si)
    for i, b in enumerate(rows):
        assert b.h_si.flags.writeable and not np.shares_memory(b.h_si, los)
        assert not any(np.shares_memory(b.h_si, c.h_si) for c in rows[i + 1:])


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
