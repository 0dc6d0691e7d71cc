"""Rate-evaluation tests: DL/UL log-det rates, residual-SI accounting, the
sampled-signal cross-check, and the half-duplex baseline."""

import numpy as np
import pytest

from fdhbf.beamforming import (
    NodeConfig,
    best_rx_beams,
    best_tx_beams,
    capacity_precoder,
    design_ul_combiner,
    design_ul_precoder,
)
from fdhbf.channel import ChannelRealization
from fdhbf.codebook import dft_codebook
from fdhbf.numerics import herm, hermitize, log2det_hpd
from fdhbf.rates import (
    dl_rate,
    residual_si_profile,
    signal_sample_stats,
    ul_ipn_covariance,
    ul_rate,
)
from fdhbf.trial import _uplink, hd_baseline_rate

from conftest import crandn


# =====================================================================
# downlink rate
# =====================================================================


def test_dl_rate_identity_case():
    assert dl_rate(np.eye(2), np.eye(2), 1.0) == pytest.approx(2.0, abs=1e-12)


def test_dl_rate_zero_precoder(rng):
    assert dl_rate(crandn(rng, 2, 4), np.zeros((4, 2)), 1.0) == 0.0


def test_dl_rate_matches_eigenmode_sum(rng):
    for _ in range(100):
        h = crandn(rng, 3, 4)
        v = crandn(rng, 4, 2)
        noise = float(10.0 ** rng.uniform(-2, 1))
        s = np.linalg.svd(h @ v, compute_uv=False)
        want = float(np.sum(np.log2(1.0 + s**2 / noise)))
        assert dl_rate(h, v, noise) == pytest.approx(want, abs=1e-9)


def test_dl_rate_monotone_in_power(rng):
    h = crandn(rng, 2, 3)
    v = crandn(rng, 3, 2)
    rates = [dl_rate(h, np.sqrt(p) * v, 1.0) for p in (0.1, 1.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


# =====================================================================
# uplink IpN covariance and rate
# =====================================================================


def test_ipn_noise_only_reduces_to_scaled_identity():
    # orthonormal combiner columns and zero SI leave only the noise term
    w_rf = np.eye(4)[:, :2]
    w_bb = np.eye(2)
    q = ul_ipn_covariance(w_bb, w_rf, np.zeros((2, 3)), np.zeros((3, 2)), 0.25)
    assert np.allclose(q, 0.25 * np.eye(2), atol=1e-14)


def test_ipn_zero_precoder_leaves_pure_noise(rng):
    w_rf = crandn(rng, 6, 2)
    w_bb = crandn(rng, 2, 2)
    h_si_eff = crandn(rng, 2, 4)
    q = ul_ipn_covariance(w_bb, w_rf, h_si_eff, np.zeros((4, 2)), 1.5)
    want = 1.5 * herm(w_bb) @ herm(w_rf) @ w_rf @ w_bb
    assert np.allclose(q, hermitize(want), atol=1e-12)


def test_ipn_is_hermitian_psd(rng):
    q = ul_ipn_covariance(crandn(rng, 2, 2), crandn(rng, 6, 2),
                          crandn(rng, 2, 4), crandn(rng, 4, 3), 0.1)
    assert np.allclose(q, herm(q), atol=1e-14)
    assert np.min(np.linalg.eigvalsh(q)) >= -1e-12


def test_ul_rate_scalar_reduction():
    # one stream: rate collapses to log2(1 + signal/ipn)
    w = np.array([[1.0], [0.0]])
    h = np.array([[2.0], [0.0]])
    f = np.array([[1.5]])
    q = np.array([[0.5]])
    want = np.log2(1.0 + (2.0 * 1.5) ** 2 / 0.5)
    assert ul_rate(w, h, f, q) == pytest.approx(want, abs=1e-12)


def test_ul_rate_zero_precoder(rng):
    q = np.eye(2) * 0.3
    assert ul_rate(crandn(rng, 4, 2), crandn(rng, 4, 1),
                   np.zeros((1, 1)), q) == 0.0


def test_ul_rate_determinant_identity(rng):
    # log2 det(I + A B) == log2 det(I + B A) ties the two forms together
    for _ in range(50):
        w = crandn(rng, 4, 2)
        h = crandn(rng, 4, 2)
        f = crandn(rng, 2, 2)
        qm = crandn(rng, 2, 2)
        qm = hermitize(qm @ herm(qm)) + 0.2 * np.eye(2)
        b = herm(w) @ h @ f
        got = ul_rate(w, h, f, qm)
        want = log2det_hpd(np.eye(2) + herm(b) @ np.linalg.solve(qm, b))
        assert got == pytest.approx(want, abs=1e-9)


def test_ul_rate_decreases_with_residual_si(rng):
    w_rf = crandn(rng, 6, 2)
    w_bb = crandn(rng, 2, 1)
    h_ul = crandn(rng, 6, 1)
    f_ul = np.array([[1.0]])
    h_si_eff = crandn(rng, 2, 4)
    f_bb = crandn(rng, 4, 2)
    prev = np.inf
    for scale in (0.0, 0.1, 1.0, 10.0):
        q = ul_ipn_covariance(w_bb, w_rf, scale * h_si_eff, f_bb, 0.01)
        r = ul_rate(w_rf @ w_bb, h_ul, f_ul, q)
        assert r <= prev + 1e-12
        prev = r


# =====================================================================
# residual self-interference bookkeeping
# =====================================================================


def test_residual_profile_zero_channel():
    assert np.array_equal(residual_si_profile(np.zeros((3, 4)), np.ones((4, 2))),
                          np.zeros(3))


def test_residual_profile_hand_value():
    h = np.array([[1.0, 0.0], [0.0, 2.0]])
    prof = residual_si_profile(h, np.eye(2))
    assert np.allclose(prof, [1.0, 4.0], atol=1e-14)
    assert prof[1] == pytest.approx(4.0, abs=1e-14)


# =====================================================================
# sampled-signal cross-check
# =====================================================================


def test_sample_stats_match_closed_forms(rng):
    cfg = NodeConfig(tx_antennas=8, rx_antennas=4, tx_chains=4, rx_chains=2,
                     dl_rx_antennas=3, rx_noise_dbm=0.0, dl_rx_noise_dbm=0.0)
    channels = ChannelRealization(h_dl=crandn(rng, 3, 8),
                                  h_ul=crandn(rng, 4, 1),
                                  h_si=crandn(rng, 4, 8))
    cb = dft_codebook(2)
    f_rf = best_tx_beams(channels.h_dl, cb, 4).matrix
    w_rf = best_rx_beams(channels.h_ul, cb, 2).matrix
    f_bb = crandn(rng, 4, 2) * 0.7
    w_bb = crandn(rng, 2, 1)
    f_ul = np.array([[1.0]])
    canceller = np.zeros((2, 4))
    stats = signal_sample_stats(channels, cfg, f_rf, f_bb, w_rf, w_bb, f_ul,
                                canceller, num_samples=100_000,
                                rng=np.random.default_rng(404))
    h_si_eff = herm(w_rf) @ channels.h_si @ f_rf + canceller

    prof = residual_si_profile(h_si_eff, f_bb)
    assert np.all(np.abs(stats.si_power_per_chain - prof) <= 0.03 * prof.max())

    q = ul_ipn_covariance(w_bb, w_rf, h_si_eff, f_bb, cfg.rx_noise_w)
    err = np.linalg.norm(stats.ul_ipn_estimate - q, 2) / np.linalg.norm(q, 2)
    assert err < 0.03

    a = channels.h_dl @ f_rf @ f_bb
    dl_cov = hermitize(a @ herm(a)) + cfg.dl_rx_noise_w * np.eye(3)
    err = np.linalg.norm(stats.dl_rx_covariance - dl_cov, 2) / np.linalg.norm(dl_cov, 2)
    assert err < 0.03


def test_sample_stats_deterministic(rng):
    cfg = NodeConfig(tx_antennas=4, rx_antennas=4, tx_chains=2, rx_chains=2,
                     dl_rx_antennas=2)
    channels = ChannelRealization(h_dl=crandn(rng, 2, 4),
                                  h_ul=crandn(rng, 4, 1),
                                  h_si=crandn(rng, 4, 4))
    args = (channels, cfg, np.eye(4, 2), crandn(rng, 2, 1), np.eye(4, 2),
            np.eye(2, 1), np.array([[1.0]]), np.zeros((2, 2)), 500)
    s1 = signal_sample_stats(*args, rng=np.random.default_rng(9))
    s2 = signal_sample_stats(*args, rng=np.random.default_rng(9))
    assert np.array_equal(s1.si_power_per_chain, s2.si_power_per_chain)
    assert np.array_equal(s1.ul_ipn_estimate, s2.ul_ipn_estimate)
    assert np.array_equal(s1.dl_rx_covariance, s2.dl_rx_covariance)


def test_sample_stats_validates_count(rng):
    cfg = NodeConfig(tx_antennas=4, rx_antennas=4, tx_chains=2, rx_chains=2,
                     dl_rx_antennas=2)
    channels = ChannelRealization(h_dl=crandn(rng, 2, 4),
                                  h_ul=crandn(rng, 4, 1),
                                  h_si=crandn(rng, 4, 4))
    with pytest.raises(ValueError):
        signal_sample_stats(channels, cfg, np.eye(4, 2), crandn(rng, 2, 1),
                            np.eye(4, 2), np.eye(2, 1), np.array([[1.0]]),
                            np.zeros((2, 2)), 0, rng=np.random.default_rng(1))


# =====================================================================
# half-duplex baseline
# =====================================================================


def _hd_reference(channels, cfg, cb_tx, cb_rx):
    """Rebuild the baseline from public pieces: per-direction greedy analog
    beams, unconstrained water-filled DL, noise-only MMSE UL, half time each.
    """
    f_rf = best_tx_beams(channels.h_dl, cb_tx, cfg.tx_chains)
    f_bb = capacity_precoder(channels.h_dl @ f_rf.matrix, cfg.tx_power_w,
                             cfg.dl_rx_noise_w)
    r_dl = dl_rate(channels.h_dl, f_rf.matrix @ f_bb, cfg.dl_rx_noise_w)

    w_rf = best_rx_beams(channels.h_ul, cb_rx, cfg.rx_chains)
    h_eff_ul = herm(w_rf.matrix) @ channels.h_ul
    f_ul = design_ul_precoder(h_eff_ul, cfg.ul_tx_power_w)
    q_inner = cfg.rx_noise_w * hermitize(herm(w_rf.matrix) @ w_rf.matrix)
    w_bb = design_ul_combiner(h_eff_ul, f_ul, q_inner)
    q = hermitize(herm(w_bb) @ q_inner @ w_bb)
    r_ul = ul_rate(w_rf.matrix @ w_bb, channels.h_ul, f_ul, q)
    return 0.5 * r_dl + 0.5 * r_ul


def test_hd_baseline_matches_reference(rng):
    cfg = NodeConfig(tx_antennas=8, rx_antennas=4, tx_chains=4, rx_chains=2,
                     dl_rx_antennas=3, tx_power_dbm=20, ul_tx_power_dbm=20,
                     rx_noise_dbm=-60, dl_rx_noise_dbm=-60)
    cb_tx, cb_rx = dft_codebook(2), dft_codebook(2)
    for _ in range(10):
        channels = ChannelRealization(h_dl=crandn(rng, 3, 8) * 1e-2,
                                      h_ul=crandn(rng, 4, 1) * 1e-2,
                                      h_si=crandn(rng, 4, 8) * 1e-2)
        got = hd_baseline_rate(channels.h_dl, channels.h_ul, cfg, cb_tx, cb_rx)
        assert got == pytest.approx(_hd_reference(channels, cfg, cb_tx, cb_rx),
                                    abs=1e-9)
        assert got > 0

    # a zero DL channel water-fills all-zero gains: the DL half is exactly 0
    channels = ChannelRealization(h_dl=np.zeros((3, 8)),
                                  h_ul=crandn(rng, 4, 1) * 1e-2,
                                  h_si=crandn(rng, 4, 8) * 1e-2)
    w_rf = best_rx_beams(channels.h_ul, cb_rx, cfg.rx_chains)
    _, rate_ul = _uplink(channels.h_ul[None], w_rf.matrix[None], 0.0, cfg, cfg.ul_tx_power_w,
                         np.arange(1))
    got = hd_baseline_rate(channels.h_dl, channels.h_ul, cfg, cb_tx, cb_rx)
    assert got == 0.5 * rate_ul[0] > 0
    assert got == pytest.approx(_hd_reference(channels, cfg, cb_tx, cb_rx), abs=1e-9)


def test_hd_baseline_vanishes_without_power(rng):
    cfg = NodeConfig(tx_antennas=8, rx_antennas=4, tx_chains=4, rx_chains=2,
                     dl_rx_antennas=3, tx_power_dbm=-300, ul_tx_power_dbm=-300)
    channels = ChannelRealization(h_dl=crandn(rng, 3, 8),
                                  h_ul=crandn(rng, 4, 1),
                                  h_si=crandn(rng, 4, 8))
    r = hd_baseline_rate(channels.h_dl, channels.h_ul, cfg, dft_codebook(2), dft_codebook(2))
    assert 0.0 <= r < 1e-12
