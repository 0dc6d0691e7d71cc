"""Property tests of solve_trial's outputs: the paper-level invariants every
trial must meet, over small random nodes, channels and tap settings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdhbf.beamforming import NodeConfig
from fdhbf.canceller import TapImpairments
from fdhbf.channel import ChannelRealization
from fdhbf.codebook import dft_codebook
from fdhbf.numerics import count_regularizations, herm
from fdhbf.rates import residual_si_profile
from fdhbf.trial import solve_trial

from conftest import crandn


@st.composite
def _trials(draw):
    """A small node (2-3 TX chains, 1-2 RX chains, 2-antenna subarrays, 1-3
    UL antennas), a channel draw whose SI strength spans weak to far over
    budget, and a tap count with ideal or quantized taps.  The UL power goes
    low enough that water-filling leaves UL modes without power."""
    tx_chains, rx_chains = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    cfg = NodeConfig(
        tx_antennas=2 * tx_chains, rx_antennas=2 * rx_chains,
        tx_chains=tx_chains, rx_chains=rx_chains,
        dl_rx_antennas=draw(st.integers(1, 2)), ul_tx_antennas=draw(st.integers(1, 3)),
        tx_power_dbm=draw(st.floats(0.0, 50.0)), ul_tx_power_dbm=draw(st.floats(-40.0, 50.0)),
        si_budget_dbm=draw(st.floats(-70.0, -30.0)),
        rx_noise_dbm=-90.0, dl_rx_noise_dbm=-90.0,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    si_scale = 10.0 ** draw(st.floats(-4.0, -1.0))
    channels = ChannelRealization(
        h_dl=crandn(rng, cfg.dl_rx_antennas, cfg.tx_antennas) * 1e-3,
        h_ul=crandn(rng, cfg.rx_antennas, cfg.ul_tx_antennas) * 1e-3,
        h_si=crandn(rng, cfg.rx_antennas, cfg.tx_antennas) * si_scale,
    )
    num_taps = draw(st.integers(0, min(3, tx_chains * rx_chains)))
    impairments = TapImpairments(
        enabled=draw(st.booleans()),
        attenuation_step_db=draw(st.sampled_from([0.0, 0.25, 1.0])),
        phase_bits=draw(st.sampled_from([0, 3, 10])),
    )
    return cfg, channels, num_taps, impairments


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_trials())
def test_trial_invariants(case):
    cfg, channels, num_taps, impairments = case
    cb = dft_codebook(2)
    with count_regularizations() as regularizations:
        res = solve_trial(channels, cfg, cb, cb, num_taps, impairments)
    assert regularizations.events == 0
    f_bb = res.f_bb

    assert res.fd_rate == res.dl_rate + res.ul_rate
    for rate in (res.dl_rate, res.ul_rate, res.fd_rate, res.hd_rate):
        assert np.isfinite(rate) and rate >= 0.0

    profile = residual_si_profile(res.h_si_eff, f_bb)
    assert res.max_residual_si_w == np.max(profile)
    if res.feasible:
        assert np.all(profile <= cfg.si_budget_w)

    if not impairments.enabled:
        assert np.all(res.h_si_eff[res.canceller.routing.entries()] == 0.0)

    assert np.linalg.norm(f_bb) ** 2 <= cfg.tx_power_w * (1 + 1e-9)

    # the uplink rate through the MMSE combiner is the whitened capacity
    # log2 det(R + H F F^H H^H) - log2 det(R), with R the chain-level
    # interference-plus-noise covariance, on every draw; R's own rounding
    # moves either log-det by up to ~ eps * cond(R) per dimension
    ipn, capacity = whitened_capacity(res, channels, cfg)
    slack = 2 * len(ipn) * np.finfo(float).eps * np.linalg.cond(ipn)
    np.testing.assert_allclose(res.ul_rate, capacity, rtol=1e-8, atol=slack)


def test_ul_rate_is_the_whitened_capacity_under_strong_si():
    """Two UL streams against SI far over budget and no taps: R is
    ill conditioned, and the rate must still be the whitened capacity."""
    cfg = NodeConfig(tx_antennas=4, rx_antennas=4, tx_chains=2, rx_chains=2,
                     dl_rx_antennas=2, ul_tx_antennas=2, tx_power_dbm=40.0,
                     ul_tx_power_dbm=30.0, si_budget_dbm=-60.0,
                     rx_noise_dbm=-90.0, dl_rx_noise_dbm=-90.0)
    cb = dft_codebook(2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        channels = ChannelRealization(h_dl=crandn(rng, 2, 4) * 1e-3,
                                      h_ul=crandn(rng, 4, 2) * 1e-3,
                                      h_si=crandn(rng, 4, 4) * 1e-2)
        res = solve_trial(channels, cfg, cb, cb, 0)
        _, capacity = whitened_capacity(res, channels, cfg)
        np.testing.assert_allclose(res.ul_rate, capacity, rtol=1e-8, atol=0.0)


def whitened_capacity(res, channels, cfg):
    """The chain-level interference-plus-noise covariance R of a trial's
    uplink, and the uplink capacity its precoder reaches against R."""
    w_rf = res.w_rf.matrix
    leak = res.h_si_eff @ res.f_bb
    ipn = leak @ herm(leak) + cfg.rx_noise_w * (herm(w_rf) @ w_rf)
    signal = herm(w_rf) @ channels.h_ul @ res.f_ul
    logdet = np.linalg.slogdet(ipn + signal @ herm(signal))[1] - np.linalg.slogdet(ipn)[1]
    return ipn, logdet / np.log(2.0)
