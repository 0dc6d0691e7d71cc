"""Property tests of solve_trial's outputs: the paper-level invariants every
trial must meet, over small random nodes, channels and tap settings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdhbf.beamforming import NodeConfig
from fdhbf.canceller import TapImpairments
from fdhbf.channel import ChannelRealization
from fdhbf.codebook import dft_codebook
from fdhbf.rates import residual_si_profile
from fdhbf.trial import solve_trial

from conftest import crandn


@st.composite
def _trials(draw):
    """A small node (2-3 TX chains, 1-2 RX chains, 2-antenna subarrays), a
    channel draw whose SI strength spans weak to far over budget, and a tap
    count with ideal or quantized taps."""
    tx_chains, rx_chains = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    power_dbm = draw(st.floats(0.0, 50.0))
    cfg = NodeConfig(
        tx_antennas=2 * tx_chains, rx_antennas=2 * rx_chains,
        tx_chains=tx_chains, rx_chains=rx_chains,
        dl_rx_antennas=draw(st.integers(1, 2)), ul_tx_antennas=draw(st.integers(1, 2)),
        tx_power_dbm=power_dbm, ul_tx_power_dbm=power_dbm,
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
    res = solve_trial(channels, cfg, cb, cb, num_taps, impairments)
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
