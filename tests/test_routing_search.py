"""solve_trial's stacked tap-routing search against the per-routing loop it
replaced.

`loop_search` below is that loop, rebuilt from the public per-routing pieces
(enumerate_routings, set_tap_values, assemble_canceller, design_dl_precoder,
dl_rate).  It is the reference: the trial must pick the same routing with
the same design on every draw, ideal and impaired taps alike, and must keep
the loop's tie rules.  The chain-level draws run the whole trial on a node
with one antenna per chain, whose analog stages are identity matrices.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from fdhbf.beamforming import DlPrecoderStack, NodeConfig, design_dl_precoder
from fdhbf.canceller import (
    TapImpairments,
    assemble_canceller,
    enumerate_routings,
    set_tap_values,
)
from fdhbf.channel import ChannelRealization, SiChannelParams
from fdhbf.codebook import dft_codebook
from fdhbf.config import config_from_values
from fdhbf.rates import dl_rate, residual_si_profile
from fdhbf.sweep import draw_channels, trial_rng
from fdhbf.trial import _pick_routing, solve_trial

from conftest import crandn

IMPAIRED = TapImpairments(enabled=True, attenuation_step_db=0.25, phase_bits=10)


class LoopChoice(NamedTuple):
    order: int
    f_bb: np.ndarray
    subspace_dim: int
    feasible: bool
    dl_rate: float
    max_residual_si_w: float
    outcomes: frozenset = frozenset()  # (subspace_dim, feasible) of every routing


def loop_search(si_at_chains, h_dl, f_rf, cfg, num_taps, impairments=None):
    """One routing at a time: among feasible designs the highest downlink
    rate wins, then the fewest active streams, then enumeration order; with
    none feasible the smallest worst-chain residual, then enumeration order."""
    h_eff_dl = h_dl @ f_rf
    best_feasible = best_fallback = None
    outcomes = set()
    for order, routing in enumerate(
        enumerate_routings(cfg.tx_chains, cfg.rx_chains, num_taps)
    ):
        values = set_tap_values(routing, si_at_chains, impairments)
        h_si_eff = si_at_chains + assemble_canceller(routing, values)
        design = design_dl_precoder(
            h_si_eff, h_eff_dl, cfg.tx_power_w, cfg.si_budget_w, cfg.dl_rx_noise_w
        )
        worst = float(np.max(residual_si_profile(h_si_eff, design.f_bb)))
        outcomes.add((design.subspace_dim, design.feasible))
        choice = LoopChoice(order, design.f_bb, design.subspace_dim, design.feasible,
                            dl_rate(h_dl, f_rf @ design.f_bb, cfg.dl_rx_noise_w), worst)
        if design.feasible:
            streams = int(np.count_nonzero(np.linalg.norm(design.f_bb, axis=0) > 0.0))
            key = (-choice.dl_rate, streams, order)
            if best_feasible is None or key < best_feasible[0]:
                best_feasible = (key, choice)
        else:
            key = (worst, order)
            if best_fallback is None or key < best_fallback[0]:
                best_fallback = (key, choice)
    return (best_feasible or best_fallback)[1]._replace(outcomes=frozenset(outcomes))


def assert_same_choice(got, want, cfg, num_taps):
    """The trial result `got` made the loop's choice `want`."""
    routings = enumerate_routings(cfg.tx_chains, cfg.rx_chains, num_taps)
    assert got.canceller.routing == routings[want.order]
    assert (got.dl_subspace_dim, got.feasible) == (want.subspace_dim, want.feasible)
    assert got.f_bb.shape == want.f_bb.shape
    np.testing.assert_allclose(got.dl_rate, want.dl_rate, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(got.max_residual_si_w, want.max_residual_si_w,
                               rtol=1e-10, atol=0.0)


# Each config: (tx_chains, rx_chains), taps, impairments, draws, and the
# (subspace_dim, feasible) design outcomes its draws must all produce.  With
# 2 RX chains the residual leaves a 2-dimensional null space, so every
# design fits at dimension 3 or 2; with 4 RX chains it has full rank and the
# sweep goes down to the single-direction fallback, feasible or not.
EVERY_OUTCOME = {(3, True), (2, True), (1, True), (1, False)}
CHAIN_LEVEL = {
    "4x2 ideal, 4 taps (70 routings)": ((4, 2), 4, None, 100, {(3, True), (2, True)}),
    "4x2 impaired, 4 taps (70 routings)": ((4, 2), 4, IMPAIRED, 100, {(3, True), (2, True)}),
    "4x4 impaired, 2 taps (120 routings)": ((4, 4), 2, IMPAIRED, 60, EVERY_OUTCOME),
    "4x4 no taps (1 routing)": ((4, 4), 0, None, 740, EVERY_OUTCOME),
}


def chain_level_draw(rng, tx_chains, rx_chains):
    """A chain-level node, SI matrix and downlink channel, with the transmit
    power, the SI strength and the budget spread so that designs end at
    every subspace dimension the chain counts allow."""
    cfg = NodeConfig(tx_antennas=tx_chains, rx_antennas=rx_chains,
                     tx_chains=tx_chains, rx_chains=rx_chains,
                     tx_power_dbm=float(rng.uniform(0.0, 50.0)),
                     si_budget_dbm=float(rng.uniform(-70.0, -40.0)))
    si = crandn(rng, rx_chains, tx_chains) * 10.0 ** rng.uniform(-6.0, -3.0)
    h_dl = crandn(rng, cfg.dl_rx_antennas, tx_chains) * 10.0 ** rng.uniform(-7.0, -5.0)
    return cfg, si, h_dl


def chain_level_trial(cfg, si, h_dl, num_taps, impairments=None):
    """solve_trial on a node with one antenna per chain: one-beam codebooks
    make both analog stages identity matrices, so the chain-level SI matrix
    is `si` bit for bit.  The uplink channel is fixed, so the draws stay
    those of chain_level_draw."""
    h_ul = np.full((cfg.rx_antennas, cfg.ul_tx_antennas), 1e-6, dtype=complex)
    cb = dft_codebook(1)
    return solve_trial(ChannelRealization(h_dl=h_dl, h_ul=h_ul, h_si=si), cfg, cb, cb,
                       num_taps, impairments)


@pytest.mark.parametrize("name", CHAIN_LEVEL)
def test_stacked_search_matches_loop_at_chain_level(name):
    """1000 draws over the four configs: the same routing, subspace
    dimension, feasibility and precoder width as the loop, with rates and
    residuals within 1e-10 relative."""
    (tx_chains, rx_chains), taps, impairments, draws, expected = CHAIN_LEVEL[name]
    rng = np.random.default_rng(list(CHAIN_LEVEL).index(name))
    f_rf = np.eye(tx_chains)
    outcomes, winners = set(), set()
    for _ in range(draws):
        cfg, si, h_dl = chain_level_draw(rng, tx_chains, rx_chains)
        want = loop_search(si, h_dl, f_rf, cfg, taps, impairments)
        got = chain_level_trial(cfg, si, h_dl, taps, impairments)
        assert np.array_equal(got.f_rf.matrix, f_rf)
        assert_same_choice(got, want, cfg, taps)
        outcomes |= want.outcomes
        winners.add(got.feasible)
    assert outcomes == expected
    assert winners == ({True, False} if (1, False) in expected else {True})


@pytest.mark.parametrize("values", [
    {},
    {"canceller.impaired": True},
    {"node.rx_chains": 4, "canceller.taps": 2, "canceller.impaired": True},
    {"canceller.taps": 0},
])
def test_solve_trial_matches_loop_on_full_draws(values):
    cfg = config_from_values({**values, "sweep.seed": 11})
    for trial in range(4):
        power_index = trial % len(cfg.powers_dbm)
        channels = draw_channels(cfg, trial_rng(cfg.seed, power_index, trial))
        node = replace(cfg.node, tx_power_dbm=cfg.powers_dbm[power_index])
        cb_tx = dft_codebook(node.tx_subarray)
        cb_rx = dft_codebook(node.rx_subarray)
        res = solve_trial(channels, node, cb_tx, cb_rx, cfg.num_taps, cfg.impairments)
        f_rf, w_rf = res.f_rf.matrix, res.w_rf.matrix
        si = w_rf.conj().T @ channels.h_si @ f_rf
        want = loop_search(si, channels.h_dl, f_rf, node, cfg.num_taps, cfg.impairments)
        assert_same_choice(res, want, node, cfg.num_taps)


# =====================================================================
# degenerate inputs and tie rules
# =====================================================================


def test_zero_downlink_channel_gets_zero_power(rng):
    """The restricted downlink channel has rank 0: every routing's design is
    one zero column at full dimension, every rate is 0, and the tie rules
    pick the first routing."""
    for _ in range(10):
        cfg, si, _ = chain_level_draw(rng, 4, 2)
        h_dl = np.zeros((cfg.dl_rx_antennas, 4))
        got = chain_level_trial(cfg, si, h_dl, 4)
        assert_same_choice(got, loop_search(si, h_dl, np.eye(4), cfg, 4), cfg, 4)
        assert got.canceller.routing == enumerate_routings(4, 2, 4)[0]
        assert got.f_bb.shape == (4, 1) and np.all(got.f_bb == 0.0)
        assert (got.dl_subspace_dim, got.feasible, got.dl_rate) == (3, True, 0.0)


def test_vanishing_downlink_falls_to_the_tie_rules():
    """channel.pathloss_db = 400: the water level drowns the transmit power,
    so every design carries zero power and every rate is exactly 0; the tie
    rules then pick the first routing."""
    cfg = config_from_values({"channel.pathloss_db": 400.0, "sweep.seed": 2})
    for trial in range(3):
        channels = draw_channels(cfg, trial_rng(cfg.seed, 4, trial))
        node = replace(cfg.node, tx_power_dbm=cfg.powers_dbm[4])
        res = solve_trial(channels, node, dft_codebook(node.tx_subarray),
                          dft_codebook(node.rx_subarray), cfg.num_taps)
        f_rf, w_rf = res.f_rf.matrix, res.w_rf.matrix
        si = w_rf.conj().T @ channels.h_si @ f_rf
        want = loop_search(si, channels.h_dl, f_rf, node, cfg.num_taps)
        assert_same_choice(res, want, node, cfg.num_taps)
        assert (res.dl_rate, res.feasible) == (0.0, True)
        assert np.all(res.f_bb == 0.0)
        assert res.canceller.routing == enumerate_routings(4, 2, 4)[0]


def test_pick_routing_tie_rules():
    def stack(active_columns, feasible, leak, rate):
        f_bb = np.zeros((len(active_columns), 3, 2), dtype=complex)
        for r, n in enumerate(active_columns):
            f_bb[r, :, :n] = 1.0
        return DlPrecoderStack(f_bb, np.full(len(active_columns), 2), np.full(len(active_columns), 2),
                               np.array(feasible), np.array(leak, dtype=float),
                               np.array(rate, dtype=float))

    leak = [[1.0, 1.0]] * 4
    # equal rates: fewer active streams first, then enumeration order; an
    # infeasible design never wins while a feasible one exists
    feasible = [True, True, True, False]
    assert _pick_routing(stack([2, 1, 1, 0], feasible, leak, [1.0, 1.0, 1.0, 9.0])) == 1
    # a higher rate beats fewer streams
    assert _pick_routing(stack([2, 1, 1, 0], feasible, leak, [1.5, 1.0, 1.0, 9.0])) == 0
    # all rates 0 and all streams 0: enumeration order
    assert _pick_routing(stack([0, 0, 0, 0], [True] * 4, leak, np.zeros(4))) == 0
    # none feasible: the smallest worst-chain leak, then enumeration order
    dl = stack([1, 1, 1, 1], [False] * 4, [[3.0, 1.0], [2.0, 2.0], [1.0, 3.0], [2.0, 1.0]],
               [4.0, 3.0, 2.0, 1.0])
    assert _pick_routing(dl) == 1


def test_pure_line_of_sight_loopback_matches_loop():
    """si.k_factor_db = inf: the SI channel is its line-of-sight part alone."""
    cfg = config_from_values({"si.k_factor_db": float("inf"), "sweep.seed": 3})
    assert cfg.si == replace(SiChannelParams(), k_factor_db=float("inf"))
    for trial in range(3):
        channels = draw_channels(cfg, trial_rng(cfg.seed, 3, trial))
        assert np.all(np.isfinite(channels.h_si))
        node = replace(cfg.node, tx_power_dbm=cfg.powers_dbm[3])
        res = solve_trial(channels, node, dft_codebook(node.tx_subarray),
                          dft_codebook(node.rx_subarray), cfg.num_taps)
        f_rf, w_rf = res.f_rf.matrix, res.w_rf.matrix
        si = w_rf.conj().T @ channels.h_si @ f_rf
        want = loop_search(si, channels.h_dl, f_rf, node, cfg.num_taps)
        assert_same_choice(res, want, node, cfg.num_taps)
        assert np.isfinite(res.fd_rate)


def test_infeasible_ranking_takes_the_smallest_worst_leak(rng):
    """Strong SI against a full-rank residual: no routing meets the budget,
    so the smallest worst-chain residual wins, reported infeasible, as the
    loop's fallback ranking picks it."""
    for _ in range(5):
        cfg, _, h_dl = chain_level_draw(rng, 4, 4)
        cfg = replace(cfg, tx_power_dbm=40.0, si_budget_dbm=-70.0)
        si = crandn(rng, 4, 4) * 1e-2
        got = chain_level_trial(cfg, si, h_dl, 2)
        assert not got.feasible
        assert_same_choice(got, loop_search(si, h_dl, np.eye(4), cfg, 2), cfg, 2)
