"""solve_trial's stacked tap-routing search against the per-routing loop it
replaced.

`loop_search` below is that loop, rebuilt from the public per-routing pieces
(enumerate_routings, set_tap_values, assemble_canceller, design_dl_precoder,
dl_rate).  It is the reference: the trial must pick the same routing with
the same design on every draw, ideal and impaired taps alike, and must keep
the loop's tie rules.  The chain-level draws run the whole trial on a node
with one antenna per chain, whose analog stages are identity matrices.

`full_sweep` is the reference for the sweep's bounds: the stacked sweep's
own kernels with every dimension designed for every routing, which the
bounded sweep must match bit for bit.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from fdhbf.beamforming import (
    DlPrecoderStack,
    NodeConfig,
    _eigenmode_precoders,
    design_dl_precoder,
    design_dl_precoder_stack,
)
from fdhbf.canceller import (
    TapImpairments,
    assemble_canceller,
    enumerate_routings,
    residual_stack,
    routing_table,
    set_tap_values,
    tap_weights,
)
from fdhbf.channel import ChannelRealization, SiChannelParams
from fdhbf.codebook import dft_codebook
from fdhbf.config import config_from_values
from fdhbf.numerics import herm, svd
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
        two = np.full(len(active_columns), 2)  # columns and subspace dimension, one design each
        return DlPrecoderStack(f_bb, two, two, np.array(feasible), np.array(leak, dtype=float),
                               np.array(rate, dtype=float), two - 1)

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


def from_hex(rows):
    """A complex matrix from rows of (real, imaginary) float.hex() pairs."""
    return np.array([[complex(float.fromhex(re), float.fromhex(im)) for re, im in row]
                     for row in rows])


# the default config's cell at seed 7, 10 dBm (power index 1), trial 5, as
# its routing search received it: the chain-level SI matrix herm(w_rf) @
# h_si @ f_rf and downlink channel h_dl @ f_rf of the beams its draw chose.
# Exact literals, so that a change to the draw's last bits cannot move the
# tie; the live draw no longer holds it since the steering phase table.
TIE_SI = from_hex([
    [("-0x1.12a70f234ff20p-12", "0x1.f2e6f7324ae28p-10"),
     ("-0x1.92f6d7d0bc1f0p-11", "-0x1.d6f29991ad668p-13"),
     ("0x1.3477438eecc39p-13", "-0x1.9b27a740a448ep-12"),
     ("0x1.3871b2e245062p-12", "0x1.4860113e44da2p-14")],
    [("-0x1.f8c12aa3a5f98p-13", "-0x1.07a5f313d5bf1p-10"),
     ("0x1.2f677569076dcp-11", "-0x1.2b8b845a882b5p-11"),
     ("-0x1.134a70d8cf628p-13", "0x1.2be7e63b000adp-11"),
     ("0x1.b1a45d58ed1dcp-14", "-0x1.bcabb0174ffcfp-14")],
])
TIE_DL = from_hex([
    [("0x1.7c2b58baaefa3p-19", "0x1.07dc82600fba9p-23"),
     ("-0x1.179829234dd18p-18", "0x1.9f23d081899e2p-18"),
     ("0x1.6d55c2f6bb9f1p-18", "-0x1.6c73a153871b6p-19"),
     ("0x1.b0541e1c81f17p-19", "-0x1.b078b4d881f47p-20")],
    [("-0x1.efbbb184482bdp-19", "-0x1.5eb0ea18fcedbp-19"),
     ("-0x1.a0de1dfbc5a20p-20", "-0x1.f41f145f3affap-20"),
     ("-0x1.98469e01fa034p-19", "-0x1.c36edf58cc847p-18"),
     ("-0x1.a58acefb0abb3p-19", "-0x1.4271dd6667880p-27")],
    [("0x1.7dc50c1a1e916p-19", "0x1.79c7bcf0df186p-19"),
     ("-0x1.0f0f1a837ca2dp-18", "0x1.710ebc6c27adap-19"),
     ("-0x1.f6b1133ad54fep-19", "0x1.d761c61504aeap-19"),
     ("0x1.9eec18f15e0ecp-19", "0x1.622f1fc75c6acp-20")],
    [("-0x1.25e37dbb19062p-19", "-0x1.0d26261a36535p-18"),
     ("0x1.f5105b0c032f3p-21", "-0x1.05b4e79563cb8p-18"),
     ("0x1.d6a89586726c9p-20", "0x1.abd15dd55f334p-19"),
     ("-0x1.fff6ac742eeb6p-20", "-0x1.3476a664e2b31p-19")],
])


def one_ulp_tie(monkeypatch):
    """The recorded inputs of that cell, run at chain level on the default
    node's chains at 10 dBm both ways with its 4 taps: the result, the
    routing table and the routing search's stack."""
    cfg = NodeConfig(tx_antennas=4, rx_antennas=2, tx_chains=4, rx_chains=2,
                     tx_power_dbm=10.0, ul_tx_power_dbm=10.0)
    stacks = []
    monkeypatch.setattr("fdhbf.trial._pick_routing",
                        lambda dl: stacks.append(dl) or _pick_routing(dl))
    res = chain_level_trial(cfg, TIE_SI, TIE_DL, 4)
    return res, routing_table(4, 2, 4), stacks[0]


def test_the_default_config_holds_a_one_ulp_routing_tie(monkeypatch):
    """Routings 29 and 40 of that cell are both feasible with three streams,
    and their downlink rates, the best two, are 1 ulp apart."""
    _, _, dl = one_ulp_tie(monkeypatch)
    rate = dl.rate[0]
    streams = (np.linalg.norm(dl.f_bb[0], axis=-2) > 0.0).sum(axis=-1)
    assert np.flatnonzero(dl.feasible[0] & (rate >= rate[29])).tolist() == [29, 40]
    assert rate[40] - rate[29] == np.spacing(rate[29])
    assert streams[29] == streams[40] == 3


@pytest.mark.xfail(strict=True, reason=(
    "routings are ranked on exact float rates, so a 1-ulp gap decides between "
    "designs equal up to rounding: routing 40 wins; ROADMAP item 2 step A"))
def test_feasible_rates_one_ulp_apart_follow_the_tie_rules(monkeypatch):
    """Within a relative tie tolerance, routings 29 and 40 tie: with equal
    streams, enumeration order picks 29."""
    res, table, _ = one_ulp_tie(monkeypatch)
    assert res.canceller.routing == table.routings[29]


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


# =====================================================================
# the bounded dimension sweep against a bound-free full sweep
# =====================================================================


def full_sweep(h_si_stack, h_eff_dl, cfg):
    """Every subspace dimension designed for every routing with the sweep's
    own kernels, no bound and no early stop; each routing then keeps its
    first feasible dimension, else the fallback at a = 1, and counts the
    eigenmode designs a sweep without bounds makes for it."""
    count, n_rx, n_tx = h_si_stack.shape
    power, noise = cfg.tx_power_w, cfg.dl_rx_noise_w
    directions = svd(h_si_stack).v
    rows = np.arange(count)
    f_bb = np.zeros((count, n_tx, min(h_eff_dl.shape[0], n_tx - 1)), dtype=complex)
    columns, dims = np.empty(count, dtype=int), np.empty(count, dtype=int)
    feasible, leak, rate = np.empty(count, dtype=bool), np.empty((count, n_rx)), np.empty(count)
    searching = np.ones(count, dtype=bool)
    for a in range(n_tx - 1, 0, -1):
        basis = directions[rows, :, n_tx - a:]
        if a > 1:
            g, cols, r = _eigenmode_precoders(h_eff_dl @ basis, power, noise)
            f = basis @ g
        else:
            f = basis * np.sqrt(power)
            cols = np.ones(count, dtype=int)
            r = np.log2(1.0 + np.sum(np.abs(h_eff_dl @ f) ** 2, axis=(-2, -1)) / noise)
        f_leak = residual_si_profile(h_si_stack, f)
        ok = (f_leak <= cfg.si_budget_w).all(axis=-1)
        take = searching & (ok | (a == 1))
        f_bb[take, :, :f.shape[-1]] = f[take]
        columns[take], dims[take], feasible[take] = cols[take], a, ok[take]
        leak[take], rate[take] = f_leak[take], r[take]
        searching &= ~take
    return DlPrecoderStack(f_bb, columns, dims, feasible, leak, rate, n_tx - np.maximum(dims, 2))


def assert_bounds_exact(si, h_dl, f_rf, cfg, num_taps, impairments, res):
    """The trial `res` and the bounded stack against the full sweep of the
    same residuals: the same winner with the same bits, every design the
    sweep finished equal to the full sweep's, and every design it stopped
    unable to win.  Returns (the stack, the full sweep)."""
    table = routing_table(cfg.tx_chains, cfg.rx_chains, num_taps)
    h_si_stack = residual_stack(table, si, tap_weights(si, impairments))
    h_eff_dl = h_dl @ f_rf
    want = full_sweep(h_si_stack, h_eff_dl, cfg)
    dl = design_dl_precoder_stack(h_si_stack, h_eff_dl, cfg.tx_power_w, cfg.si_budget_w,
                                  cfg.dl_rx_noise_w)
    win = _pick_routing(want)
    assert res.canceller.routing == table.routings[win]
    assert np.array_equal(res.f_bb, want.f_bb[win, :, :want.columns[win]])
    assert (res.dl_subspace_dim, res.feasible) == (want.subspace_dim[win], want.feasible[win])
    assert res.max_residual_si_w == np.max(want.leak[win])
    assert res.dl_rate == want.rate[win]
    stopped = ~dl.feasible & (dl.subspace_dim > 1)
    for name in ("f_bb", "columns", "subspace_dim", "feasible", "leak", "rate"):
        assert np.array_equal(getattr(dl, name)[~stopped], getattr(want, name)[~stopped])
    if stopped.any():  # only beside a feasible design that rates higher
        best = want.rate[want.feasible].max()
        assert np.all(~want.feasible[stopped] | (want.rate[stopped] < best))
    assert np.all(dl.designs <= want.designs)
    return dl, want


def test_bounds_match_the_full_sweep_at_chain_level():
    """Both bounds fire on these draws and never change a pick or a bit.
    Bound (1) is what saves designs where no routing is feasible, bound (2)
    what stops routings infeasible above dimension 1; on 4x2 chains only
    bound (2) can fire, as the residual has a null space.  Half the draws
    have a one-antenna downlink, whose rate is the gain of one direction,
    so that a routing feasible only at a lower dimension can still win."""
    rng = np.random.default_rng(12)
    saved = {"4x4 none feasible": 0, "4x4 stopped": 0, "4x2": 0}
    lower_wins = 0
    for draw in range(400):
        rx_chains, taps = ((4, 2), (2, 4))[draw % 2]
        cfg, si, h_dl = chain_level_draw(rng, 4, rx_chains)
        impairments = IMPAIRED if draw % 4 >= 2 else None
        if draw % 8 >= 4:
            cfg, h_dl = replace(cfg, dl_rx_antennas=1), h_dl[:1]
        res = chain_level_trial(cfg, si, h_dl, taps, impairments)
        dl, want = assert_bounds_exact(si, h_dl, np.eye(4), cfg, taps, impairments, res)
        skipped = (want.designs - dl.designs).sum()
        if rx_chains == 2:
            saved["4x2"] += skipped
        elif not want.feasible.any():
            saved["4x4 none feasible"] += skipped
        elif (~dl.feasible & (dl.subspace_dim > 1)).any():
            saved["4x4 stopped"] += skipped
        if res.feasible:
            lower_wins += res.dl_subspace_dim < want.subspace_dim[dl.feasible].max()
    assert min(saved.values()) > 0, saved
    assert lower_wins > 0


def strong_si_node(rng):
    """A 4x4 chain-level node whose residuals all leak over budget at
    every dimension, so that bound (1) holds on each of them."""
    cfg = NodeConfig(tx_antennas=4, rx_antennas=4, tx_chains=4, rx_chains=4,
                     tx_power_dbm=40.0, si_budget_dbm=-70.0)
    return cfg, crandn(rng, 4, 4) * 1e-2


def test_zero_downlink_channel_defeats_the_infeasibility_bound(rng):
    """A zero downlink channel gets zero power at dimension 3, which leaks
    nothing: the certificate fails, so no routing skips to its fallback."""
    for _ in range(5):
        cfg, si = strong_si_node(rng)
        h_dl = np.zeros((cfg.dl_rx_antennas, 4))
        res = chain_level_trial(cfg, si, h_dl, 2)
        dl, want = assert_bounds_exact(si, h_dl, np.eye(4), cfg, 2, None, res)
        assert (res.dl_subspace_dim, res.feasible, res.dl_rate) == (3, True, 0.0)
        assert np.array_equal(dl.designs, want.designs)


def test_downlink_orthogonal_to_the_weakest_directions(rng):
    """No canceller, and a downlink channel orthogonal to the residual's two
    weakest directions: its gain there is rounding noise, the water-fill at
    a = 2 spends next to no power, and the certificate keeps the full sweep."""
    for _ in range(10):
        cfg, si = strong_si_node(rng)
        weakest = svd(si).v[:, -2:]
        h_dl = crandn(rng, cfg.dl_rx_antennas, 4) * 1e-6
        h_dl = h_dl - (h_dl @ weakest) @ herm(weakest)
        res = chain_level_trial(cfg, si, h_dl, 0)
        dl, want = assert_bounds_exact(si, h_dl, np.eye(4), cfg, 0, None, res)
        assert dl.designs.tolist() == want.designs.tolist() == [2]


def test_bounds_match_the_full_sweep_at_pathloss_400():
    """channel.pathloss_db = 400 on 4x4 chains with 2 taps: the SI swamps
    the budget, yet the water-fill gives the vanishing downlink zero power,
    which leaks nothing; bound (1) without its certificate would move these
    cells to infeasible fallbacks."""
    cfg = config_from_values({"node.rx_chains": 4, "canceller.taps": 2,
                              "channel.pathloss_db": 400.0, "sweep.seed": 7})
    for power_index, trial in ((5, 1), (5, 2), (4, 0), (3, 0)):
        channels = draw_channels(cfg, trial_rng(cfg.seed, power_index, trial))
        node = replace(cfg.node, tx_power_dbm=cfg.powers_dbm[power_index])
        res = solve_trial(channels, node, dft_codebook(node.tx_subarray),
                          dft_codebook(node.rx_subarray), cfg.num_taps)
        f_rf, w_rf = res.f_rf.matrix, res.w_rf.matrix
        si = herm(w_rf) @ channels.h_si @ f_rf
        assert_bounds_exact(si, channels.h_dl, f_rf, node, cfg.num_taps, None, res)
