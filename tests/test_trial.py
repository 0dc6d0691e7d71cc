"""End-to-end single-trial orchestration tests."""

import numpy as np
import pytest

from fdhbf.beamforming import NodeConfig, capacity_precoder, design_dl_precoder
from fdhbf.canceller import (
    TapImpairments,
    assemble_canceller,
    enumerate_routings,
    set_tap_values,
)
from fdhbf.channel import ChannelRealization
from fdhbf.codebook import dft_codebook
from fdhbf.numerics import herm, svd
from fdhbf.rates import dl_rate, residual_si_profile
from fdhbf.trial import solve_trial

from conftest import crandn


SMALL = NodeConfig(tx_antennas=8, rx_antennas=8, tx_chains=2, rx_chains=2,
                   dl_rx_antennas=2, tx_power_dbm=30, si_budget_dbm=-60,
                   rx_noise_dbm=-90, dl_rx_noise_dbm=-90)
CB = dft_codebook(4)


def draw(rng, scale_si=1e-2):
    return ChannelRealization(h_dl=crandn(rng, 2, 8) * 1e-3,
                              h_ul=crandn(rng, 8, 1) * 1e-3,
                              h_si=crandn(rng, 8, 8) * scale_si)


def test_result_is_internally_consistent(rng):
    ch = draw(rng)
    res = solve_trial(ch, SMALL, CB, CB, num_taps=2)

    # the reported effective SI channel is what the design implies
    rebuilt = herm(res.w_rf.matrix) @ ch.h_si @ res.f_rf.matrix + res.canceller.matrix()
    assert np.allclose(res.h_si_eff, rebuilt, atol=1e-14)

    # rate bookkeeping
    assert res.fd_rate == pytest.approx(res.dl_rate + res.ul_rate, abs=1e-12)
    assert res.dl_rate >= 0 and res.ul_rate >= 0
    assert res.hd_rate > 0

    # reported residual matches the profile of the returned design
    worst = float(np.max(residual_si_profile(res.h_si_eff, res.f_bb)))
    assert res.max_residual_si_w == worst
    if res.feasible:
        assert worst <= SMALL.si_budget_w * (1 + 1e-9)

    assert res.canceller.routing in enumerate_routings(2, 2, 2)
    assert res.dl_subspace_dim >= 1


def test_determinism(rng):
    ch = draw(rng)
    a = solve_trial(ch, SMALL, CB, CB, num_taps=2)
    b = solve_trial(ch, SMALL, CB, CB, num_taps=2)
    assert np.array_equal(a.f_bb, b.f_bb)
    assert np.array_equal(a.w_bb, b.w_bb)
    assert a.canceller.routing == b.canceller.routing
    reported = ("dl_rate", "ul_rate", "fd_rate", "hd_rate", "feasible",
                "max_residual_si_w", "dl_subspace_dim")
    assert [getattr(a, n) for n in reported] == [getattr(b, n) for n in reported]


def test_winning_routing_maximizes_dl_rate(rng):
    # exhaustive re-scan with the public pieces: no feasible routing may beat
    # the winner's downlink rate
    found_feasible = 0
    for _ in range(10):
        ch = draw(rng)
        res = solve_trial(ch, SMALL, CB, CB, num_taps=2)
        if not res.feasible:
            continue
        found_feasible += 1
        si_at_chains = herm(res.w_rf.matrix) @ ch.h_si @ res.f_rf.matrix
        h_eff_dl = ch.h_dl @ res.f_rf.matrix
        best = -np.inf
        for routing in enumerate_routings(2, 2, 2):
            values = set_tap_values(routing, si_at_chains, TapImpairments())
            h_si_eff = si_at_chains + assemble_canceller(routing, values)
            cand = design_dl_precoder(h_si_eff, h_eff_dl, SMALL.tx_power_w,
                                      SMALL.si_budget_w, SMALL.dl_rx_noise_w)
            if cand.feasible:
                best = max(best, dl_rate(ch.h_dl, res.f_rf.matrix @ cand.f_bb,
                                         SMALL.dl_rx_noise_w))
        assert res.dl_rate >= best - 1e-9
    assert found_feasible > 0


def test_full_tap_limit_restores_restricted_capacity(rng):
    # every chain pair routed with ideal taps: the effective SI channel is
    # exactly zero and the precoder spans the full allowed subspace
    ch = draw(rng)
    res = solve_trial(ch, SMALL, CB, CB, num_taps=4)
    assert np.array_equal(res.h_si_eff, np.zeros((2, 2)))
    assert res.feasible
    assert res.dl_subspace_dim == SMALL.tx_chains - 1

    # reconstruct the expected rate: the weakest singular directions of the
    # zero matrix are the trailing identity columns
    basis = svd(np.zeros((2, 2))).v[:, 1:]
    h_eff_dl = ch.h_dl @ res.f_rf.matrix
    g = capacity_precoder(h_eff_dl @ basis, SMALL.tx_power_w, SMALL.dl_rx_noise_w)
    want = dl_rate(ch.h_dl, res.f_rf.matrix @ (basis @ g),
                   SMALL.dl_rx_noise_w)
    assert res.dl_rate == pytest.approx(want, abs=1e-9)


def test_no_taps_with_open_budget_is_pure_hybrid_beamforming(rng):
    cfg = NodeConfig(tx_antennas=8, rx_antennas=8, tx_chains=2, rx_chains=2,
                     dl_rx_antennas=2, tx_power_dbm=30, si_budget_dbm=200,
                     rx_noise_dbm=-90, dl_rx_noise_dbm=-90)
    ch = draw(rng)
    res = solve_trial(ch, cfg, CB, CB, num_taps=0)
    assert res.feasible
    assert np.array_equal(res.canceller.matrix(), np.zeros((2, 2)))
    assert res.canceller.routing.taps == ()
    # self-interference is still present in the uplink statistics
    assert np.array_equal(
        res.h_si_eff, herm(res.w_rf.matrix) @ ch.h_si @ res.f_rf.matrix)


def test_feasibility_monotone_in_tap_count():
    """On a fixed draw with ideal taps, adding a tap never breaks
    feasibility: the (N+1)-tap enumeration contains every N-tap routing
    extended by one more nulled entry."""
    rng = np.random.default_rng(77)

    def crn(*s):
        return (rng.standard_normal(s) + 1j * rng.standard_normal(s)) / np.sqrt(2)

    fractions = np.zeros(5)
    for _ in range(40):
        ch = ChannelRealization(h_dl=crn(2, 8) * 1e-3, h_ul=crn(8, 1) * 1e-3,
                                h_si=crn(8, 8) * 1e-2)
        feas = [solve_trial(ch, SMALL, CB, CB, num_taps=n).feasible
                for n in range(5)]
        for a, b in zip(feas, feas[1:]):
            assert not (a and not b)
        fractions += np.array(feas, dtype=float)
    # the sweep has to show actual variation to be meaningful
    assert fractions[0] < 40 and fractions[-1] == 40


def test_impaired_taps_still_meet_budget_when_feasible(rng):
    imp = TapImpairments(enabled=True, attenuation_step_db=0.25, phase_bits=10)
    hit = 0
    for _ in range(10):
        ch = draw(rng)
        res = solve_trial(ch, SMALL, CB, CB, num_taps=2, impairments=imp)
        if res.feasible:
            hit += 1
            worst = float(np.max(residual_si_profile(res.h_si_eff,
                                                     res.f_bb)))
            assert worst <= SMALL.si_budget_w * (1 + 1e-9)
    assert hit > 0


def test_tap_count_validation(rng):
    with pytest.raises(ValueError):
        solve_trial(draw(rng), SMALL, CB, CB, num_taps=5)
