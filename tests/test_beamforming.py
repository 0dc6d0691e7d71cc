"""Beamformer design tests: node configuration, block-diagonal analog
assembly, the joint analog beam search, and the digital precoders/combiners.
"""

import itertools

import numpy as np
import pytest

from fdhbf.beamforming import (
    AnalogBeamformer,
    NodeConfig,
    assemble_block_diagonal,
    best_rx_beams,
    best_tx_beams,
    capacity_precoder,
    design_dl_precoder,
    design_dl_precoder_stack,
    design_ul_combiner,
    design_ul_precoder,
    select_analog_beams,
)
from fdhbf.canceller import TapImpairments, residual_stack, routing_table, tap_weights
from fdhbf.codebook import dft_codebook
from fdhbf.numerics import herm, hermitize, log2det_hpd, svd, waterfill
from fdhbf.rates import dl_rate

from conftest import crandn


# =====================================================================
# node configuration
# =====================================================================


class TestNodeConfig:
    def test_defaults_are_valid(self):
        cfg = NodeConfig()
        assert cfg.validate() == []
        assert cfg.tx_subarray == 16
        assert cfg.rx_subarray == 16
        assert cfg.si_budget_w == pytest.approx(10 ** (-7.7), rel=1e-12)
        assert cfg.tx_power_w == pytest.approx(10.0, rel=1e-12)

    def test_divisibility_errors_name_both_fields(self):
        cfg = NodeConfig(tx_antennas=10, tx_chains=4)
        problems = cfg.validate()
        assert any("tx_antennas" in p and "tx_chains" in p for p in problems)

    def test_all_violations_collected(self):
        cfg = NodeConfig(tx_antennas=10, tx_chains=4, rx_antennas=9,
                         rx_chains=2, dl_rx_antennas=0)
        assert len(cfg.validate()) >= 3


# =====================================================================
# block-diagonal analog assembly
# =====================================================================


def test_assemble_single_beam_is_column(rng):
    v = crandn(rng, 3)
    m = assemble_block_diagonal([v])
    assert m.shape == (3, 1)
    assert np.array_equal(m[:, 0], v)


def test_assemble_two_beams_block_structure(rng):
    v1, v2 = crandn(rng, 2), crandn(rng, 2)
    m = assemble_block_diagonal([v1, v2])
    assert m.shape == (4, 2)
    assert np.array_equal(m[:2, 0], v1)
    assert np.array_equal(m[2:, 1], v2)
    assert np.all(m[2:, 0] == 0) and np.all(m[:2, 1] == 0)


def test_assemble_rejects_empty_and_ragged(rng):
    with pytest.raises(ValueError):
        assemble_block_diagonal([])
    with pytest.raises(ValueError):
        assemble_block_diagonal([crandn(rng, 2), crandn(rng, 3)])


def test_from_codebook_constant_modulus():
    cb = dft_codebook(4)
    bf = AnalogBeamformer.from_codebook(cb, [1, 3, 0])
    m = bf.matrix
    assert m.shape == (12, 3)
    nz = np.abs(m[np.abs(m) > 0]) ** 2
    assert np.allclose(nz, 1.0 / 4.0, atol=1e-12)
    # unit column norms
    assert np.allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-12)
    # off-block entries are exactly zero
    assert np.all(m[4:, 0] == 0)
    assert np.all(m[:4, 1] == 0) and np.all(m[8:, 1] == 0)
    assert np.all(m[:8, 2] == 0)


# =====================================================================
# per-chain greedy beam pickers
# =====================================================================


def test_best_tx_beams_matches_direct_argmax(rng):
    cb = dft_codebook(4)
    h = crandn(rng, 3, 8)  # 2 chains x 4-element subarrays
    picked = best_tx_beams(h, cb, 2)
    for i in range(2):
        block = h[:, 4 * i:4 * (i + 1)]
        gains = [np.linalg.norm(block @ cb.beam(b)) for b in range(4)]
        assert picked.beam_indices[i] == int(np.argmax(gains))


def test_best_rx_beams_matches_direct_argmax(rng):
    cb = dft_codebook(4)
    h = crandn(rng, 8, 3)  # 2 chains x 4-element subarrays on the RX side
    picked = best_rx_beams(h, cb, 2)
    for i in range(2):
        block = h[4 * i:4 * (i + 1), :]
        gains = [np.linalg.norm(cb.beam(b).conj() @ block) for b in range(4)]
        assert picked.beam_indices[i] == int(np.argmax(gains))


# =====================================================================
# joint analog beam search
# =====================================================================


def brute_force_search(h_dl, h_si, cb_tx, cb_rx, n_tx, n_rx):
    """Plain-loop reference: scan every joint assignment, track the best
    (ratio, numerator, earliest) with +inf ratio at zero denominator."""
    best = None
    for tx in itertools.product(range(cb_tx.cardinality), repeat=n_tx):
        f = assemble_block_diagonal([cb_tx.beam(b) for b in tx])
        num = np.linalg.norm(h_dl @ f)
        for rx in itertools.product(range(cb_rx.cardinality), repeat=n_rx):
            w = assemble_block_diagonal([cb_rx.beam(b) for b in rx])
            den = np.linalg.norm(herm(w) @ h_si @ f)
            ratio = np.inf if den == 0.0 else num / den
            key = (-ratio, -num, tx + rx)
            if best is None or key < best[0]:
                best = (key, tx, rx)
    return best[1], best[2]


def test_search_matches_brute_force(rng):
    # subarray lengths >= 2: length-1 subarrays make every beam a scalar
    # phase rotation, so all assignments tie and float noise picks arbitrarily
    for trial in range(25):
        n_tx = int(rng.integers(1, 3))
        n_rx = int(rng.integers(1, 3))
        sub_tx = int(rng.integers(2, 4))
        sub_rx = int(rng.integers(2, 4))
        card_tx = int(rng.integers(2, 5))
        card_rx = int(rng.integers(2, 5))
        cb_tx = dft_codebook(sub_tx, max(1, sub_tx // card_tx)) \
            if card_tx <= sub_tx else dft_codebook(sub_tx)
        cb_rx = dft_codebook(sub_rx, max(1, sub_rx // card_rx)) \
            if card_rx <= sub_rx else dft_codebook(sub_rx)
        m_dl = int(rng.integers(1, 4))
        h_dl = crandn(rng, m_dl, n_tx * sub_tx)
        h_si = crandn(rng, n_rx * sub_rx, n_tx * sub_tx)
        cfg = NodeConfig(tx_antennas=n_tx * sub_tx, tx_chains=n_tx,
                         rx_antennas=n_rx * sub_rx, rx_chains=n_rx,
                         dl_rx_antennas=m_dl)
        got = select_analog_beams(h_dl, h_si, cb_tx, cb_rx, cfg,
                                  strategy="exhaustive")
        want_tx, want_rx = brute_force_search(h_dl, h_si, cb_tx, cb_rx,
                                              n_tx, n_rx)
        assert tuple(got.f_rf.beam_indices) == want_tx, f"trial {trial}"
        assert tuple(got.w_rf.beam_indices) == want_rx, f"trial {trial}"


def test_zero_si_maximizes_downlink_alone(rng):
    for cfg in (
        NodeConfig(tx_antennas=8, tx_chains=2, rx_antennas=8, rx_chains=2, dl_rx_antennas=2),
        # 4 chains of 16 beams: 16^4 assignments, scanned in several blocks
        NodeConfig(),
    ):
        cb_tx, cb_rx = dft_codebook(cfg.tx_subarray), dft_codebook(cfg.rx_subarray)
        h_dl = crandn(rng, cfg.dl_rx_antennas, cfg.tx_antennas)
        res = select_analog_beams(h_dl, np.zeros((cfg.rx_antennas, cfg.tx_antennas)),
                                  cb_tx, cb_rx, cfg, strategy="exhaustive")
        assert res.objective == np.inf
        # the numerator tie-break reduces to the per-chain downlink argmax
        assert res.f_rf.beam_indices == best_tx_beams(h_dl, cb_tx, cfg.tx_chains).beam_indices
        # all RX choices tie, so the lexicographic rule picks beam 0 everywhere
        assert res.w_rf.beam_indices == (0,) * cfg.rx_chains


def test_shortlist_with_full_width_equals_exhaustive(rng):
    cb = dft_codebook(3)
    cfg = NodeConfig(tx_antennas=6, tx_chains=2, rx_antennas=6, rx_chains=2,
                     dl_rx_antennas=2)
    for _ in range(10):
        h_dl = crandn(rng, 2, 6)
        h_si = crandn(rng, 6, 6)
        a = select_analog_beams(h_dl, h_si, cb, cb, cfg, strategy="exhaustive")
        b = select_analog_beams(h_dl, h_si, cb, cb, cfg, strategy="shortlist",
                                shortlist_size=3)
        assert tuple(a.f_rf.beam_indices) == tuple(b.f_rf.beam_indices)
        assert tuple(a.w_rf.beam_indices) == tuple(b.w_rf.beam_indices)
        assert a.objective == pytest.approx(b.objective, rel=1e-12)


@pytest.mark.parametrize("tx_chains", [63, 64, 70])
def test_one_beam_tx_chains_get_the_only_assignment(rng, tx_chains):
    """One-antenna TX chains have a one-beam codebook: however many there
    are, the scan scores the one TX assignment and returns it."""
    cfg = NodeConfig(tx_antennas=tx_chains, tx_chains=tx_chains, rx_antennas=4,
                     rx_chains=2, dl_rx_antennas=2)
    res = select_analog_beams(crandn(rng, 2, tx_chains), crandn(rng, 4, tx_chains),
                              dft_codebook(1), dft_codebook(2), cfg, strategy="exhaustive")
    assert res.f_rf.beam_indices == (0,) * tx_chains
    assert res.scored == 1 and np.isfinite(res.objective)


def test_search_dimension_validation(rng):
    cb = dft_codebook(4)
    cfg = NodeConfig(tx_antennas=8, tx_chains=2, rx_antennas=8, rx_chains=2,
                     dl_rx_antennas=2)
    with pytest.raises(ValueError):
        select_analog_beams(crandn(rng, 2, 6), crandn(rng, 8, 8), cb, cb, cfg)


# =====================================================================
# capacity precoder (SVD + water-filling)
# =====================================================================


def test_capacity_precoder_diagonal_channel():
    h = np.diag([2.0, 0.5])
    f = capacity_precoder(h, power_w=3.0, noise_w=1.0)
    # per-mode powers must match the water-filling allocation on g = s^2
    alloc = waterfill([4.0, 0.25], 3.0)
    got = np.linalg.norm(f, axis=0) ** 2
    assert np.allclose(np.sort(got)[::-1], np.sort(alloc)[::-1], atol=1e-9)


def test_capacity_precoder_power_budget(rng):
    for _ in range(20):
        h = crandn(rng, 3, 4)
        p = float(10.0 ** rng.uniform(-1, 1))
        f = capacity_precoder(h, p, 1.0)
        assert float(np.real(np.trace(f @ herm(f)))) <= p * (1 + 1e-9)


def test_capacity_precoder_zero_channel():
    f = capacity_precoder(np.zeros((2, 3)), 1.0, 1.0)
    assert f.shape == (3, 1)
    assert np.all(f == 0)


# =====================================================================
# downlink digital precoder (budget-constrained subspace sweep)
# =====================================================================


def reference_precoder(h_si_eff, h_eff_dl, power_w, budget_w, noise_w):
    """Direct re-derivation: test every subspace size from n_tx-1 down to 2
    over the weakest right-singular directions, then the rank-1 fallback."""
    n_tx = h_si_eff.shape[1]
    d = svd(h_si_eff).v
    for a in range(n_tx - 1, 1, -1):
        basis = d[:, n_tx - a:]
        g = capacity_precoder(h_eff_dl @ basis, power_w, noise_w)
        f = basis @ g
        if np.all(np.sum(np.abs(h_si_eff @ f) ** 2, axis=1) <= budget_w):
            return a, True, f
    f = d[:, -1:] * np.sqrt(power_w)
    ok = bool(np.all(np.sum(np.abs(h_si_eff @ f) ** 2, axis=1) <= budget_w))
    return 1, ok, f


class TestDlPrecoder:
    def test_conformance_against_reference(self, rng):
        branch = {"loop": 0, "fallback": 0, "infeasible": 0}
        for _ in range(200):
            n_tx = int(rng.integers(2, 6))
            n_rx = int(rng.integers(1, 5))
            m_dl = int(rng.integers(1, 5))
            h_si_eff = crandn(rng, n_rx, n_tx)
            h_eff_dl = crandn(rng, m_dl, n_tx)
            p = float(10.0 ** rng.uniform(-1, 1))
            budget = float(10.0 ** rng.uniform(-4, 2))
            res = design_dl_precoder(h_si_eff, h_eff_dl, p, budget, 1.0)
            a, ok, f = reference_precoder(h_si_eff, h_eff_dl, p, budget, 1.0)
            assert res.subspace_dim == a
            assert res.feasible == ok
            assert np.allclose(res.f_bb, f, atol=1e-12)
            if ok and a > 1:
                branch["loop"] += 1
            elif ok:
                branch["fallback"] += 1
            else:
                branch["infeasible"] += 1
        # the instance distribution must exercise every branch
        assert min(branch.values()) > 0, branch

    def test_power_constraint(self, rng):
        for _ in range(100):
            res = design_dl_precoder(crandn(rng, 2, 4), crandn(rng, 4, 4),
                                     2.5, 1e-2, 1.0)
            tr = float(np.real(np.trace(res.f_bb @ herm(res.f_bb))))
            assert tr <= 2.5 * (1 + 1e-9)

    def test_budget_met_when_feasible(self, rng):
        for _ in range(100):
            h_si_eff = crandn(rng, 2, 4)
            res = design_dl_precoder(h_si_eff, crandn(rng, 4, 4),
                                     1.0, 1e-3, 1.0)
            if res.feasible:
                leak = np.sum(np.abs(h_si_eff @ res.f_bb) ** 2, axis=1)
                assert np.all(leak <= 1e-3)

    def test_zero_residual_accepts_largest_subspace(self, rng):
        h_eff_dl = crandn(rng, 4, 4)
        res = design_dl_precoder(np.zeros((2, 4)), h_eff_dl, 1.0, 1e-12, 1.0)
        assert res.feasible and res.subspace_dim == 3

    def test_huge_budget_accepts_first_iteration(self, rng):
        res = design_dl_precoder(crandn(rng, 2, 4), crandn(rng, 4, 4),
                                 1.0, np.inf, 1.0)
        assert res.feasible and res.subspace_dim == 3

    def test_needs_two_chains(self, rng):
        with pytest.raises(ValueError):
            design_dl_precoder(crandn(rng, 1, 1), crandn(rng, 2, 1), 1.0, 1.0, 1.0)


def test_stack_rates_equal_the_log_det_rate_of_each_design(rng):
    """Each design's rate, taken from its own decomposition, is the log-det
    rate of that design alone, over ideal and impaired residuals of 4x2 and
    4x4 chains, zero downlink channels and designs that reach the fallback.

    The tolerance is 1e-9 bits or 1e-10 relative: near 45 bits/s/Hz both
    forms stray from a 40-digit log-det of the same design by ~1e-9 bits.
    Designs the sweep stopped because they cannot win (infeasible at a
    dimension above 1) are rated too, but left out of the outcomes."""
    impaired = TapImpairments(enabled=True, attenuation_step_db=0.25, phase_bits=10)
    outcomes = set()
    for case in range(120):
        rx_chains, taps = ((2, 4), (4, 2))[case % 2]
        impairments = impaired if case % 4 >= 2 else None
        cfg = NodeConfig(tx_antennas=8, rx_antennas=rx_chains, tx_chains=4,
                         rx_chains=rx_chains, tx_power_dbm=float(rng.uniform(0.0, 50.0)),
                         si_budget_dbm=float(rng.uniform(-70.0, -40.0)))
        si = crandn(rng, rx_chains, 4) * 10.0 ** rng.uniform(-6.0, -3.0)
        h_dl = crandn(rng, cfg.dl_rx_antennas, 8) * 10.0 ** rng.uniform(-7.0, -5.0)
        if case % 10 == 0:
            h_dl[:] = 0.0
        f_rf = crandn(rng, 8, 4)
        table = routing_table(4, rx_chains, taps)
        dl = design_dl_precoder_stack(
            residual_stack(table, si, tap_weights(si, impairments)), h_dl @ f_rf,
            cfg.tx_power_w, cfg.si_budget_w, cfg.dl_rx_noise_w,
        )
        for r in range(len(table.routings)):
            want = dl_rate(h_dl, f_rf @ dl.f_bb[r, :, :dl.columns[r]], cfg.dl_rx_noise_w)
            assert dl.rate[r] == pytest.approx(want, rel=1e-10, abs=1e-9)
        kept = dl.feasible | (dl.subspace_dim == 1)
        outcomes |= set(zip(dl.subspace_dim[kept].tolist(), dl.feasible[kept].tolist()))
    assert outcomes == {(3, True), (2, True), (1, True), (1, False)}


# =====================================================================
# uplink precoder and combiner
# =====================================================================


def test_ul_precoder_single_antenna():
    assert np.array_equal(design_ul_precoder(np.ones((2, 1)), 1.0), [[1.0]])
    # 40 dBm -> 10 W -> amplitude sqrt(10)
    f = design_ul_precoder(np.ones((2, 1)), 10.0)
    assert f[0, 0] == pytest.approx(np.sqrt(10.0), rel=1e-12)


def test_ul_precoder_multi_antenna_budget(rng):
    h = crandn(rng, 3, 2)
    f = design_ul_precoder(h, 2.0)
    assert float(np.real(np.trace(f @ herm(f)))) <= 2.0 * (1 + 1e-9)


def test_ul_precoder_equal_modes_split_evenly():
    # unitary channel: both eigenmodes identical, so power splits in half
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    f = design_ul_precoder(h, 2.0)
    powers = np.linalg.norm(f, axis=0) ** 2
    assert np.allclose(powers, [1.0, 1.0], atol=1e-9)


def test_ul_combiner_matched_filter_under_white_noise(rng):
    h = crandn(rng, 3, 1)
    f = np.array([[1.0]])
    w = design_ul_combiner(h, f, np.eye(3))
    mf = (h @ f).ravel()
    cos = np.abs(np.vdot(w.ravel(), mf)) / (np.linalg.norm(w) * np.linalg.norm(mf))
    assert cos == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(w[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_ul_combiner_achieves_whitened_capacity(rng):
    for _ in range(50):
        m_rf, n_ul, d_ul = 3, 2, 2
        h = crandn(rng, m_rf, n_ul)
        f_ul = crandn(rng, n_ul, d_ul)
        q_inner = crandn(rng, m_rf, m_rf)
        q_inner = hermitize(q_inner @ herm(q_inner)) + 0.1 * np.eye(m_rf)
        w = design_ul_combiner(h, f_ul, q_inner)
        b = herm(w) @ h @ f_ul
        q = hermitize(herm(w) @ q_inner @ w)
        got = log2det_hpd(q + b @ herm(b)) - log2det_hpd(q)
        a = h @ f_ul
        want = log2det_hpd(np.eye(d_ul) + herm(a) @ np.linalg.solve(q_inner, a))
        assert got == pytest.approx(want, abs=1e-9)
