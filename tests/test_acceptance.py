"""Acceptance gate: the package's headline guarantees at full scale.

Each test evaluates one criterion end to end, prints a single PASS/FAIL
verdict line, and records it so the terminal summary reprints all verdicts
together after the run.  Assertions come after the verdict is recorded, so a
failed criterion still reports itself.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np

from conftest import ACCEPTANCE_LINES, crandn
from fdhbf.beamforming import (
    NodeConfig,
    assemble_block_diagonal,
    capacity_precoder,
    design_dl_precoder,
    select_analog_beams,
)
from fdhbf.canceller import (
    TapImpairments,
    assemble_canceller,
    effective_si,
    enumerate_routings,
    quantization_error_bound,
    set_tap_values,
)
from fdhbf.channel import ChannelRealization
from fdhbf.codebook import dft_codebook
from fdhbf.config import config_from_values, with_overrides
from fdhbf.numerics import herm, hermitize, log2det_hpd, svd, waterfill
from fdhbf.rates import (
    residual_si_profile,
    signal_sample_stats,
    ul_ipn_covariance,
    ul_rate,
)
from fdhbf.sweep import draw_channels, emit_csv, run_sweep, trial_rng


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def _paper_config():
    """The reference configuration: all defaults."""
    return config_from_values({})


# =====================================================================
# 1. rate-vs-power sweep shape
# =====================================================================


def test_criterion_1_sweep_shape_and_ratio():
    """Mean FD rate at 40 dBm lands in [40, 64] bits/s/Hz, FD/HD there is
    within [1.4, 1.9], and mean FD strictly increases across the whole
    0..50 dBm grid — with ideal and with quantized taps — in under 10
    minutes."""
    t0 = time.perf_counter()
    base = with_overrides(_paper_config(), trials=100, workers=2)
    results = {}
    for label, imp in (("ideal", TapImpairments()),
                       ("impaired", TapImpairments(enabled=True))):
        rows, _ = run_sweep(replace(base, impairments=imp))
        at40 = rows[[r.power_dbm for r in rows].index(40.0)]
        fd = [r.fd_rate for r in rows]
        results[label] = {
            "fd40": at40.fd_rate,
            "ratio40": at40.fd_rate / at40.hd_rate,
            "monotone": all(b > a for a, b in zip(fd, fd[1:])),
        }
    elapsed = time.perf_counter() - t0

    ok = elapsed < 600.0 and all(
        40.0 <= r["fd40"] <= 64.0 and 1.4 <= r["ratio40"] <= 1.9 and r["monotone"]
        for r in results.values()
    )
    i, q = results["ideal"], results["impaired"]
    _verdict(1, ok,
             f"FD@40 {i['fd40']:.2f}/{q['fd40']:.2f} bits/s/Hz, "
             f"FD/HD@40 {i['ratio40']:.3f}/{q['ratio40']:.3f}, strictly "
             f"increasing {i['monotone']}/{q['monotone']} (ideal/impaired), "
             f"{elapsed:.0f}s for 2x600 trials")
    for label, r in results.items():
        assert 40.0 <= r["fd40"] <= 64.0, (label, r)
        assert 1.4 <= r["ratio40"] <= 1.9, (label, r)
        assert r["monotone"], (label, r)
    assert elapsed < 600.0


# =====================================================================
# 2. canceller routing count
# =====================================================================


def test_criterion_2_routing_count():
    """4 taps across the 4x2 chain grid admit exactly C(8,4)=70 routings,
    half the tap count of the full interconnect."""
    cfg = _paper_config()
    node = cfg.node
    interconnects = node.tx_chains * node.rx_chains
    routings = enumerate_routings(node.tx_chains, node.rx_chains, cfg.num_taps)
    ok = (len(routings) == 70 == math.comb(interconnects, cfg.num_taps)
          and cfg.num_taps * 2 == interconnects)
    _verdict(2, ok,
             f"{len(routings)} routings (expect C({interconnects},"
             f"{cfg.num_taps})={math.comb(interconnects, cfg.num_taps)}), "
             f"{cfg.num_taps} taps = 50% of {interconnects} interconnects")
    assert len(routings) == 70
    assert math.comb(interconnects, cfg.num_taps) == 70
    assert cfg.num_taps * 2 == interconnects


# =====================================================================
# 3. exact nulling and the quantization bound
# =====================================================================


def test_criterion_3_nulling_and_quantization_bound():
    """Over 100 channel draws and all 70 routings each: ideal taps zero the
    routed entries of the chain-level SI matrix exactly; quantized taps stay
    within the analytic error bound."""
    cfg = _paper_config()
    node = cfg.node
    cb_tx = dft_codebook(node.tx_subarray)
    cb_rx = dft_codebook(node.rx_subarray)
    routings = enumerate_routings(node.tx_chains, node.rx_chains, cfg.num_taps)
    impaired = TapImpairments(enabled=True)

    exact, bounded, checked = True, True, 0
    worst_margin = 0.0
    for draw in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(draw,)))
        channels = draw_channels(cfg, rng)
        picked = select_analog_beams(channels.h_dl, channels.h_si,
                                     cb_tx, cb_rx, node)
        si = herm(picked.w_rf.matrix) @ channels.h_si @ picked.f_rf.matrix
        for routing in routings:
            ideal = effective_si(picked.w_rf.matrix, channels.h_si,
                                 picked.f_rf.matrix,
                                 assemble_canceller(
                                     routing, set_tap_values(routing, si)))
            quant = effective_si(picked.w_rf.matrix, channels.h_si,
                                 picked.f_rf.matrix,
                                 assemble_canceller(
                                     routing,
                                     set_tap_values(routing, si, impaired)))
            for tx, rx in routing.taps:
                checked += 1
                if ideal[rx - 1, tx - 1] != 0.0:
                    exact = False
                bound = quantization_error_bound(
                    float(np.abs(si[rx - 1, tx - 1])), impaired)
                resid = float(np.abs(quant[rx - 1, tx - 1]))
                if resid > bound * (1.0 + 1e-9):
                    bounded = False
                if bound > 0.0:
                    worst_margin = max(worst_margin, resid / bound)

    ok = exact and bounded
    _verdict(3, ok,
             f"{checked} routed entries over 100 draws x 70 routings: ideal "
             f"exact-zero {exact}, quantized within bound {bounded} "
             f"(worst residual/bound {worst_margin:.4f})")
    assert exact
    assert bounded


# =====================================================================
# 4. precoder constraint suite
# =====================================================================


def test_criterion_4_constraint_suite():
    """10,000 randomized precoder designs in under a minute: transmit power
    never exceeds the budget beyond 1e-9 relative, and every feasible design
    keeps each RX chain's residual SI at or below 10^-7.7 W under the exact
    comparison the designer uses."""
    budget = 10.0 ** -7.7
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    power_ok = leak_ok = True
    feasible_count = 0
    for _ in range(10_000):
        n_tx = int(rng.integers(2, 5))
        h_si_eff = crandn(rng, int(rng.integers(1, 3)), n_tx) \
            * 10.0 ** rng.uniform(-6, -1)
        h_eff_dl = crandn(rng, int(rng.integers(1, 5)), n_tx)
        p = float(10.0 ** rng.uniform(-1, 1))
        res = design_dl_precoder(h_si_eff, h_eff_dl, p, budget, 1e-3)
        tx_power = float(np.real(np.trace(res.f_bb @ herm(res.f_bb))))
        if tx_power > p * (1.0 + 1e-9):
            power_ok = False
        if res.feasible:
            feasible_count += 1
            leak = np.sum(np.abs(h_si_eff @ res.f_bb) ** 2, axis=1)
            if not np.all(leak <= budget):
                leak_ok = False
    elapsed = time.perf_counter() - t0

    ok = power_ok and leak_ok and elapsed < 60.0
    _verdict(4, ok,
             f"10000 designs in {elapsed:.1f}s ({feasible_count} feasible): "
             f"power within 1e-9 relative {power_ok}, feasible designs meet "
             f"the 10^-7.7 W per-chain budget {leak_ok}")
    assert power_ok
    assert leak_ok
    assert elapsed < 60.0
    assert 0 < feasible_count < 10_000  # both outcomes actually exercised


# =====================================================================
# 5. oracle equivalences
# =====================================================================


def _grid_search_two_mode(gains, total, steps=1000):
    p1 = np.linspace(0.0, total, steps + 1)
    obj = np.log2(1.0 + gains[0] * p1) + np.log2(1.0 + gains[1] * (total - p1))
    return float(np.max(obj))


def _grid_search_three_mode(gains, total, steps=1000):
    p1 = np.linspace(0.0, total, steps + 1)[:, None]
    p2 = np.linspace(0.0, total, steps + 1)[None, :]
    p3 = total - p1 - p2
    obj = np.where(
        p3 >= 0.0,
        np.log2(1.0 + gains[0] * p1) + np.log2(1.0 + gains[1] * p2)
        + np.log2(1.0 + gains[2] * np.maximum(p3, 0.0)),
        -np.inf,
    )
    return float(np.max(obj))


def test_criterion_5a_waterfill_vs_grid():
    rng = np.random.default_rng(50)
    worst = 0.0
    for i in range(100):
        modes = 2 if i < 70 else 3
        gains = 10.0 ** rng.uniform(-1, 1, size=modes)
        total = float(10.0 ** rng.uniform(-0.5, 1))
        alloc = waterfill(gains, total)
        wf = float(np.sum(np.log2(1.0 + gains * alloc)))
        grid = (_grid_search_two_mode if modes == 2
                else _grid_search_three_mode)(gains, total)
        gap = wf - grid  # the grid can only undershoot the optimum
        worst = max(worst, abs(gap))
        if not (-1e-12 < gap < 1e-5):
            _verdict(5, False,
                     f"(a) waterfill vs grid gap {gap:.3e} at instance {i}")
            assert -1e-12 < gap < 1e-5
    ok = worst < 1e-5
    _verdict(5, ok, f"(a) waterfill vs 1e-3 grid on 100 instances, "
                    f"worst objective gap {worst:.2e} bits")
    assert ok


def _brute_force_beams(h_dl, h_si, cb_tx, cb_rx, n_tx, n_rx):
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


def test_criterion_5b_beam_search_vs_brute_force():
    rng = np.random.default_rng(51)
    mismatches = 0
    for _ in range(50):
        n_tx = int(rng.integers(1, 3))
        n_rx = int(rng.integers(1, 3))
        sub_tx = int(rng.integers(2, 5))
        sub_rx = int(rng.integers(2, 5))
        cb_tx = dft_codebook(sub_tx)   # cardinality = subarray length <= 4
        cb_rx = dft_codebook(sub_rx)
        m_dl = int(rng.integers(1, 4))
        h_dl = crandn(rng, m_dl, n_tx * sub_tx)
        h_si = crandn(rng, n_rx * sub_rx, n_tx * sub_tx)
        cfg = NodeConfig(tx_antennas=n_tx * sub_tx, tx_chains=n_tx,
                         rx_antennas=n_rx * sub_rx, rx_chains=n_rx,
                         dl_rx_antennas=m_dl)
        got = select_analog_beams(h_dl, h_si, cb_tx, cb_rx, cfg,
                                  strategy="exhaustive")
        want_tx, want_rx = _brute_force_beams(h_dl, h_si, cb_tx, cb_rx,
                                              n_tx, n_rx)
        if (got.f_rf.beam_indices, got.w_rf.beam_indices) != (want_tx, want_rx):
            mismatches += 1
    ok = mismatches == 0
    _verdict(5, ok, f"(b) exhaustive beam search vs brute force on 50 tiny "
                    f"instances, {mismatches} argmax mismatches")
    assert mismatches == 0


def test_criterion_5c_ipn_covariance_vs_samples():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(52, spawn_key=(i,)))
        cfg = NodeConfig(tx_antennas=8, rx_antennas=4, tx_chains=4,
                         rx_chains=2, dl_rx_antennas=3,
                         rx_noise_dbm=0.0, dl_rx_noise_dbm=0.0)
        channels = ChannelRealization(h_dl=crandn(rng, 3, 8),
                                      h_ul=crandn(rng, 4, 1),
                                      h_si=crandn(rng, 4, 8))
        cb = dft_codebook(2)
        picked = select_analog_beams(channels.h_dl, channels.h_si, cb, cb, cfg)
        f_rf, w_rf = picked.f_rf.matrix, picked.w_rf.matrix
        f_bb = crandn(rng, 4, 2) * 0.7
        w_bb = crandn(rng, 2, 1)
        canceller = np.zeros((2, 4))
        stats = signal_sample_stats(channels, cfg, f_rf, f_bb, w_rf, w_bb,
                                    np.array([[1.0]]), canceller,
                                    num_samples=100_000, rng=rng)
        h_si_eff = herm(w_rf) @ channels.h_si @ f_rf + canceller
        q = ul_ipn_covariance(w_bb, w_rf, h_si_eff, f_bb, cfg.rx_noise_w)
        err = float(np.linalg.norm(stats.ul_ipn_estimate - q, 2)
                    / np.linalg.norm(q, 2))
        worst = max(worst, err)
    ok = worst < 0.03
    _verdict(5, ok, f"(c) interference-plus-noise covariance vs 1e5-sample "
                    f"estimate on 20 instances, worst spectral error "
                    f"{worst:.4f} (< 0.03)")
    assert ok


def test_criterion_5d_logdet_vs_eigenmode_sum():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        b = crandn(rng, k, m)
        noise = float(10.0 ** rng.uniform(-2, 1))
        # downlink form: log2 det(I + B B^H / noise)
        lib_dl = log2det_hpd(np.eye(k) + (b @ herm(b)) / noise)
        lams = np.linalg.eigvalsh(hermitize(b @ herm(b)))
        eig_dl = float(np.sum(np.log2(1.0 + np.maximum(lams, 0.0) / noise)))
        worst = max(worst, abs(lib_dl - eig_dl))
        # uplink form: log2 det(Q + B B^H) - log2 det(Q)
        root = crandn(rng, k, k + 1)
        q = hermitize(root @ herm(root)) + noise * np.eye(k)
        lib_ul = ul_rate(np.eye(k), b, np.eye(m), q)
        ell = np.linalg.cholesky(q)
        white = np.linalg.solve(ell, b)
        lams = np.linalg.eigvalsh(hermitize(white @ herm(white)))
        eig_ul = float(np.sum(np.log2(1.0 + np.maximum(lams, 0.0))))
        worst = max(worst, abs(lib_ul - eig_ul))
    ok = worst < 1e-9
    _verdict(5, ok, f"(d) log-det vs eigenmode sum on 100 instances "
                    f"(both rate forms), worst gap {worst:.2e} bits")
    assert ok


# =====================================================================
# 6. precoder subspace-sweep conformance
# =====================================================================


def _reference_subspace_sweep(h_si_eff, h_eff_dl, power_w, budget_w, noise_w):
    """Independent re-derivation of the dimension sweep: try every subspace
    size from tx_chains-1 down to 2, then the rank-1 fallback."""
    n_tx = h_si_eff.shape[1]
    d = svd(h_si_eff).v
    for a in range(n_tx - 1, 1, -1):
        basis = d[:, n_tx - a:]
        g = capacity_precoder(h_eff_dl @ basis, power_w, noise_w)
        f = basis @ g
        if np.all(np.sum(np.abs(h_si_eff @ f) ** 2, axis=1) <= budget_w):
            return a, True
    f = d[:, -1:] * np.sqrt(power_w)
    return 1, bool(np.all(np.sum(np.abs(h_si_eff @ f) ** 2, axis=1) <= budget_w))


def test_criterion_6_subspace_sweep_conformance():
    rng = np.random.default_rng(6)
    mismatches = 0
    branch = {"loop": 0, "fallback": 0, "infeasible": 0}
    for _ in range(200):
        n_tx = int(rng.integers(2, 6))
        h_si_eff = crandn(rng, int(rng.integers(1, 5)), n_tx)
        h_eff_dl = crandn(rng, int(rng.integers(1, 5)), n_tx)
        p = float(10.0 ** rng.uniform(-1, 1))
        budget = float(10.0 ** rng.uniform(-4, 2))
        res = design_dl_precoder(h_si_eff, h_eff_dl, p, budget, 1.0)
        a, feas = _reference_subspace_sweep(h_si_eff, h_eff_dl, p, budget, 1.0)
        if (res.subspace_dim, res.feasible) != (a, feas):
            mismatches += 1
        if feas and a > 1:
            branch["loop"] += 1
        elif feas:
            branch["fallback"] += 1
        else:
            branch["infeasible"] += 1
    ok = mismatches == 0 and min(branch.values()) > 0
    _verdict(6, ok,
             f"dimension sweep matches direct reference on 200 instances, "
             f"{mismatches} mismatches (branches: {branch['loop']} loop, "
             f"{branch['fallback']} fallback, {branch['infeasible']} "
             f"infeasible)")
    assert mismatches == 0
    assert min(branch.values()) > 0, branch


# =====================================================================
# 7. worker-count determinism
# =====================================================================


def test_criterion_7_worker_count_determinism(tmp_path):
    cfg = with_overrides(_paper_config(), trials=6)
    blobs = []
    for workers in (1, 2, 3):
        rows, _ = run_sweep(with_overrides(cfg, workers=workers))
        path = tmp_path / f"w{workers}.csv"
        emit_csv(rows, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _verdict(7, ok, f"same seed across 1/2/3 workers: CSV byte-identical "
                    f"{ok} ({len(blobs[0])} bytes, 6 power points x 6 trials)")
    assert ok
