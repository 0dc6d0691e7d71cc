"""End-to-end design and evaluation of one channel draw.

Pipeline: joint analog beam-pair search, then an exhaustive sweep over every
tap routing (each routing nulls its routed chain-pair entries, then the
digital TX precoder is designed against the residual budget), then the uplink
precoder/combiner, then all rates plus the half-duplex baseline.
"""

from dataclasses import dataclass

import numpy as np

from .beamforming import (
    AnalogBeamformer,
    NodeConfig,
    design_dl_precoder,
    design_ul_combiner,
    design_ul_precoder,
    select_analog_beams,
)
from .canceller import (
    CancellerConfig,
    TapImpairments,
    TapRouting,
    assemble_canceller,
    enumerate_routings,
    set_tap_values,
)
from .channel import ChannelRealization
from .codebook import BeamCodebook
from .numerics import herm, hermitize
from .rates import (
    RateRecord,
    dl_rate,
    hd_baseline_rate,
    residual_si_profile,
    ul_ipn_covariance,
    ul_rate,
)


@dataclass(frozen=True, eq=False)
class HybridDesign:
    """Everything the node would program into hardware for one trial."""

    f_rf: AnalogBeamformer
    w_rf: AnalogBeamformer
    f_bb: np.ndarray
    w_bb: np.ndarray
    f_ul: np.ndarray
    canceller: CancellerConfig
    feasible: bool


@dataclass(frozen=True, eq=False)
class TrialResult:
    rates: RateRecord
    design: HybridDesign
    chosen_routing: TapRouting
    dl_subspace_dim: int
    beam_search_objective: float
    h_si_eff: np.ndarray


def _active_streams(f_bb: np.ndarray) -> int:
    return int(np.count_nonzero(np.linalg.norm(f_bb, axis=0) > 0.0))


def solve_trial(
    channels: ChannelRealization,
    cfg: NodeConfig,
    codebook_tx: BeamCodebook,
    codebook_rx: BeamCodebook,
    num_taps: int,
    impairments: TapImpairments | None = None,
    strategy: str = "shortlist",
    shortlist_size: int = 4,
) -> TrialResult:
    """Design the node for one channel draw and evaluate its rates.

    Every tap routing is tried; among routings whose precoder meets the
    residual SI budget the one with the highest downlink rate wins (ties:
    fewer active streams, then enumeration order).  If none is feasible the
    routing with the smallest worst-chain residual is reported, flagged
    infeasible, with its rates still evaluated.
    """
    impairments = impairments or TapImpairments.ideal()
    search = select_analog_beams(
        channels.h_dl, channels.h_si, codebook_tx, codebook_rx, cfg,
        strategy=strategy, shortlist_size=shortlist_size,
    )
    f_rf, w_rf = search.f_rf, search.w_rf
    si_at_chains = herm(w_rf.matrix) @ channels.h_si @ f_rf.matrix
    h_eff_dl = channels.h_dl @ f_rf.matrix

    best_feasible = None   # (-rate, streams, order) -> payload
    best_fallback = None   # (worst_leak, order) -> payload
    for order, routing in enumerate(
        enumerate_routings(cfg.tx_chains, cfg.rx_chains, num_taps)
    ):
        values = set_tap_values(routing, si_at_chains, impairments)
        h_si_eff = si_at_chains + assemble_canceller(routing, values)
        design = design_dl_precoder(
            h_si_eff, h_eff_dl, cfg.tx_power_w, cfg.si_budget_w, cfg.dl_rx_noise_w
        )
        if design.feasible:
            rate = dl_rate(channels.h_dl, f_rf.matrix @ design.f_bb, cfg.dl_rx_noise_w)
            key = (-rate, _active_streams(design.f_bb), order)
            if best_feasible is None or key < best_feasible[0]:
                best_feasible = (key, routing, values, h_si_eff, design, rate)
        else:
            worst = float(np.max(residual_si_profile(h_si_eff, design.f_bb)))
            key = (worst, order)
            if best_fallback is None or key < best_fallback[0]:
                best_fallback = (key, routing, values, h_si_eff, design, None)

    feasible = best_feasible is not None
    _, routing, values, h_si_eff, dl_design, cached_rate = (
        best_feasible if feasible else best_fallback
    )
    rate_dl = (
        cached_rate
        if cached_rate is not None
        else dl_rate(channels.h_dl, f_rf.matrix @ dl_design.f_bb, cfg.dl_rx_noise_w)
    )

    # uplink side against the chosen design's residual SI
    h_eff_ul = herm(w_rf.matrix) @ channels.h_ul
    f_ul = design_ul_precoder(h_eff_ul, cfg.ul_tx_power_w, cfg.rx_noise_w)
    leak = h_si_eff @ dl_design.f_bb
    ipn_at_chains = hermitize(
        leak @ herm(leak) + cfg.rx_noise_w * (herm(w_rf.matrix) @ w_rf.matrix)
    )
    w_bb = design_ul_combiner(h_eff_ul, f_ul, ipn_at_chains)
    ipn = ul_ipn_covariance(w_bb, w_rf.matrix, h_si_eff, dl_design.f_bb, cfg.rx_noise_w)
    rate_ul = ul_rate(w_rf.matrix @ w_bb, channels.h_ul, f_ul, ipn)

    residual = residual_si_profile(h_si_eff, dl_design.f_bb)
    record = RateRecord(
        dl_rate_bpshz=rate_dl,
        ul_rate_bpshz=rate_ul,
        fd_sum_bpshz=rate_dl + rate_ul,
        hd_rate_bpshz=hd_baseline_rate(channels, cfg, codebook_tx, codebook_rx),
        max_residual_si_w=float(np.max(residual)),
        feasible=feasible,
    )
    design = HybridDesign(
        f_rf=f_rf,
        w_rf=w_rf,
        f_bb=dl_design.f_bb,
        w_bb=w_bb,
        f_ul=f_ul,
        canceller=CancellerConfig(routing, values, impairments),
        feasible=feasible,
    )
    return TrialResult(
        rates=record,
        design=design,
        chosen_routing=routing,
        dl_subspace_dim=dl_design.subspace_dim,
        beam_search_objective=search.objective,
        h_si_eff=h_si_eff,
    )
