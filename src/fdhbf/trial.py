"""End-to-end design and evaluation of one channel draw.

Pipeline: joint analog beam-pair search, then an exhaustive search over every
tap routing (each routing nulls its routed chain-pair entries, then the
digital TX precoder is designed against the residual budget; all routings
are designed and rated as one stack), then the uplink precoder/combiner,
then all rates plus the half-duplex baseline.
"""

from dataclasses import dataclass

import numpy as np

from .beamforming import (
    AnalogBeamformer,
    DlPrecoderStack,
    NodeConfig,
    _eigenmode_precoders,
    best_rx_beams,
    best_tx_beams,
    design_dl_precoder_stack,
    design_ul_combiner,
    design_ul_precoder,
    select_analog_beams,
)
from .canceller import (
    CancellerConfig,
    TapImpairments,
    residual_stack,
    routing_table,
    tap_weights,
)
from .channel import ChannelRealization
from .codebook import BeamCodebook
from .numerics import herm, hermitize
from .rates import ul_rate

# Not called here (the routing search runs as one stack; the uplink is rated
# at chain level), but kept bound: perfbench/tracing.py wraps these names,
# and with no calls made their counters read 0.
from .beamforming import design_dl_precoder  # noqa: F401
from .canceller import assemble_canceller, enumerate_routings, set_tap_values  # noqa: F401
from .rates import dl_rate, ul_ipn_covariance  # noqa: F401


@dataclass(frozen=True, eq=False)
class TrialResult:
    """One draw's reported numbers (rates in bits/s/Hz), then everything the
    node would program into hardware, then the search's by-products."""

    dl_rate: float
    ul_rate: float
    fd_rate: float            # dl_rate + ul_rate
    hd_rate: float            # half-duplex baseline
    feasible: bool            # every RX chain's residual SI within budget
    max_residual_si_w: float  # worst RX chain's residual SI power
    dl_subspace_dim: int
    f_rf: AnalogBeamformer
    w_rf: AnalogBeamformer
    f_bb: np.ndarray
    w_bb: np.ndarray
    f_ul: np.ndarray
    canceller: CancellerConfig  # its routing is the winning one
    beam_search_objective: float
    h_si_eff: np.ndarray


def _pick_routing(dl: DlPrecoderStack) -> int:
    """Index of the winning routing.  Among feasible designs: the highest
    downlink rate, then the fewest active streams, then enumeration order.
    With none feasible: the smallest worst-chain leak, then enumeration
    order."""
    if not dl.feasible.any():
        return int(np.argmin(np.max(dl.leak, axis=-1)))
    streams = np.count_nonzero(np.linalg.norm(dl.f_bb, axis=-2) > 0.0, axis=-1)
    return int(np.lexsort((streams, np.where(dl.feasible, -dl.rate, np.inf)))[0])


def _uplink(h_ul: np.ndarray, w_rf: np.ndarray, leak: np.ndarray,
            cfg: NodeConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Uplink precoder, MMSE combiner and rate through the analog combiner
    w_rf, all against one chain-level interference-plus-noise covariance R
    of the residual SI leak = h_si_eff @ f_bb (no columns without downlink
    streams).  The MMSE combiner reaches the whitened capacity against R."""
    h_eff_ul = herm(w_rf) @ h_ul
    f_ul = design_ul_precoder(h_eff_ul, cfg.ul_tx_power_w, cfg.rx_noise_w)
    ipn = hermitize(leak @ herm(leak) + cfg.rx_noise_w * (herm(w_rf) @ w_rf))
    w_bb = design_ul_combiner(h_eff_ul, f_ul, ipn)
    return f_ul, w_bb, ul_rate(w_rf, h_ul, f_ul, ipn)


def hd_baseline_rate(channels: ChannelRealization, cfg: NodeConfig,
                     codebook_tx: BeamCodebook, codebook_rx: BeamCodebook) -> float:
    """Half-duplex reference: each direction is designed alone (no SI, no
    residual budget, no canceller) and gets half the air time.

    Downlink half: per-chain max-gain TX beams and the unrestricted
    water-filled eigenmode rate.  Uplink half: per-chain max-gain RX beams
    and the trial's own uplink stage with no downlink streams to leak.
    """
    f_rf = best_tx_beams(channels.h_dl, codebook_tx, cfg.tx_chains)
    _, _, rate_dl = _eigenmode_precoders(
        channels.h_dl @ f_rf.matrix, cfg.tx_power_w, cfg.dl_rx_noise_w
    )
    w_rf = best_rx_beams(channels.h_ul, codebook_rx, cfg.rx_chains)
    _, _, rate_ul = _uplink(channels.h_ul, w_rf.matrix, np.zeros((cfg.rx_chains, 0)), cfg)
    return 0.5 * float(rate_dl) + 0.5 * rate_ul


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

    The analog beams are chosen first.  Then every routing of num_taps taps
    is tried against the chain-level SI matrix: its taps null (or, impaired,
    nearly null) its routed entries, and the digital precoder is designed
    against the residual under the SI budget and rated through the downlink,
    all routings as one stack.  Among feasible designs the highest downlink
    rate wins (ties: fewer active streams, then enumeration order); with
    none feasible, the smallest worst-chain residual wins (ties: enumeration
    order) and is reported infeasible, with its rates still evaluated.
    Two exact bounds (1e-6 slack; one behind a certificate that the
    water-fill spends its power) skip designs that cannot be feasible or
    beat a feasible one: the full sweep's pick, bit for bit.
    """
    impairments = impairments or TapImpairments()
    search = select_analog_beams(
        channels.h_dl, channels.h_si, codebook_tx, codebook_rx, cfg,
        strategy=strategy, shortlist_size=shortlist_size,
    )
    f_rf, w_rf = search.f_rf, search.w_rf
    si_at_chains = herm(w_rf.matrix) @ channels.h_si @ f_rf.matrix
    table = routing_table(cfg.tx_chains, cfg.rx_chains, num_taps)
    weights = tap_weights(si_at_chains, impairments)
    h_si_stack = residual_stack(table, si_at_chains, weights)
    dl = design_dl_precoder_stack(
        h_si_stack, channels.h_dl @ f_rf.matrix, cfg.tx_power_w, cfg.si_budget_w,
        cfg.dl_rx_noise_w,
    )
    win = _pick_routing(dl)
    routing = table.routings[win]
    h_si_eff, f_bb = h_si_stack[win], dl.f_bb[win, :, :dl.columns[win]]
    f_ul, w_bb, rate_ul = _uplink(channels.h_ul, w_rf.matrix, h_si_eff @ f_bb, cfg)
    rate_dl = float(dl.rate[win])
    return TrialResult(
        dl_rate=rate_dl,
        ul_rate=rate_ul,
        fd_rate=rate_dl + rate_ul,
        hd_rate=hd_baseline_rate(channels, cfg, codebook_tx, codebook_rx),
        feasible=bool(dl.feasible[win]),
        max_residual_si_w=float(np.max(dl.leak[win])),
        dl_subspace_dim=int(dl.subspace_dim[win]),
        f_rf=f_rf,
        w_rf=w_rf,
        f_bb=f_bb,
        w_bb=w_bb,
        f_ul=f_ul,
        canceller=CancellerConfig(routing, weights[routing.entries()], impairments),
        beam_search_objective=search.objective,
        h_si_eff=h_si_eff,
    )
