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
    TapRouting,
    residual_stack,
    routing_table,
    tap_weights,
)
from .channel import ChannelRealization
from .codebook import BeamCodebook
from .numerics import herm, hermitize
from .rates import RateRecord, ul_ipn_covariance, ul_rate

# Not called here since the routing search runs as one stack, but kept bound
# in this module: perfbench/tracing.py wraps these names to count per-routing
# calls, and with none made its routing counters read 0.
from .beamforming import design_dl_precoder  # noqa: F401
from .canceller import assemble_canceller, enumerate_routings, set_tap_values  # noqa: F401
from .rates import dl_rate  # noqa: F401


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


@dataclass(frozen=True, eq=False)
class RoutingChoice:
    """The winning tap routing of one channel draw and its downlink design."""

    routing: TapRouting
    values: np.ndarray        # tap weights, in the routing's tap order
    h_si_eff: np.ndarray      # (rx_chains, tx_chains) residual SI after cancellation
    f_bb: np.ndarray          # (tx_chains, streams) digital precoder
    subspace_dim: int
    feasible: bool
    dl_rate: float
    max_residual_si_w: float  # worst RX chain's residual SI power


def _pick_routing(dl: DlPrecoderStack) -> int:
    """Index of the winning routing.  Among feasible designs: the highest
    downlink rate, then the fewest active streams, then enumeration order.
    With none feasible: the smallest worst-chain leak, then enumeration
    order."""
    if not dl.feasible.any():
        return int(np.argmin(np.max(dl.leak, axis=-1)))
    streams = np.count_nonzero(np.linalg.norm(dl.f_bb, axis=-2) > 0.0, axis=-1)
    return int(np.lexsort((streams, np.where(dl.feasible, -dl.rate, np.inf)))[0])


def search_routings(
    si_at_chains: np.ndarray,
    h_dl: np.ndarray,
    f_rf: np.ndarray,
    cfg: NodeConfig,
    num_taps: int,
    impairments: TapImpairments | None = None,
) -> RoutingChoice:
    """Try every routing of num_taps taps against the chain-level SI matrix
    and keep the best downlink design.

    Each routing's taps null (or, impaired, nearly null) its routed entries;
    the digital precoder is then designed against the residual under the SI
    budget and rated through the downlink channel h_dl and analog precoder
    f_rf.  All routings are designed and rated as one stack.  Among feasible
    designs the highest downlink rate wins (ties: fewer active streams, then
    enumeration order); with none feasible, the smallest worst-chain residual
    wins (ties: enumeration order) and is reported infeasible.
    """
    table = routing_table(cfg.tx_chains, cfg.rx_chains, num_taps)
    weights = tap_weights(si_at_chains, impairments)
    h_si_stack = residual_stack(table, si_at_chains, weights)
    dl = design_dl_precoder_stack(
        h_si_stack, h_dl @ f_rf, cfg.tx_power_w, cfg.si_budget_w, cfg.dl_rx_noise_w
    )
    win = _pick_routing(dl)
    routing = table.routings[win]
    return RoutingChoice(
        routing=routing,
        values=weights[routing.entries()],
        h_si_eff=h_si_stack[win],
        f_bb=dl.f_bb[win, :, :dl.columns[win]],
        subspace_dim=int(dl.subspace_dim[win]),
        feasible=bool(dl.feasible[win]),
        dl_rate=float(dl.rate[win]),
        max_residual_si_w=float(np.max(dl.leak[win])),
    )


def _uplink(h_ul: np.ndarray, w_rf: np.ndarray, h_si_eff: np.ndarray, f_bb: np.ndarray,
            cfg: NodeConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Uplink precoder, MMSE combiner and rate through the analog combiner
    w_rf, against the residual SI h_si_eff that the downlink precoder f_bb
    leaks into the RX chains (zero matrices for a node without SI)."""
    h_eff_ul = herm(w_rf) @ h_ul
    f_ul = design_ul_precoder(h_eff_ul, cfg.ul_tx_power_w, cfg.rx_noise_w)
    leak = h_si_eff @ f_bb
    ipn_at_chains = hermitize(leak @ herm(leak) + cfg.rx_noise_w * (herm(w_rf) @ w_rf))
    w_bb = design_ul_combiner(h_eff_ul, f_ul, ipn_at_chains)
    ipn = ul_ipn_covariance(w_bb, w_rf, h_si_eff, f_bb, cfg.rx_noise_w)
    return f_ul, w_bb, ul_rate(w_rf @ w_bb, h_ul, f_ul, ipn)


def hd_baseline_rate(channels: ChannelRealization, cfg: NodeConfig,
                     codebook_tx: BeamCodebook, codebook_rx: BeamCodebook) -> float:
    """Half-duplex reference: each direction is designed alone (no SI, no
    residual budget, no canceller) and gets half the air time.

    Downlink half: per-chain max-gain TX beams and the unrestricted
    water-filled eigenmode rate.  Uplink half: per-chain max-gain RX beams
    and the trial's own uplink stage with zero residual SI.
    """
    f_rf = best_tx_beams(channels.h_dl, codebook_tx, cfg.tx_chains)
    _, _, rate_dl = _eigenmode_precoders(
        channels.h_dl @ f_rf.matrix, cfg.tx_power_w, cfg.dl_rx_noise_w
    )
    w_rf = best_rx_beams(channels.h_ul, codebook_rx, cfg.rx_chains)
    _, _, rate_ul = _uplink(
        channels.h_ul, w_rf.matrix, np.zeros((cfg.rx_chains, cfg.tx_chains)),
        np.zeros((cfg.tx_chains, 1)), cfg,
    )
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

    The analog beams are chosen first, then every tap routing is tried by
    :func:`search_routings`.  An infeasible winner is reported flagged, with
    its rates still evaluated.
    """
    impairments = impairments or TapImpairments.ideal()
    search = select_analog_beams(
        channels.h_dl, channels.h_si, codebook_tx, codebook_rx, cfg,
        strategy=strategy, shortlist_size=shortlist_size,
    )
    f_rf, w_rf = search.f_rf, search.w_rf
    si_at_chains = herm(w_rf.matrix) @ channels.h_si @ f_rf.matrix
    choice = search_routings(
        si_at_chains, channels.h_dl, f_rf.matrix, cfg, num_taps, impairments
    )
    h_si_eff, f_bb = choice.h_si_eff, choice.f_bb
    f_ul, w_bb, rate_ul = _uplink(channels.h_ul, w_rf.matrix, h_si_eff, f_bb, cfg)

    record = RateRecord(
        dl_rate_bpshz=choice.dl_rate,
        ul_rate_bpshz=rate_ul,
        fd_sum_bpshz=choice.dl_rate + rate_ul,
        hd_rate_bpshz=hd_baseline_rate(channels, cfg, codebook_tx, codebook_rx),
        max_residual_si_w=choice.max_residual_si_w,
        feasible=choice.feasible,
    )
    design = HybridDesign(
        f_rf=f_rf,
        w_rf=w_rf,
        f_bb=f_bb,
        w_bb=w_bb,
        f_ul=f_ul,
        canceller=CancellerConfig(choice.routing, choice.values, impairments),
        feasible=choice.feasible,
    )
    return TrialResult(
        rates=record,
        design=design,
        chosen_routing=choice.routing,
        dl_subspace_dim=choice.subspace_dim,
        beam_search_objective=search.objective,
        h_si_eff=h_si_eff,
    )
