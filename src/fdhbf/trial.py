"""End-to-end design and evaluation of one channel draw.

Pipeline: joint analog beam-pair search, then an exhaustive search over every
tap routing (each routing nulls its routed chain-pair entries, then the
digital TX precoder is designed against the residual budget; all routings
are designed and rated as one stack), then the uplink design and rates, the
half-duplex baseline's in the same stack.  Draws, each at its own
transmit power if need be, are solved as one stacked pass: the beam search
as one stack per slab of draws, then every later stage as a stack over all
of them, with the same bits as each draw alone.
"""

from collections.abc import Iterable
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
    ul_columns,
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
from .numerics import Stacked, col_norm2, herm, stacked_cells
from .rates import ul_rate_at_chains

# Not called here (the routing search runs as one stack; the uplink is rated
# at chain level), but kept bound: perfbench/tracing.py wraps these names,
# and with no calls made their counters read 0.
from .beamforming import design_dl_precoder  # noqa: F401
from .canceller import assemble_canceller, enumerate_routings, set_tap_values  # noqa: F401
from .rates import dl_rate, ul_ipn_covariance, ul_rate  # noqa: F401


@dataclass(frozen=True, eq=False)
class TrialResult(Stacked):
    """One draw's reported numbers (rates in bits/s/Hz), then everything the
    node would program into hardware, then the search's by-products; or a
    record of draws: each field one entry per draw, whose draw i is record[i]."""

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


def _pick_routing(dl: DlPrecoderStack) -> np.ndarray:
    """Index of the winning routing, or of each cell's for a stack of cells.
    Among feasible designs: the highest downlink rate, then the fewest
    active streams, then enumeration order.  With none feasible: the
    smallest worst-chain leak, then enumeration order."""
    streams = (col_norm2(dl.f_bb) > 0.0).sum(axis=-1)
    by_rate = np.lexsort((streams, np.where(dl.feasible, -dl.rate, np.inf)), axis=-1)
    return np.where(dl.feasible.any(axis=-1), by_rate[..., 0], dl.leak.max(axis=-1).argmin(axis=-1))


def _by_width(widths: np.ndarray) -> list:
    """(cells, width) of each width among the cells' matrices, never padded."""
    # not np.unique, which imports numpy.ma (about 1 MiB of RSS) on first use
    return [(np.flatnonzero(widths == k), k) for k in sorted(set(widths.tolist()))]


def _uplink(h_eff_ul: np.ndarray, gram: np.ndarray, leak_gram: np.ndarray, cfg: NodeConfig,
            power_w, cells: np.ndarray) -> tuple[list, np.ndarray]:
    """Uplink (precoder, combiner) pairs, each at its own width, and rates
    of a stack of items, item i of cell cells[i] (its regularizations count
    there), each at chain level through its analog combiner w_rf: the
    channel h_eff_ul = w_rf^H h_ul and gram = w_rf^H w_rf, against one
    interference-plus-noise covariance R = leak_gram + noise gram:
    leak_gram = leak @ leak^H for the residual SI leak = h_si_eff @ f_bb (no
    columns without downlink streams), zero for a half-duplex item.  The
    MMSE combiner reaches the whitened capacity against R.  The peer
    transmits power_w watts, one for all or one per item."""
    f_ul = design_ul_precoder(h_eff_ul, power_w, cfg.rx_noise_w)
    ipn = leak_gram + cfg.rx_noise_w * gram  # hermitized where it is factored
    widths = ul_columns(f_ul)
    w_bb = np.zeros((*h_eff_ul.shape[:-1], f_ul.shape[-1]), dtype=np.complex128)
    rate = np.empty(len(h_eff_ul))
    for group, k in _by_width(widths):
        f = f_ul[group, :, :k]
        with stacked_cells(cells[group]):
            w_bb[group, :, :k] = design_ul_combiner(h_eff_ul[group], f, ipn[group])
            rate[group] = ul_rate_at_chains(h_eff_ul[group], f, ipn[group])
    return [(f[:, :k], w[:, :k]) for f, w, k in zip(f_ul, w_bb, widths)], rate


def _with_half_duplex(h_hd, h_ul, cfg: NodeConfig, codebook_rx: BeamCodebook, dl_w, ul_w,
                      w_rf, leak_gram) -> tuple[list, np.ndarray, np.ndarray]:
    """The _uplink pairs and rates of (w_rf, leak_gram), item i of cell i
    (none: empty stacks), and in the same stack each cell's half-duplex
    baseline: each direction alone (no SI, no budget, no canceller) with
    per-chain max-gain beams, in half the air time.  h_hd is each cell's
    downlink through its max-gain TX beams, h_dl @ f_rf; the uplink stack
    holds only chain-level products of h_ul and the combiners."""
    def at_chains(w, h):  # the channel and Gram through combiners w
        w_h = herm(w)
        return w_h @ h, w_h @ w

    _, _, rate_dl = _eigenmode_precoders(h_hd, dl_w, cfg.dl_rx_noise_w)
    fd, cells = len(w_rf), np.arange(len(w_rf) + len(h_ul)) % len(h_ul)
    h_eff_ul, gram = map(np.concatenate, zip(
        at_chains(w_rf, h_ul[:fd]),
        at_chains(best_rx_beams(h_ul, codebook_rx, cfg.rx_chains).matrix, h_ul)))
    ul, rate = _uplink(h_eff_ul, gram,
                       np.concatenate((leak_gram, np.zeros((len(h_ul), *leak_gram.shape[1:])))),
                       cfg, np.full(len(h_ul), ul_w)[cells], cells)
    return ul[:fd], rate[:fd], 0.5 * rate_dl + 0.5 * rate[fd:]


def hd_baseline_rate(h_dl: np.ndarray, h_ul: np.ndarray, cfg: NodeConfig,
                     codebook_tx: BeamCodebook, codebook_rx: BeamCodebook, powers_w=None):
    """Half-duplex reference rate, solve_trials' hd_rate bit for bit, of one
    draw's channels (a float) or of stacks (cells, ...).  powers_w as there."""
    if single := h_dl.ndim == 2:
        h_dl, h_ul = h_dl[None], h_ul[None]
    f_rf = best_tx_beams(h_dl, codebook_tx, cfg.tx_chains).matrix
    _, _, rate = _with_half_duplex(
        h_dl @ f_rf, h_ul, cfg, codebook_rx, *(powers_w or (cfg.tx_power_w, cfg.ul_tx_power_w)),
        np.empty((0, cfg.rx_antennas, cfg.rx_chains)), np.empty((0, cfg.rx_chains, cfg.rx_chains)))
    return float(rate[0]) if single else rate


def solve_trial(channels: ChannelRealization, *args, **kwargs) -> TrialResult:
    """Design the node for one channel draw and evaluate its rates:
    :func:`solve_trials` of that draw alone (a slab of one), with its other
    arguments."""
    return solve_trials([channels], *args, **kwargs)[0]


def solve_trials(
    channels: Iterable[ChannelRealization],
    cfg: NodeConfig,
    codebook_tx: BeamCodebook,
    codebook_rx: BeamCodebook,
    num_taps: int,
    impairments: TapImpairments | None = None,
    strategy: str = "shortlist",
    shortlist_size: int = 4,
    powers_w: tuple | None = None,
) -> TrialResult:
    """Design the node for each channel draw of an iterable of slabs and
    evaluate its rates, as if alone, bit for bit, in one record of draws, at
    the (DL, UL) transmit powers in watts powers_w, each one for all or one
    per draw (else cfg's): sweep.run_chunk's cells may span power points.

    A slab is a ChannelRealization of (draws, rows, cols) stacks, or of one
    draw's matrices as a slab of one, taken as it is drawn (sweep.run_chunk
    draws each slab as one stack, each cell's random calls from its own
    stream): its analog beams are chosen as one stacked search, and only its
    chain-level products are kept (the downlink through the chosen TX beams
    and through the half-duplex baseline's max-gain ones, and the SI matrix
    between the chosen beams) with the uplink channel, so a slab's
    antenna-level DL and SI channels are dropped before the next slab is
    drawn.  Then every routing of
    num_taps taps is tried against the chain-level SI matrix: its taps null
    (or, impaired, nearly null) its routed entries, and the digital precoder
    is designed against the residual under the SI budget and rated through
    the downlink, all routings of all draws as one stack.  Among a draw's
    feasible designs the highest downlink rate wins (ties: fewer active
    streams, then enumeration order); with none feasible, the smallest
    worst-chain residual wins (ties: enumeration order) and is reported
    infeasible, with its rates still evaluated.  Two exact bounds (1e-6
    slack; one behind a certificate that the water-fill spends its power)
    skip designs that cannot be feasible or beat a feasible one of the same
    draw: the full sweep's pick, bit for bit.  One uplink stack over the
    draws serves the uplink and the half-duplex baseline.  Inside a per-cell
    :func:`~fdhbf.numerics.count_regularizations` scope, a regularization
    counts for the draw at its index.
    """
    impairments = impairments or TapImpairments()

    def chain_level(slab):  # the antenna-level SI goes with its slab, the last one's too
        h_dl, h_ul, h_si = (h.reshape(-1, *h.shape[-2:]) for h in (slab.h_dl, slab.h_ul, slab.h_si))
        search = select_analog_beams(h_dl, h_si, codebook_tx, codebook_rx, cfg,
                                     strategy=strategy, shortlist_size=shortlist_size)
        f_rf, w_rf = search.f_rf.matrix, search.w_rf.matrix
        return (h_ul, h_dl @ f_rf, herm(w_rf) @ h_si @ f_rf, h_dl @ search.max_gain_tx.matrix,
                search.f_rf.beam_indices, search.w_rf.beam_indices, search.objective)

    # each slab drawn as it is taken; only the concatenated stacks stay
    (h_ul, h_eff_dl, si_at_chains, h_hd, tx_beams, rx_beams,
     objective) = map(np.concatenate, zip(*map(chain_level, channels)))
    f_rf = AnalogBeamformer.from_codebook(codebook_tx, tx_beams)
    w_rf = AnalogBeamformer.from_codebook(codebook_rx, rx_beams)
    table = routing_table(cfg.tx_chains, cfg.rx_chains, num_taps)
    weights = tap_weights(si_at_chains, impairments)
    h_si_stack = residual_stack(table, si_at_chains[:, None], weights[:, None])
    dl_w, ul_w = powers_w or (cfg.tx_power_w, cfg.ul_tx_power_w)
    dl = design_dl_precoder_stack(h_si_stack, h_eff_dl, dl_w, cfg.si_budget_w, cfg.dl_rx_noise_w)
    cells = np.arange(len(h_ul))
    win = _pick_routing(dl)
    h_si_eff, best = h_si_stack[cells, win], dl[cells, win]  # each draw's winning design
    leak_gram = np.empty((len(h_ul), cfg.rx_chains, cfg.rx_chains), dtype=np.complex128)
    for group, k in _by_width(best.columns):
        leak = h_si_eff[group] @ best.f_bb[group][..., :k]
        leak_gram[group] = leak @ herm(leak)
    ul, rate_ul, hd_rate = _with_half_duplex(h_hd, h_ul, cfg, codebook_rx, dl_w, ul_w,
                                             w_rf.matrix, leak_gram)
    return TrialResult(
        dl_rate=best.rate.tolist(),
        ul_rate=rate_ul.tolist(),
        fd_rate=(best.rate + rate_ul).tolist(),
        hd_rate=hd_rate.tolist(),
        feasible=best.feasible.tolist(),
        max_residual_si_w=best.leak.max(axis=-1).tolist(),
        dl_subspace_dim=best.subspace_dim.tolist(),
        f_rf=f_rf,
        w_rf=w_rf,
        f_bb=[f[:, :k] for f, k in zip(best.f_bb, best.columns)],
        w_bb=[w for _, w in ul],
        f_ul=[f for f, _ in ul],
        canceller=[CancellerConfig(table.routings[r], w[table.routings[r].entries()], impairments)
                   for w, r in zip(weights, win)],
        beam_search_objective=objective.tolist(),
        h_si_eff=h_si_eff,
    )
