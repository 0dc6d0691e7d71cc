"""Hybrid analog/digital beamforming design for the full-duplex node.

Partially-connected analog stages: each RF chain drives its own subarray, so
the analog precoder/combiner are block-diagonal with one codebook beam per
block.  The digital TX precoder is designed against the residual SI budget by
projecting onto the weakest right-singular directions of the effective SI
channel; the digital RX combiner is an MMSE solve against the
interference-plus-noise covariance.
"""

from dataclasses import dataclass

import numpy as np

from .codebook import BeamCodebook
from .numerics import (
    DBM_LIMIT,
    cmat,
    dbm_to_watts,
    herm,
    rank_mask,
    solve_hpd,
    svd,
    waterfill,
)

# =====================================================================
# node configuration
# =====================================================================


@dataclass(frozen=True)
class NodeConfig:
    """Static description of the full-duplex node and its two peers.

    Antenna counts must be exact multiples of the chain counts (uniform
    subarrays).  Powers and noise floors are stored in dBm and converted to
    watts exactly once, at this boundary.
    """

    tx_antennas: int = 64
    rx_antennas: int = 32
    tx_chains: int = 4
    rx_chains: int = 2
    dl_rx_antennas: int = 4
    ul_tx_antennas: int = 1
    tx_power_dbm: float = 40.0
    ul_tx_power_dbm: float = 40.0
    rx_noise_dbm: float = -110.0
    dl_rx_noise_dbm: float = -110.0
    si_budget_dbm: float = -47.0

    @property
    def tx_subarray(self) -> int:
        return self.tx_antennas // self.tx_chains

    @property
    def rx_subarray(self) -> int:
        return self.rx_antennas // self.rx_chains

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def ul_tx_power_w(self) -> float:
        return dbm_to_watts(self.ul_tx_power_dbm)

    @property
    def rx_noise_w(self) -> float:
        return dbm_to_watts(self.rx_noise_dbm)

    @property
    def dl_rx_noise_w(self) -> float:
        return dbm_to_watts(self.dl_rx_noise_dbm)

    @property
    def si_budget_w(self) -> float:
        return dbm_to_watts(self.si_budget_dbm)

    def validate(self) -> list[str]:
        """Every violated structural constraint, as one message each."""
        problems = []
        for name in ("tx_antennas", "rx_antennas", "rx_chains",
                     "dl_rx_antennas", "ul_tx_antennas"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1")
        if self.tx_chains < 2:  # the DL precoder needs a direction to spare
            problems.append("tx_chains must be >= 2")
        if self.tx_chains >= 1 and self.tx_antennas % self.tx_chains != 0:
            problems.append(
                f"tx_antennas ({self.tx_antennas}) must be divisible by "
                f"tx_chains ({self.tx_chains})"
            )
        if self.rx_chains >= 1 and self.rx_antennas % self.rx_chains != 0:
            problems.append(
                f"rx_antennas ({self.rx_antennas}) must be divisible by "
                f"rx_chains ({self.rx_chains})"
            )
        for name in ("tx_power_dbm", "ul_tx_power_dbm", "rx_noise_dbm",
                     "dl_rx_noise_dbm", "si_budget_dbm"):
            if not -DBM_LIMIT <= getattr(self, name) <= DBM_LIMIT:
                problems.append(f"{name} must lie in [-{DBM_LIMIT:g}, {DBM_LIMIT:g}] dBm")
        return problems


# =====================================================================
# analog stage
# =====================================================================


def assemble_block_diagonal(beams) -> np.ndarray:
    """Stack per-chain beams into the block-diagonal analog matrix."""
    beams = [np.asarray(b, dtype=np.complex128).ravel() for b in beams]
    if not beams:
        raise ValueError("need at least one beam")
    chains, length = len(beams), beams[0].size
    if any(b.size != length for b in beams):
        raise ValueError("all per-chain beams must have the same length")
    out = np.zeros((chains, length, chains), dtype=np.complex128)
    out[np.arange(chains), :, np.arange(chains)] = beams  # beam i into block (i, :, i)
    return out.reshape(chains * length, chains)


@dataclass(frozen=True, eq=False)
class AnalogBeamformer:
    """Per-chain beam indices plus their assembled block-diagonal matrix."""

    beam_indices: tuple[int, ...]
    matrix: np.ndarray  # (subarray_len * chains, chains)

    @staticmethod
    def from_codebook(codebook: BeamCodebook, indices) -> "AnalogBeamformer":
        indices = tuple(int(i) for i in indices)
        cols = codebook.beams[:, list(indices)]
        return AnalogBeamformer(indices, assemble_block_diagonal(cols.T))


def _chain_gains(h: np.ndarray, codebook: BeamCodebook, transmit: bool) -> np.ndarray:
    """Per-chain beam gains, (chains, cardinality): ||h_i @ beam||^2 over
    chain i's column block h_i of h when transmitting, ||beam^H @ h_i||^2
    over its row block when receiving."""
    sub = codebook.beam_length
    if transmit:
        blocks = h.reshape(h.shape[0], -1, sub).transpose(1, 0, 2)  # (chains, rows, sub)
        return np.sum(np.abs(blocks @ codebook.beams) ** 2, axis=1)
    blocks = h.reshape(-1, sub, h.shape[1])  # (chains, sub, cols)
    return np.sum(np.abs(herm(codebook.beams) @ blocks) ** 2, axis=2)


def best_tx_beams(h: np.ndarray, codebook: BeamCodebook, chains: int) -> AnalogBeamformer:
    """Per chain, the codebook beam maximizing the transmit gain
    ||h_block @ beam||; ties take the lowest index."""
    h = cmat(h)
    if h.shape[1] != chains * codebook.beam_length:
        raise ValueError("channel columns must equal chains * beam_length")
    gains = _chain_gains(h, codebook, transmit=True)
    return AnalogBeamformer.from_codebook(codebook, np.argmax(gains, axis=1))


def best_rx_beams(h: np.ndarray, codebook: BeamCodebook, chains: int) -> AnalogBeamformer:
    """Per chain, the codebook beam maximizing the receive gain
    ||beam^H @ h_block||; ties take the lowest index."""
    h = cmat(h)
    if h.shape[0] != chains * codebook.beam_length:
        raise ValueError("channel rows must equal chains * beam_length")
    gains = _chain_gains(h, codebook, transmit=False)
    return AnalogBeamformer.from_codebook(codebook, np.argmax(gains, axis=1))


# ---------------------------------------------------------------------
# joint analog beam-pair search
# ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BeamSearchResult:
    f_rf: AnalogBeamformer
    w_rf: AnalogBeamformer
    objective: float  # ||h_dl f_rf||_F / ||w_rf^H h_si f_rf||_F, +inf at 0 denom
    scored: int       # TX assignments scored; the scan skips blocks that cannot win


# TX assignments scored per block of the candidate scan, and the most block
# prefixes bounded and sorted at once
_BLOCK_SIZE = 1 << 8
_PREFIX_CHUNK = 1 << 12
# relative slack of the block bounds, see select_analog_beams
_SLACK = 1.0 + 1e-12


def _upper(bound: np.ndarray) -> np.ndarray:
    """An upper bound widened by the slack.  Subnormal values, where a
    relative slack does not hold, and NaN (inf / inf) count as +inf."""
    bound = bound * _SLACK
    return np.where((bound == 0.0) | (bound >= np.finfo(float).tiny), bound, np.inf)


def select_analog_beams(
    h_dl: np.ndarray,
    h_si: np.ndarray,
    codebook_tx: BeamCodebook,
    codebook_rx: BeamCodebook,
    cfg: NodeConfig,
    strategy: str = "shortlist",
    shortlist_size: int = 4,
) -> BeamSearchResult:
    """Choose one TX beam per TX chain and one RX beam per RX chain to
    maximize the ratio of downlink gain to chain-level SI gain,
    ||h_dl @ f_rf||_F / ||w_rf^H @ h_si @ f_rf||_F.

    strategy "exhaustive" scans every assignment; "shortlist" first prunes
    each TX chain to its shortlist_size best beams by downlink gain and each
    RX chain to its shortlist_size lowest-SI beams, then scans the cross
    product.  A zero denominator counts as ratio +inf; ties prefer the larger
    numerator, then the lexicographically smallest assignment.

    Given a TX assignment the denominator splits as an independent sum per RX
    chain, so the RX side is minimized chain-by-chain; this is exact, not a
    heuristic.

    The scan is a branch and bound over blocks: a block fixes a prefix, the
    candidates of the leading TX chains, and holds every choice of the
    trailing chains.  Its numerator is at most num_ub, the prefix's downlink
    gains plus each trailing chain's largest one.  Its leak into RX chain n
    with beam u is at least the prefix's leak plus each trailing chain's
    least SI gain into (n, u), so its denominator is at least den_lb, the
    sum over RX chains of their least such bound, and its ratio at most
    ratio_ub = num_ub / den_lb (+inf at den_lb = 0).  Scores and bounds are
    sums of nonnegative gains, n_tx terms to a numerator or a leak and n_rx
    leaks to a denominator, so a computed ratio or bound lies within
    (2 n_tx + n_rx) * 2^-53 of its exact value, relatively, whatever order
    its sums run in.  Both bounds are widened by 1e-12, which covers that
    up to hundreds of chains, and a bound in the subnormal range, where relative error is unbounded,
    counts as +inf; 0 and +inf are exact (at num_ub = 0 every numerator of
    the block is 0).  Blocks are visited in decreasing ratio_ub, equal bounds
    in prefix order.  The scan stops at the first ratio_ub below the best
    ratio found and skips a block whose (ratio_ub, num_ub, prefix) cannot
    beat the best key under the tie rules, a smaller prefix winning a full
    tie.  A visited block is scored exactly as a full scan scores it, so the
    pick and the objective are the full scan's, bit for bit; `scored`
    counts the assignments in the visited blocks.  Channels whose gain sums
    could overflow float64 are rejected with a ValueError.
    """
    h_dl, h_si = cmat(h_dl), cmat(h_si)
    n_tx, n_rx = cfg.tx_chains, cfg.rx_chains
    sub_tx, sub_rx = codebook_tx.beam_length, codebook_rx.beam_length
    if h_dl.shape[1] != n_tx * sub_tx:
        raise ValueError("h_dl columns must equal tx_chains * tx beam length")
    if h_si.shape != (n_rx * sub_rx, n_tx * sub_tx):
        raise ValueError("h_si must be (rx_antennas, tx_antennas)")
    for name, h in (("h_dl", h_dl), ("h_si", h_si)):
        if not np.isfinite(h).all():
            raise ValueError(f"{name} must be finite")
    if strategy not in ("exhaustive", "shortlist"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "shortlist" and shortlist_size < 1:
        raise ValueError("shortlist_size must be >= 1")

    with np.errstate(over="ignore"):
        # per-chain downlink gain, dl_gain[i, b] = ||h_dl block_i @ beam_b||^2
        dl_gain = _chain_gains(h_dl, codebook_tx, transmit=True)

        # per chain-pair SI gain, si_gain[n][bu, i, bv] = |u^H block_{n,i} v|^2,
        # from the grid of SI blocks, blocks[n, i] = block_{n,i}
        blocks = h_si.reshape(n_rx, sub_rx, n_tx, sub_tx).transpose(0, 2, 1, 3)
        gains = herm(codebook_rx.beams) @ blocks @ codebook_tx.beams
        si_gain = np.abs(gains.transpose(0, 2, 1, 3)) ** 2
        # half this peak bounds every numerator and denominator of the scan
        peak = 2.0 * (dl_gain.max(axis=1).sum() + si_gain.max(axis=(1, 3)).sum())
    if not np.isfinite(peak):
        raise ValueError("the beam gains of h_dl and h_si overflow float64")

    if strategy == "exhaustive":
        tx_cand = np.tile(np.arange(codebook_tx.cardinality), (n_tx, 1))
        rx_cand = np.tile(np.arange(codebook_rx.cardinality), (n_rx, 1))
    else:
        tx_cand = np.sort(np.argsort(-dl_gain, axis=1, kind="stable")[:, :shortlist_size], axis=1)
        with np.errstate(over="ignore"):  # an overflowing leak ranks last
            leak = _chain_gains(h_si, codebook_rx, transmit=False)
        rx_cand = np.sort(np.argsort(leak, axis=1, kind="stable")[:, :shortlist_size], axis=1)
    width, b_rx = tx_cand.shape[1], rx_cand.shape[1]

    # the per-chain tables over the candidates: dl_terms[i, b] is TX chain
    # i's downlink gain with its b-th candidate, si_terms[i][n, u, b] the SI
    # gain from it into RX chain n with that chain's u-th candidate
    dl_terms = np.take_along_axis(dl_gain, tx_cand, axis=1)
    rx_rows = (np.arange(n_rx)[:, None, None], rx_cand[:, :, None])
    si_terms = [si_gain[rx_rows + (i, tx_cand[i])] for i in range(n_tx)]

    # Blocks of the lexicographic candidate grid: a block broadcasts the
    # trailing chains' tables over a grid in C order, so a prefix's index
    # and a block's flat index are lexicographic orders.  A block holds at
    # most _BLOCK_SIZE assignments (one chain's candidates if those are
    # more) over at most log2 _BLOCK_SIZE trailing chains, within numpy's
    # dimension limit.  The leak folds over the chains in order, as a
    # per-assignment loop would; the numerator is a row sum of its
    # (size, n_tx) terms, which numpy adds pairwise from 8 terms up.
    trail = 1
    while trail < n_tx and max(width, 2) ** (trail + 1) <= _BLOCK_SIZE:
        trail += 1
    lead = n_tx - trail
    grid = (width,) * trail
    size = width ** trail
    num_terms = np.empty(grid + (n_tx,))
    for j in range(trail):
        num_terms[..., lead + j] = dl_terms[lead + j].reshape((width,) + (1,) * (trail - 1 - j))
    num_terms = num_terms.reshape(size, n_tx)

    best = (-np.inf, -np.inf, 0)  # (ratio^2, +inf at zero denom; numerator; -prefix index)
    best_at = None
    scored = 0
    for start in range(0, width ** lead, _PREFIX_CHUNK):
        index = np.arange(start, min(start + _PREFIX_CHUNK, width ** lead))
        prefixes = index[:, None] // width ** np.arange(lead - 1, -1, -1) % width
        pre_num = dl_terms[np.arange(lead), prefixes]
        pre_leak = np.zeros((n_rx, b_rx, index.size))
        for i in range(lead):
            pre_leak = pre_leak + si_terms[i][:, :, prefixes[:, i]]
        if lead:  # each trailing chain at its largest DL term and least SI terms
            trail_num = np.tile(dl_terms[lead:].max(axis=1), (index.size, 1))
            num_ub = _upper(np.hstack([pre_num, trail_num]).sum(axis=1))
            leak_lb = sum((si_terms[i].min(axis=2, keepdims=True) for i in range(lead, n_tx)),
                          pre_leak)
            den_lb = leak_lb.min(axis=1).sum(axis=0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio_ub = _upper(np.where(den_lb > 0.0, num_ub / den_lb, np.inf))
        else:  # a single block, nothing to prune
            num_ub = ratio_ub = np.array([np.inf])
        for k in np.argsort(-ratio_ub, kind="stable"):
            if ratio_ub[k] < best[0]:
                break
            if (ratio_ub[k], num_ub[k], -index[k]) < best:
                continue
            leak = pre_leak[:, :, k]
            num_terms[:, :lead] = pre_num[k]
            for j in range(trail):
                leak = leak[..., None] + si_terms[lead + j].reshape((n_rx, b_rx) + (1,) * j + (width,))
            # each RX chain takes its lowest-leak beam
            least = leak.reshape(n_rx, b_rx, size).min(axis=1)
            den = np.zeros(size)
            for n in range(n_rx):
                den += least[n]
            num = num_terms.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio2 = np.where(den > 0.0, num / den, np.inf)
            # reduce with the documented tie rules, keeping the earliest on full tie
            top = np.max(ratio2)
            mask = ratio2 == top
            top_num = np.max(num[mask])
            scored += size
            if (top, top_num, -index[k]) > best:
                best = (float(top), float(top_num), -int(index[k]))
                at = int(np.argmax(mask & (num == top_num)))
                best_at = tuple(prefixes[k]) + np.unravel_index(at, grid)

    best_tx = tuple(int(tx_cand[i, b]) for i, b in enumerate(best_at))
    # the first minimum is the lexicographically smallest RX beam
    leak = np.zeros((n_rx, b_rx))
    for i, b in enumerate(best_at):
        leak = leak + si_terms[i][:, :, b]
    best_rx = tuple(int(rx_cand[n, u]) for n, u in enumerate(np.argmin(leak, axis=1)))

    f_rf = AnalogBeamformer.from_codebook(codebook_tx, best_tx)
    w_rf = AnalogBeamformer.from_codebook(codebook_rx, best_rx)
    objective = float(np.sqrt(best[0])) if np.isfinite(best[0]) else np.inf
    return BeamSearchResult(f_rf, w_rf, objective, scored)


# =====================================================================
# digital stage
# =====================================================================


def _eigenmode_precoders(
    h_eff: np.ndarray, power_w: float, noise_w: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Water-filled eigenmode precoders of an effective channel or a stack
    of them (..., rows, cols): precoders (..., cols, min(rows, cols)) whose
    columns past each channel's numerical rank are zero, the column count
    max(rank, 1) of each precoder, and each precoder's rate
    sum(log2(1 + g_i p_i)) over its modes."""
    dec = svd(h_eff)
    in_rank = rank_mask(dec.s, h_eff.shape[-2:])
    # modes past the numerical rank get zero gain, hence exactly zero power
    gains = np.where(in_rank, dec.s ** 2 / noise_w, 0.0)
    powers = waterfill(gains, power_w)
    k = dec.s.shape[-1]
    return (dec.v[..., :k] * np.sqrt(powers)[..., None, :],
            np.maximum(in_rank.sum(axis=-1), 1),
            np.sum(np.log2(1.0 + gains * powers), axis=-1))


def capacity_precoder(h_eff: np.ndarray, power_w: float, noise_w: float) -> np.ndarray:
    """Water-filled eigenmode precoder for an effective channel.

    Returns (cols(h_eff), d) with d = min(rank, rows, cols); zero-power modes
    keep their (zero) columns so the trace equals power_w exactly whenever the
    channel is nonzero.  A zero channel gets one zero column.
    """
    g, columns, _ = _eigenmode_precoders(cmat(h_eff), power_w, noise_w)
    return g[:, :columns]


def residual_si_profile(h_si_eff: np.ndarray, f_bb: np.ndarray) -> np.ndarray:
    """Residual SI power arriving at each RX chain, for one design or a
    stack of them: squared row norms of h_si_eff @ f_bb, (..., rx_chains)."""
    return np.sum(np.abs(cmat(h_si_eff, stack=True) @ cmat(f_bb, stack=True)) ** 2, axis=-1)


@dataclass(frozen=True, eq=False)
class DlPrecoderResult:
    f_bb: np.ndarray          # (tx_chains, streams)
    subspace_dim: int         # how many weakest-SI directions were used
    feasible: bool            # per-chain residual SI within budget


@dataclass(frozen=True, eq=False)
class DlPrecoderStack:
    """Downlink designs for a stack of R residual SI channels."""

    f_bb: np.ndarray          # (R, tx_chains, width), zero past each design's columns
    columns: np.ndarray       # (R,) columns of each design's f_bb
    subspace_dim: np.ndarray  # (R,) how many weakest-SI directions were used
    feasible: np.ndarray      # (R,) per-chain residual SI within budget
    leak: np.ndarray          # (R, rx_chains) residual SI power per RX chain
    rate: np.ndarray          # (R,) downlink rate, bits/s/Hz
    designs: int = 0          # eigenmode designs computed; the sweep skips what cannot win


# relative slack of the routing search's bounds, see design_dl_precoder_stack
_DESIGN_SLACK = 1e-6


def design_dl_precoder_stack(
    h_si_eff: np.ndarray,
    h_eff_dl: np.ndarray,
    power_w: float,
    si_budget_w: float,
    dl_noise_w: float,
) -> DlPrecoderStack:
    """Digital TX precoders under the per-chain residual SI budget, one per
    residual SI channel of the stack h_si_eff (R, rx_chains, tx_chains),
    all for the same downlink channel h_eff_dl, with their downlink rates.

    Sweeps the dimension a of the weakest-SI subspace from tx_chains-1 down
    to 2: restrict to the a weakest right-singular directions of the residual
    SI channel, water-fill the restricted downlink channel at full power, and
    accept the first size whose per-RX-chain SI leakage stays within budget.
    Falls back (a = 1) to a single full-power stream on the very weakest
    direction, whatever its downlink gain; if even that leaks too much the
    design is flagged infeasible.  Each dimension is designed for the
    channels still searching in one stacked pass, and each design is rated
    from its own decomposition.

    Two exact bounds, widened by a slack of 1e-6 (relative, and in bits),
    skip eigenmode designs; `designs` counts those made.  (1) With rx_chains
    >= tx_chains a precoder of power P leaks at least s_min^2 P / rx_chains,
    less slack * s_max^2 P, into its worst RX chain (s: the residual's
    singular values).  Where that exceeds the budget, a channel goes
    straight to its fallback, infeasible too, if a certificate shows that
    every water-fill spends P: the downlink gain g in the two weakest
    directions exceeds slack * ||h_eff_dl||_F^2 and g P / noise >= 2 slack.
    (2) The bases nest, so no lower dimension rates higher: a channel whose
    rate, widened by the slack, is below the best feasible rate so far stops
    with its current design, flagged infeasible at a >= 2.  A skipped design
    could not be feasible or beat a feasible one, so the pick and its bits
    are the full sweep's (README.md explains the slack and the certificate).
    """
    h_si_eff, h_eff_dl = cmat(h_si_eff, stack=True), cmat(h_eff_dl)
    if h_si_eff.ndim != 3:
        raise ValueError("h_si_eff must be a stack (R, rx_chains, tx_chains)")
    count, n_rx, n_tx = h_si_eff.shape
    if n_tx < 2:
        raise ValueError("need at least 2 TX chains")
    if h_eff_dl.shape[1] != n_tx:
        raise ValueError("h_eff_dl columns must equal tx_chains")
    dec = svd(h_si_eff)  # dec.v: (R, tx, tx), columns in descending leak order

    # bound (1): the channels whose designs at a >= 2 all leak over budget
    hopeless = np.zeros(count, dtype=bool)
    if n_rx >= n_tx > 2:
        floor = dec.s[:, -1] ** 2 * (1.0 - _DESIGN_SLACK) / n_rx - dec.s[:, 0] ** 2 * _DESIGN_SLACK
        hopeless = floor * power_w > si_budget_w
        if hopeless.any():
            weak = np.sum(np.abs(h_eff_dl @ dec.v[:, :, -2:]) ** 2, axis=(-2, -1))
            hopeless &= ((weak > _DESIGN_SLACK * np.sum(np.abs(h_eff_dl) ** 2))
                         & (weak * power_w >= 2.0 * _DESIGN_SLACK * dl_noise_w))

    # the widest designs, at a = n_tx-1, have min(dl_rx_antennas, n_tx-1) columns
    f_bb = np.zeros((count, n_tx, min(h_eff_dl.shape[0], n_tx - 1)), dtype=np.complex128)
    columns = np.empty(count, dtype=int)
    subspace_dim = np.empty(count, dtype=int)
    feasible = np.empty(count, dtype=bool)
    leak = np.empty((count, n_rx))
    rate = np.empty(count)
    searching, parked = np.flatnonzero(~hopeless), np.flatnonzero(hopeless)
    best, designs = -np.inf, 0  # the best feasible rate so far
    for a in range(n_tx - 1, 0, -1):
        if a == 1 and parked.size:
            searching = np.concatenate((searching, parked))
        if not searching.size:
            continue
        basis = dec.v[searching, :, n_tx - a:]
        if a > 1:
            g, cols, r = _eigenmode_precoders(h_eff_dl @ basis, power_w, dl_noise_w)
            f = basis @ g
            designs += searching.size
        else:
            f = basis * np.sqrt(power_w)
            cols = np.ones_like(searching)
            r = np.log2(1.0 + np.sum(np.abs(h_eff_dl @ f) ** 2, axis=(-2, -1)) / dl_noise_w)
        f_leak = residual_si_profile(h_si_eff[searching], f)
        ok = (f_leak <= si_budget_w).all(axis=-1)
        best = max(best, r[ok].max(initial=-np.inf))
        # the fallback takes every channel left; bound (2) stops those that cannot win
        done = ok | (a == 1) | (r * (1.0 + _DESIGN_SLACK) + _DESIGN_SLACK < best)
        routings = searching[done]
        f_bb[routings, :, :f.shape[-1]] = f[done]
        columns[routings] = cols[done]
        subspace_dim[routings] = a
        feasible[routings] = ok[done]
        leak[routings] = f_leak[done]
        rate[routings] = r[done]
        searching = searching[~done]
    return DlPrecoderStack(f_bb, columns, subspace_dim, feasible, leak, rate, designs)


def design_dl_precoder(
    h_si_eff: np.ndarray,
    h_eff_dl: np.ndarray,
    power_w: float,
    si_budget_w: float,
    dl_noise_w: float,
) -> DlPrecoderResult:
    """Digital TX precoder under the per-chain residual SI budget for one
    residual SI channel: :func:`design_dl_precoder_stack` on a stack of one."""
    stack = design_dl_precoder_stack(
        cmat(h_si_eff)[None], h_eff_dl, power_w, si_budget_w, dl_noise_w
    )
    return DlPrecoderResult(
        stack.f_bb[0, :, :stack.columns[0]],
        int(stack.subspace_dim[0]),
        bool(stack.feasible[0]),
    )


def design_ul_precoder(h_eff_ul: np.ndarray, power_w: float, noise_w: float = 1.0) -> np.ndarray:
    """Uplink transmitter precoder.

    Single-antenna transmitters send sqrt(power) (the exact optimum); larger
    arrays get the water-filled eigenmode precoder of the chain-level channel
    without its zero-power modes, whose zero combiner columns would make the
    combined covariance singular (one zero column if every mode is zero).
    """
    h_eff_ul = cmat(h_eff_ul)
    if h_eff_ul.shape[1] == 1:
        return np.array([[np.sqrt(power_w)]], dtype=np.complex128)
    f = capacity_precoder(h_eff_ul, power_w, noise_w)
    return f[:, :max(1, np.count_nonzero(f.any(axis=0)))]  # the powered modes lead


def design_ul_combiner(
    h_eff_ul: np.ndarray, f_ul: np.ndarray, ipn_at_chains: np.ndarray
) -> np.ndarray:
    """MMSE digital combiner against the chain-level interference-plus-noise
    covariance: solve ipn @ w = h_eff_ul @ f_ul, then normalize columns.

    The trial rates the uplink against this same ipn: through the combiner
    the rate is the whitened capacity log2 det(I + f^H h^H ipn^{-1} h f), and
    positive column scalings do not move it (the normalization is cosmetic).
    """
    h_eff_ul, f_ul = cmat(h_eff_ul), cmat(f_ul)
    w = solve_hpd(ipn_at_chains, h_eff_ul @ f_ul)
    norms = np.linalg.norm(w, axis=0)
    nz = norms > 0.0
    w[:, nz] = w[:, nz] / norms[nz]
    return w
