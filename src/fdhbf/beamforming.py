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
    cstack,
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


# TX assignments scored per block of the candidate scan
_BLOCK_SIZE = 1 << 14


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
    """
    h_dl, h_si = cmat(h_dl), cmat(h_si)
    n_tx, n_rx = cfg.tx_chains, cfg.rx_chains
    sub_tx, sub_rx = codebook_tx.beam_length, codebook_rx.beam_length
    if h_dl.shape[1] != n_tx * sub_tx:
        raise ValueError("h_dl columns must equal tx_chains * tx beam length")
    if h_si.shape != (n_rx * sub_rx, n_tx * sub_tx):
        raise ValueError("h_si must be (rx_antennas, tx_antennas)")
    if strategy not in ("exhaustive", "shortlist"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "shortlist" and shortlist_size < 1:
        raise ValueError("shortlist_size must be >= 1")

    # per-chain downlink gain, dl_gain[i, b] = ||h_dl block_i @ beam_b||^2
    dl_gain = _chain_gains(h_dl, codebook_tx, transmit=True)

    # per chain-pair SI gain, si_gain[n][bu, i, bv] = |u^H block_{n,i} v|^2,
    # from the grid of SI blocks, blocks[n, i] = block_{n,i}
    blocks = h_si.reshape(n_rx, sub_rx, n_tx, sub_tx).transpose(0, 2, 1, 3)
    gains = herm(codebook_rx.beams) @ blocks @ codebook_tx.beams
    si_gain = np.abs(gains.transpose(0, 2, 1, 3)) ** 2

    if strategy == "exhaustive":
        tx_cand = np.tile(np.arange(codebook_tx.cardinality), (n_tx, 1))
        rx_cand = np.tile(np.arange(codebook_rx.cardinality), (n_rx, 1))
    else:
        tx_cand = np.sort(np.argsort(-dl_gain, axis=1, kind="stable")[:, :shortlist_size], axis=1)
        leak = _chain_gains(h_si, codebook_rx, transmit=False)
        rx_cand = np.sort(np.argsort(leak, axis=1, kind="stable")[:, :shortlist_size], axis=1)
    width, b_rx = tx_cand.shape[1], rx_cand.shape[1]

    # the per-chain tables over the candidates: dl_terms[i, b] is TX chain
    # i's downlink gain with its b-th candidate, si_terms[i][n, u, b] the SI
    # gain from it into RX chain n with that chain's u-th candidate
    dl_terms = np.take_along_axis(dl_gain, tx_cand, axis=1)
    rx_rows = (np.arange(n_rx)[:, None, None], rx_cand[:, :, None])
    si_terms = [si_gain[rx_rows + (i, tx_cand[i])] for i in range(n_tx)]

    # Blocks of the lexicographic candidate grid: the Python loop runs over
    # the leading chains' candidates and each block broadcasts the trailing
    # chains' tables over a grid in C order, so a block's flat index is the
    # lexicographic order of its assignments.  A block holds at most
    # _BLOCK_SIZE assignments (one chain's candidates if those are more).
    # The leak folds over the chains in order, as a per-assignment loop
    # would; the numerator is a row sum of its (size, n_tx) terms, which
    # numpy adds pairwise from 8 terms up.
    trail = 1
    while trail < n_tx and width ** (trail + 1) <= _BLOCK_SIZE:
        trail += 1
    lead = n_tx - trail
    grid = (width,) * trail
    size = width ** trail
    num_terms = np.empty(grid + (n_tx,))
    for j in range(trail):
        num_terms[..., lead + j] = dl_terms[lead + j].reshape((width,) + (1,) * (trail - 1 - j))
    num_terms = num_terms.reshape(size, n_tx)

    def prefix_leak(prefix):
        """(n_rx, b_rx) SI leak per RX beam of the chains a prefix assigns."""
        leak = np.zeros((n_rx, b_rx))
        for i, b in enumerate(prefix):
            leak = leak + si_terms[i][:, :, b]
        return leak

    best_key = (-np.inf, -np.inf)  # (ratio^2 with +inf at zero denom, numerator)
    best_at = None
    for prefix in np.ndindex(*(width,) * lead):
        leak = prefix_leak(prefix)
        for i, b in enumerate(prefix):
            num_terms[:, i] = dl_terms[i, b]
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
        if (top, top_num) > best_key:
            best_key = (float(top), float(top_num))
            best_at = prefix + np.unravel_index(int(np.argmax(mask & (num == top_num))), grid)

    best_tx = tuple(int(tx_cand[i, b]) for i, b in enumerate(best_at))
    # the first minimum is the lexicographically smallest RX beam
    rx_at = np.argmin(prefix_leak(best_at), axis=1)
    best_rx = tuple(int(rx_cand[n, u]) for n, u in enumerate(rx_at))

    f_rf = AnalogBeamformer.from_codebook(codebook_tx, best_tx)
    w_rf = AnalogBeamformer.from_codebook(codebook_rx, best_rx)
    objective = float(np.sqrt(best_key[0])) if np.isfinite(best_key[0]) else np.inf
    return BeamSearchResult(f_rf, w_rf, objective)


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
    return np.sum(np.abs(cstack(h_si_eff) @ cstack(f_bb)) ** 2, axis=-1)


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
    """
    h_si_eff, h_eff_dl = cstack(h_si_eff), cmat(h_eff_dl)
    if h_si_eff.ndim != 3:
        raise ValueError("h_si_eff must be a stack (R, rx_chains, tx_chains)")
    count, n_rx, n_tx = h_si_eff.shape
    if n_tx < 2:
        raise ValueError("need at least 2 TX chains")
    if h_eff_dl.shape[1] != n_tx:
        raise ValueError("h_eff_dl columns must equal tx_chains")
    directions = svd(h_si_eff).v  # (R, tx, tx), columns in descending leak order

    # the widest designs, at a = n_tx-1, have min(dl_rx_antennas, n_tx-1) columns
    f_bb = np.zeros((count, n_tx, min(h_eff_dl.shape[0], n_tx - 1)), dtype=np.complex128)
    columns = np.empty(count, dtype=int)
    subspace_dim = np.empty(count, dtype=int)
    feasible = np.empty(count, dtype=bool)
    leak = np.empty((count, n_rx))
    rate = np.empty(count)
    searching = np.arange(count)
    for a in range(n_tx - 1, 0, -1):
        basis = directions[searching, :, n_tx - a:]
        if a > 1:
            g, cols, r = _eigenmode_precoders(h_eff_dl @ basis, power_w, dl_noise_w)
            f = basis @ g
        else:
            f = basis * np.sqrt(power_w)
            cols = np.ones_like(searching)
            r = np.log2(1.0 + np.sum(np.abs(h_eff_dl @ f) ** 2, axis=(-2, -1)) / dl_noise_w)
        f_leak = residual_si_profile(h_si_eff[searching], f)
        ok = (f_leak <= si_budget_w).all(axis=-1)
        done = ok | (a == 1)  # the fallback takes every routing left
        routings = searching[done]
        f_bb[routings, :, :f.shape[-1]] = f[done]
        columns[routings] = cols[done]
        subspace_dim[routings] = a
        feasible[routings] = ok[done]
        leak[routings] = f_leak[done]
        rate[routings] = r[done]
        searching = searching[~done]
        if not searching.size:
            break
    return DlPrecoderStack(f_bb, columns, subspace_dim, feasible, leak, rate)


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
    arrays get the water-filled eigenmode precoder of the chain-level channel.
    """
    h_eff_ul = cmat(h_eff_ul)
    if h_eff_ul.shape[1] == 1:
        return np.array([[np.sqrt(power_w)]], dtype=np.complex128)
    return capacity_precoder(h_eff_ul, power_w, noise_w)


def design_ul_combiner(
    h_eff_ul: np.ndarray, f_ul: np.ndarray, ipn_at_chains: np.ndarray
) -> np.ndarray:
    """MMSE digital combiner against the chain-level interference-plus-noise
    covariance: solve ipn @ w = h_eff_ul @ f_ul, then normalize columns.

    The uplink rate through this combiner equals the whitened capacity
    log2 det(I + f^H h^H ipn^{-1} h f); positive column scalings do not move
    it, so normalization is cosmetic (it keeps the noise term well scaled).
    """
    h_eff_ul, f_ul = cmat(h_eff_ul), cmat(f_ul)
    w = solve_hpd(ipn_at_chains, h_eff_ul @ f_ul)
    norms = np.linalg.norm(w, axis=0)
    nz = norms > 0.0
    w[:, nz] = w[:, nz] / norms[nz]
    return w
