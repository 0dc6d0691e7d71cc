"""Hybrid analog/digital beamforming design for the full-duplex node.

Partially-connected analog stages: each RF chain drives its own subarray, so
the analog precoder/combiner are block-diagonal with one codebook beam per
block.  The digital TX precoder is designed against the residual SI budget by
projecting onto the weakest right-singular directions of the effective SI
channel; the digital RX combiner is an MMSE solve against the
interference-plus-noise covariance.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .codebook import BeamCodebook
from .numerics import (
    DBM_LIMIT,
    cmat,
    dbm_to_watts,
    herm,
    numerical_rank,
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
    length = beams[0].size
    if any(b.size != length for b in beams):
        raise ValueError("all per-chain beams must have the same length")
    out = np.zeros((length * len(beams), len(beams)), dtype=np.complex128)
    for i, b in enumerate(beams):
        out[i * length:(i + 1) * length, i] = b
    return out


@dataclass(frozen=True, eq=False)
class AnalogBeamformer:
    """Per-chain beams plus their assembled block-diagonal matrix."""

    beam_indices: tuple[int, ...]
    per_chain: np.ndarray  # (subarray_len, chains), column i = chain i's beam
    matrix: np.ndarray     # (subarray_len * chains, chains)

    @staticmethod
    def from_codebook(codebook: BeamCodebook, indices) -> "AnalogBeamformer":
        indices = tuple(int(i) for i in indices)
        cols = codebook.beams[:, list(indices)]
        return AnalogBeamformer(indices, cols, assemble_block_diagonal(cols.T))


def _chain_gains(h: np.ndarray, codebook: BeamCodebook, chains: int,
                 transmit: bool) -> np.ndarray:
    """Per-chain beam gains, (chains, cardinality): ||h_i @ beam||^2 over
    chain i's column block of h when transmitting, ||beam^H @ h_i||^2 over
    its row block when receiving."""
    sub = codebook.beam_length
    gains = np.empty((chains, codebook.cardinality))
    for i in range(chains):
        block = slice(i * sub, (i + 1) * sub)
        if transmit:
            gains[i] = np.sum(np.abs(h[:, block] @ codebook.beams) ** 2, axis=0)
        else:
            gains[i] = np.sum(np.abs(herm(codebook.beams) @ h[block, :]) ** 2, axis=1)
    return gains


def best_tx_beams(h: np.ndarray, codebook: BeamCodebook, chains: int) -> AnalogBeamformer:
    """Per chain, the codebook beam maximizing the transmit gain
    ||h_block @ beam||; ties take the lowest index."""
    h = cmat(h)
    if h.shape[1] != chains * codebook.beam_length:
        raise ValueError("channel columns must equal chains * beam_length")
    gains = _chain_gains(h, codebook, chains, transmit=True)
    return AnalogBeamformer.from_codebook(codebook, np.argmax(gains, axis=1))


def best_rx_beams(h: np.ndarray, codebook: BeamCodebook, chains: int) -> AnalogBeamformer:
    """Per chain, the codebook beam maximizing the receive gain
    ||beam^H @ h_block||; ties take the lowest index."""
    h = cmat(h)
    if h.shape[0] != chains * codebook.beam_length:
        raise ValueError("channel rows must equal chains * beam_length")
    gains = _chain_gains(h, codebook, chains, transmit=False)
    return AnalogBeamformer.from_codebook(codebook, np.argmax(gains, axis=1))


# ---------------------------------------------------------------------
# joint analog beam-pair search
# ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BeamSearchResult:
    f_rf: AnalogBeamformer
    w_rf: AnalogBeamformer
    objective: float  # ||h_dl f_rf||_F / ||w_rf^H h_si f_rf||_F, +inf at 0 denom


def _index_blocks(candidate_lists, block_size=1 << 14):
    """Yield lexicographic tuples over the candidate lists as (T, n) arrays."""
    it = itertools.product(*candidate_lists)
    while True:
        block = list(itertools.islice(it, block_size))
        if not block:
            return
        yield np.asarray(block, dtype=int)


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

    card_tx, card_rx = codebook_tx.cardinality, codebook_rx.cardinality

    # per-chain downlink gain, dl_gain[i, b] = ||h_dl block_i @ beam_b||^2
    dl_gain = _chain_gains(h_dl, codebook_tx, n_tx, transmit=True)

    # per chain-pair SI gain, si_gain[n][bu, i, bv] = |u^H block_{n,i} v|^2
    si_gain = np.empty((n_rx, card_rx, n_tx, card_tx))
    for n in range(n_rx):
        rows = slice(n * sub_rx, (n + 1) * sub_rx)
        for i in range(n_tx):
            blk = h_si[rows, i * sub_tx:(i + 1) * sub_tx]
            si_gain[n, :, i, :] = np.abs(herm(codebook_rx.beams) @ blk @ codebook_tx.beams) ** 2

    if strategy == "exhaustive":
        tx_cand = [np.arange(card_tx)] * n_tx
        rx_cand = [np.arange(card_rx)] * n_rx
    else:
        b_tx = min(shortlist_size, card_tx)
        b_rx = min(shortlist_size, card_rx)
        tx_cand = [np.sort(np.argsort(-dl_gain[i], kind="stable")[:b_tx]) for i in range(n_tx)]
        leak = _chain_gains(h_si, codebook_rx, n_rx, transmit=False)
        rx_cand = [np.sort(np.argsort(leak[n], kind="stable")[:b_rx]) for n in range(n_rx)]

    best_key = (-np.inf, -np.inf)  # (ratio^2 with +inf at zero denom, numerator)
    best_tx = best_rx = None
    for block in _index_blocks(tx_cand):
        num = dl_gain[np.arange(n_tx)[None, :], block].sum(axis=1)  # (T,)
        den = np.zeros(block.shape[0])
        rx_pick = np.empty((block.shape[0], n_rx), dtype=int)
        for n in range(n_rx):
            per_rx = si_gain[n][rx_cand[n]]  # (Bn, n_tx, card_tx)
            leak = np.zeros((len(rx_cand[n]), block.shape[0]))
            for i in range(n_tx):
                leak += per_rx[:, i, block[:, i]]
            k = np.argmin(leak, axis=0)  # first minimum = lex smallest beam
            rx_pick[:, n] = rx_cand[n][k]
            den += leak[k, np.arange(block.shape[0])]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio2 = np.where(den > 0.0, num / den, np.inf)
        # reduce with the documented tie rules, keeping the earliest on full tie
        top = np.max(ratio2)
        mask = ratio2 == top
        top_num = np.max(num[mask])
        idx = int(np.argmax(mask & (num == top_num)))
        if (top, top_num) > best_key:
            best_key = (float(top), float(top_num))
            best_tx = tuple(int(v) for v in block[idx])
            best_rx = tuple(int(v) for v in rx_pick[idx])

    f_rf = AnalogBeamformer.from_codebook(codebook_tx, best_tx)
    w_rf = AnalogBeamformer.from_codebook(codebook_rx, best_rx)
    objective = float(np.sqrt(best_key[0])) if np.isfinite(best_key[0]) else np.inf
    return BeamSearchResult(f_rf, w_rf, objective)


# =====================================================================
# digital stage
# =====================================================================


def capacity_precoder(h_eff: np.ndarray, power_w: float, noise_w: float) -> np.ndarray:
    """Water-filled eigenmode precoder for an effective channel.

    Returns (cols(h_eff), d) with d = min(rank, rows, cols); zero-power modes
    keep their (zero) columns so the trace equals power_w exactly whenever the
    channel is nonzero.
    """
    h_eff = cmat(h_eff)
    dec = svd(h_eff)
    d = numerical_rank(dec.s, h_eff.shape)
    if d == 0:
        return np.zeros((h_eff.shape[1], 1), dtype=np.complex128)
    gains = dec.s[:d] ** 2 / noise_w
    powers = waterfill(gains, power_w)
    return dec.v[:, :d] * np.sqrt(powers)[None, :]


@dataclass(frozen=True, eq=False)
class DlPrecoderResult:
    f_bb: np.ndarray          # (tx_chains, streams)
    subspace_dim: int         # how many weakest-SI directions were used
    feasible: bool            # per-chain residual SI within budget


def design_dl_precoder(
    h_si_eff: np.ndarray,
    h_eff_dl: np.ndarray,
    power_w: float,
    si_budget_w: float,
    dl_noise_w: float,
) -> DlPrecoderResult:
    """Digital TX precoder under the per-chain residual SI budget.

    Sweeps the dimension a of the weakest-SI subspace from tx_chains-1 down
    to 2: restrict to the a weakest right-singular directions of the residual
    SI channel, water-fill the restricted downlink channel at full power, and
    accept the first size whose per-RX-chain SI leakage stays within budget.
    Falls back to a single full-power stream on the very weakest direction;
    if even that leaks too much the design is returned flagged infeasible.
    """
    h_si_eff, h_eff_dl = cmat(h_si_eff), cmat(h_eff_dl)
    n_tx = h_si_eff.shape[1]
    if n_tx < 2:
        raise ValueError("need at least 2 TX chains")
    if h_eff_dl.shape[1] != n_tx:
        raise ValueError("h_eff_dl columns must equal tx_chains")
    directions = svd(h_si_eff).v  # descending leak order, columns

    for a in range(n_tx - 1, 1, -1):
        basis = directions[:, n_tx - a:]
        g = capacity_precoder(h_eff_dl @ basis, power_w, dl_noise_w)
        f_bb = basis @ g
        leak = np.sum(np.abs(h_si_eff @ f_bb) ** 2, axis=1)
        if np.all(leak <= si_budget_w):
            return DlPrecoderResult(f_bb, a, True)

    f_bb = directions[:, -1:] * np.sqrt(power_w)
    leak = np.sum(np.abs(h_si_eff @ f_bb) ** 2, axis=1)
    return DlPrecoderResult(f_bb, 1, bool(np.all(leak <= si_budget_w)))


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
