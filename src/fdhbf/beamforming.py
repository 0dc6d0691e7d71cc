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
    at_least,
    bound_problems,
    cmat,
    dbm_to_watts,
    herm,
    rank_mask,
    solve_hpd,
    svd,
    waterfill,
    within,
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

    BOUNDS = {
        **dict.fromkeys(("tx_antennas", "rx_antennas", "rx_chains",
                         "dl_rx_antennas", "ul_tx_antennas"), at_least(1)),
        "tx_chains": at_least(2),  # the DL precoder needs a direction to spare
        **dict.fromkeys(("tx_power_dbm", "ul_tx_power_dbm", "rx_noise_dbm",
                         "dl_rx_noise_dbm", "si_budget_dbm"), within(-DBM_LIMIT, DBM_LIMIT, "dBm")),
    }

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
        problems = [f"{name} {req}" for name, req in bound_problems(self.BOUNDS, vars(self))]
        for antennas, chains in (("tx_antennas", "tx_chains"), ("rx_antennas", "rx_chains")):
            n, k = getattr(self, antennas), getattr(self, chains)
            if k >= 1 and n % k != 0:
                problems.append(f"{antennas} ({n}) must be divisible by {chains} ({k})")
        return problems


# =====================================================================
# analog stage
# =====================================================================


def assemble_block_diagonal(beams) -> np.ndarray:
    """Stack per-chain beams into the block-diagonal analog matrix, or an
    array of them (..., chains, length) into a stack of such matrices."""
    if not isinstance(beams, np.ndarray):
        beams = [np.asarray(b, dtype=np.complex128).ravel() for b in beams]
        if not beams:
            raise ValueError("need at least one beam")
        if any(b.size != beams[0].size for b in beams):
            raise ValueError("all per-chain beams must have the same length")
    beams = np.asarray(beams, dtype=np.complex128)
    *lead, chains, length = beams.shape
    out = np.zeros((*lead, chains, length, chains), dtype=np.complex128)
    diag = np.arange(chains)
    out.swapaxes(-2, -1)[..., diag, diag, :] = beams  # beam i into block (i, :, i)
    return out.reshape(*lead, chains * length, chains)


@dataclass(frozen=True, eq=False)
class AnalogBeamformer:
    """Per-chain beam indices plus their assembled block-diagonal matrix, or
    a stack of them (indices per item, matrices stacked)."""

    beam_indices: tuple
    matrix: np.ndarray  # (..., subarray_len * chains, chains)

    @staticmethod
    def from_codebook(codebook: BeamCodebook, indices) -> "AnalogBeamformer":
        indices = np.asarray(indices, dtype=int)
        beams = codebook.beams.T[indices]  # (..., chains, length)
        return AnalogBeamformer(tuple(indices.tolist()), assemble_block_diagonal(beams))

    def items(self) -> list["AnalogBeamformer"]:
        """Each beamformer of a stack."""
        return [AnalogBeamformer(tuple(i), m) for i, m in zip(self.beam_indices, self.matrix)]


def _chain_gains(h: np.ndarray, codebook: BeamCodebook, transmit: bool) -> np.ndarray:
    """Per-chain beam gains of a channel or a stack of them, (..., chains,
    cardinality): ||h_i @ beam||^2 over chain i's column block h_i of h when
    transmitting, ||beam^H @ h_i||^2 over its row block when receiving."""
    sub = codebook.beam_length
    if transmit:  # blocks (..., chains, rows, sub)
        blocks = h.reshape(*h.shape[:-1], h.shape[-1] // sub, sub).swapaxes(-3, -2)
        return np.sum(np.abs(blocks @ codebook.beams) ** 2, axis=-2)
    # blocks (..., chains, sub, cols)
    blocks = h.reshape(*h.shape[:-2], h.shape[-2] // sub, sub, h.shape[-1])
    return np.sum(np.abs(herm(codebook.beams) @ blocks) ** 2, axis=-1)


def _best_beams(h: np.ndarray, codebook: BeamCodebook, chains: int, transmit: bool):
    """best_tx_beams (transmit) or best_rx_beams of h."""
    h = cmat(h, stack=True)
    axis, side = (-1, "columns") if transmit else (-2, "rows")
    if h.shape[axis] != chains * codebook.beam_length:
        raise ValueError(f"channel {side} must equal chains * beam_length")
    gains = _chain_gains(h, codebook, transmit)
    return AnalogBeamformer.from_codebook(codebook, np.argmax(gains, axis=-1))


def best_tx_beams(h: np.ndarray, codebook: BeamCodebook, chains: int) -> AnalogBeamformer:
    """Per chain, the codebook beam maximizing the transmit gain
    ||h_block @ beam||; ties take the lowest index.  A stack of channels
    gives a stack of beamformers."""
    return _best_beams(h, codebook, chains, transmit=True)


def best_rx_beams(h: np.ndarray, codebook: BeamCodebook, chains: int) -> AnalogBeamformer:
    """best_tx_beams by the receive gain ||beam^H @ h_block||."""
    return _best_beams(h, codebook, chains, transmit=False)


# ---------------------------------------------------------------------
# joint analog beam-pair search
# ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BeamSearchResult:
    f_rf: AnalogBeamformer
    w_rf: AnalogBeamformer
    objective: float  # ||h_dl f_rf||_F / ||w_rf^H h_si f_rf||_F, +inf at 0 denom
    scored: int       # TX assignments scored; the scan skips blocks and rows that cannot win
    # (for a stack of draws: stacked beamformers, an objective and a count per draw)


# TX assignments scored per block of the candidate scan, the most block
# prefixes bounded and sorted at once, and the most rows a draw bounds and
# scores per pass
_BLOCK_SIZE = 1 << 8
_PREFIX_CHUNK = 1 << 12
_ROW_CHUNK = 1 << 8
# relative slack of the block and row bounds, see select_analog_beams
_SLACK = 1.0 + 1e-12


def _upper(bound: np.ndarray) -> np.ndarray:
    """An upper bound widened by the slack.  Subnormal values, where a
    relative slack does not hold, and NaN (inf / inf) count as +inf."""
    bound = bound * _SLACK
    return np.where((bound == 0.0) | (bound >= np.finfo(float).tiny), bound, np.inf)


def _bounds(num: np.ndarray, leak: np.ndarray) -> tuple:
    """The widened bounds (ratio_ub, num_ub) from sums of extreme terms: the
    numerators' and the leaks' (..., rx chains, rx candidates)."""
    num_ub, den_lb = _upper(num), leak.min(axis=-1).sum(axis=-1)
    with np.errstate(over="ignore"):
        return _upper(np.where(den_lb > 0.0, num_ub / den_lb, np.inf)), num_ub


def _not_below(ratio_ub, num_ub, first, best) -> np.ndarray:
    """Whether bound keys (ratio_ub, num_ub, -first) are not below the best
    keys (ratio^2, numerator, -flat index) that broadcast against them."""
    ratio, num, neg_flat = best
    return (ratio_ub > ratio) | ((ratio_ub == ratio)
                                 & ((num_ub > num) | ((num_ub == num) & (-first >= neg_flat))))


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

    The scan is a branch and bound over blocks and their rows: a block
    fixes a prefix, the candidates of the leading TX chains, and a row of it
    the first trailing chain's candidate too.  A block's or row's numerator
    is at most num_ub, its fixed chains' downlink gains plus each free
    chain's largest one; its leak into RX chain n with beam u is at least
    its fixed chains' leak plus each free chain's least SI gain into (n, u),
    so its denominator is at least den_lb, the sum over RX chains of their
    least such bound, and its ratio at most ratio_ub = num_ub / den_lb (+inf
    at den_lb = 0).  Scores and bounds are sums of nonnegative gains, n_tx
    terms to a numerator or a leak and n_rx leaks to a denominator, so a
    computed ratio or bound lies within (2 n_tx + n_rx) * 2^-53 of its exact
    value, relatively, whatever order its sums run in.  Both bounds are
    widened by 1e-12, which covers that up to hundreds of chains, and a
    bound in the subnormal range, where relative error is unbounded, counts
    as +inf; 0 and +inf are exact (at num_ub = 0 every numerator bounded is 0).

    So no assignment's key (ratio^2, numerator, -flat index in the
    lexicographic order) exceeds its block's or row's bound key (ratio_ub,
    num_ub, -flat index of the first assignment).  Per chunk of prefixes,
    each draw ranks its blocks by decreasing bound key.  Pass 1, in the
    first chunk only, scores each draw's first block whole; pass 2 takes the
    next blocks (a later chunk's first one alone, then the rest), up to
    _ROW_CHUNK rows at a time, while their keys are not below the best,
    bounds their rows and scores the rows whose keys are not below it.  The
    best key only grows, and a block or row is scored exactly as a full
    scan scores it, so the pick and the objective are the full scan's, bit
    for bit; `scored` counts the assignments in scored blocks and rows (of
    a later chunk's top block, only rows that can beat the best).  Channels
    whose gain sums could overflow float64 are rejected with a ValueError.

    A stack of draws, h_dl and h_si (B, rows, cols), is searched as one: its
    tables and bounds are (B, ...) arrays, and each pass scores all draws'
    blocks or rows as one stack, each draw ranked and pruned by its own
    bounds and best key.  Each draw gets its own scan's result, bit for bit:
    stacked beamformers, per-draw objective and scored.
    """
    h_dl, h_si = cmat(h_dl, stack=True), cmat(h_si, stack=True)
    if single := h_dl.ndim == 2:
        h_dl, h_si = h_dl[None], h_si[None]
    cells, n_tx, n_rx = len(h_dl), cfg.tx_chains, cfg.rx_chains
    sub_tx, sub_rx = codebook_tx.beam_length, codebook_rx.beam_length
    if h_dl.ndim != 3 or h_dl.shape[2] != n_tx * sub_tx:
        raise ValueError("h_dl columns must equal tx_chains * tx beam length")
    if h_si.shape != (cells, n_rx * sub_rx, n_tx * sub_tx):
        raise ValueError("h_si must be (rx_antennas, tx_antennas), one per h_dl")
    for name, h in (("h_dl", h_dl), ("h_si", h_si)):
        if not np.isfinite(h).all():
            raise ValueError(f"{name} must be finite")
    if strategy not in ("exhaustive", "shortlist"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "shortlist" and shortlist_size < 1:
        raise ValueError("shortlist_size must be >= 1")

    with np.errstate(over="ignore"):
        # per-chain downlink gain, dl_gain[c, i, b] = ||h_dl block_i @ beam_b||^2
        dl_gain = _chain_gains(h_dl, codebook_tx, transmit=True)

        # per chain-pair SI gain, si_gain[c, n, i, bu, bv] = |u^H block_{n,i} v|^2,
        # from the grid of SI blocks, blocks[c, n, i] = block_{n,i}
        blocks = h_si.reshape(cells, n_rx, sub_rx, n_tx, sub_tx).swapaxes(2, 3)
        si_gain = np.abs(herm(codebook_rx.beams) @ blocks @ codebook_tx.beams) ** 2
        # half this peak bounds every numerator and denominator of the scan
        peak = 2.0 * (dl_gain.max(axis=-1).sum(axis=-1)
                      + si_gain.max(axis=(-2, -1)).sum(axis=(-2, -1)))
    if not np.isfinite(peak).all():
        raise ValueError("the beam gains of h_dl and h_si overflow float64")

    if strategy == "exhaustive":
        tx_cand = np.zeros((cells, n_tx, 1), dtype=int) + np.arange(codebook_tx.cardinality)
        rx_cand = np.zeros((cells, n_rx, 1), dtype=int) + np.arange(codebook_rx.cardinality)
    else:
        tx_cand = np.sort(np.argsort(-dl_gain, axis=-1, kind="stable")[..., :shortlist_size],
                          axis=-1)
        with np.errstate(over="ignore"):  # an overflowing leak ranks last
            leak = _chain_gains(h_si, codebook_rx, transmit=False)
        rx_cand = np.sort(np.argsort(leak, axis=-1, kind="stable")[..., :shortlist_size], axis=-1)
    width, b_rx = tx_cand.shape[-1], rx_cand.shape[-1]

    # the per-chain tables over the candidates, each gathered once:
    # dl_terms[c, i, b] is TX chain i's downlink gain with its b-th
    # candidate, si_terms[c, i, n, u, b] the SI gain from it into RX chain n
    # with that chain's u-th candidate
    rows = np.arange(cells)[:, None]
    dl_terms = dl_gain[rows[..., None], np.arange(n_tx)[:, None], tx_cand]
    si_terms = si_gain[rows[..., None, None, None], np.arange(n_rx)[:, None, None],
                       np.arange(n_tx)[:, None, None, None], rx_cand[:, None, :, :, None],
                       tx_cand[:, :, None, None, :]]

    # Blocks of the lexicographic candidate grid: a block broadcasts the
    # trailing chains' tables over a grid in C order, so a prefix's index
    # and a block's flat index are lexicographic orders.  A block holds at
    # most _BLOCK_SIZE assignments (one chain's candidates if those are
    # more) over at most log2 _BLOCK_SIZE trailing chains, within numpy's
    # dimension limit.  A row of a block fixes its first trailing chain's
    # candidate too.  The leak folds over the chains in order, as a
    # per-assignment loop would; the numerator is a row sum of its
    # (size, n_tx) terms, which numpy adds pairwise from 8 terms up.
    trail = 1
    while trail < n_tx and max(width, 2) ** (trail + 1) <= _BLOCK_SIZE:
        trail += 1
    lead = n_tx - trail
    size = width ** trail
    row_size = size // width
    num_terms = np.empty((cells,) + (width,) * trail + (n_tx,))
    for j in range(trail):
        num_terms[..., lead + j] = dl_terms[:, lead + j].reshape(
            (cells,) + (1,) * j + (width,) + (1,) * (trail - 1 - j))
    num_terms = num_terms.reshape(cells, size, n_tx)
    row_si = [si_terms[:, lead + j].reshape((cells, n_rx, b_rx) + (1,) * (j - 1) + (width,))
              for j in range(1, trail)]
    lead_si = si_terms[:, lead].transpose(0, 3, 1, 2)  # the first trailing chain's, by candidate
    if lead:  # per draw, the sums of the later chains' largest DL and least SI terms
        dl_top, si_least = dl_terms.max(axis=-1), si_terms.min(axis=-1)
        row_top, row_tail = dl_top[:, lead + 1:].sum(axis=-1), si_least[:, lead + 1:].sum(axis=1)

    # each draw's best key (ratio^2, +inf at zero denom; numerator; -flat
    # index of its TX assignment in the candidate grid), its RX candidates,
    # and its count
    best = [(-np.inf, -np.inf, 0)] * cells
    best_rx, scored = np.zeros((cells, n_rx), dtype=int), np.zeros(cells, dtype=int)

    def score(draws, firsts, leak, terms):
        """Score a stack of groups of assignments, group g of draw draws[g]
        starting at flat index firsts[g], from their leaks (groups, n_rx,
        b_rx, size) and numerator terms (groups, size, n_tx); count them and
        keep each draw's best key."""
        # each RX chain takes its lowest-leak beam, the first minimum being
        # the lexicographically smallest
        least = leak.min(axis=2)
        den = np.zeros(least[:, 0].shape)
        for n in range(n_rx):
            den += least[:, n]
        num = terms.sum(axis=-1)
        ratio2 = np.where(den > 0.0, num / den, np.inf)
        # reduce with the documented tie rules, keeping the earliest on full tie
        top = ratio2.max(axis=-1, keepdims=True)
        mask = ratio2 == top
        top_num = np.where(mask, num, -np.inf).max(axis=-1, keepdims=True)
        first = np.argmax(mask & (num == top_num), axis=-1)
        rx = leak[np.arange(len(leak)), :, :, first].argmin(axis=-1)
        for c, f, r, numer, i, x in zip(draws.tolist(), firsts.tolist(), top.ravel().tolist(),
                                        top_num.ravel().tolist(), first.tolist(), rx):
            scored[c] += leak.shape[-1]
            if (key := (r, numer, -(f + i))) > best[c]:
                best[c], best_rx[c] = key, x

    per_pass = max(1, _ROW_CHUNK // width)  # blocks whose rows a draw takes per pass
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, width ** lead, _PREFIX_CHUNK):
            index = np.arange(start, min(start + _PREFIX_CHUNK, width ** lead))
            firsts = index * size  # each block's first flat index
            pre_leak = np.zeros((cells, index.size, n_rx, b_rx))
            order = np.zeros((cells, 1), dtype=int)
            if lead:  # blocks by decreasing bound key, equal keys in prefix order
                prefixes = index[:, None] // width ** np.arange(lead - 1, -1, -1) % width
                for i in range(lead):
                    pre_leak = pre_leak + si_terms[:, i].transpose(0, 3, 1, 2)[:, prefixes[:, i]]
                pre_num = dl_terms[:, np.arange(lead), prefixes]
                pre_sum = pre_num.sum(axis=-1)
                ratio_ub, num_ub = _bounds(
                    pre_sum + (row_top + dl_top[:, lead])[:, None],
                    pre_leak + (row_tail + si_least[:, lead])[:, None])
                order = np.lexsort((-num_ub, -ratio_ub), axis=-1)
                ranked = ratio_ub[rows, order], num_ub[rows, order], firsts[order]
            if not start:  # pass 1, while no draw has a best key: its top block, whole
                p = order[:, 0]
                leak = pre_leak[rows[:, 0], p][..., None] + si_terms[:, lead]
                for table in row_si:
                    leak = leak[..., None] + table[:, :, :, None]
                if lead:
                    num_terms[..., :lead] = pre_num[rows[:, 0], p][:, None]
                score(rows[:, 0], firsts[p], leak.reshape(cells, n_rx, b_rx, size), num_terms)

            # pass 2: per_pass at a time (a later chunk's top block alone
            # first), the next blocks of each draw's order whose bound keys are
            # not below its best; of those, the rows that are not, as one stack
            for done in ([0] if start else []) + list(range(1, index.size, per_pass)):
                window = slice(done, done + per_pass if done else 1)
                best_keys = np.array(best).reshape(cells, 3).T
                c, j = np.nonzero(_not_below(*(key[:, window] for key in ranked),
                                             best_keys[..., None]))
                if not c.size:
                    break
                p = order[c, done + j]
                # row k: the block's prefix, candidate k of the first trailing
                # chain, each later chain at its largest DL and least SI terms
                row_ub = _bounds(pre_sum[c, p][:, None] + dl_terms[c, lead] + row_top[c, None],
                                 (pre_leak[c, p] + row_tail[c])[:, None] + lead_si[c])
                row_first = firsts[p][:, None] + np.arange(width) * row_size
                m, k = np.nonzero(_not_below(*row_ub, row_first, best_keys[:, c, None]))
                if not m.size:
                    continue
                c, p = c[m], p[m]
                leak = pre_leak[c, p] + lead_si[c, k]
                for table in row_si:  # one draw's tables broadcast over its rows
                    leak = leak[..., None] + (table[c] if cells > 1 else table)
                terms = num_terms.reshape(cells, width, row_size, n_tx)[c, k]
                terms[..., :lead] = pre_num[c, p][:, None]
                score(c, row_first[m, k], leak.reshape(m.size, n_rx, b_rx, row_size), terms)

    # each draw's candidate positions, then its beams
    flat = -np.array([key[2] for key in best], dtype=int)[:, None]
    best_tx = tx_cand[rows, np.arange(n_tx), flat // width ** np.arange(n_tx - 1, -1, -1) % width]
    best_rx = rx_cand[rows, np.arange(n_rx), best_rx]
    objective = np.sqrt(np.array([key[0] for key in best]))
    if single:
        best_tx, best_rx = best_tx[0], best_rx[0]
        objective, scored = float(objective[0]), int(scored[0])
    return BeamSearchResult(AnalogBeamformer.from_codebook(codebook_tx, best_tx),
                            AnalogBeamformer.from_codebook(codebook_rx, best_rx), objective, scored)


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
    # U goes unused; a wide channel keeps the full factorization, whose V
    # the reduced one would round differently
    dec = svd(h_eff, full_matrices=h_eff.shape[-2] < h_eff.shape[-1])
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
    """Downlink designs for a stack of R residual SI channels, or for one
    such stack per cell (a leading cell axis on every array)."""

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
    Stacks of cells, h_si_eff (cells, R, rx_chains, tx_chains) with one
    h_eff_dl per cell (cells, dl_rx_antennas, tx_chains), are designed in
    one pass, each cell as alone.

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
    rate, widened by the slack, is below its cell's best feasible rate so
    far stops with its current design, flagged infeasible at a >= 2.  A skipped design
    could not be feasible or beat a feasible one, so the pick and its bits
    are the full sweep's (README.md explains the slack and the certificate).
    """
    h_si_eff, h_eff_dl = cmat(h_si_eff, stack=True), cmat(h_eff_dl, stack=True)
    cells = h_si_eff.shape[:-3]
    if h_si_eff.ndim not in (3, 4) or h_eff_dl.shape[:-2] != cells:
        raise ValueError("h_si_eff must be a stack (R, rx_chains, tx_chains), or one per cell")
    per_cell, n_rx, n_tx = h_si_eff.shape[-3:]
    if n_tx < 2:
        raise ValueError("need at least 2 TX chains")
    if h_eff_dl.shape[-1] != n_tx:
        raise ValueError("h_eff_dl columns must equal tx_chains")
    h_si_eff = h_si_eff.reshape(-1, n_rx, n_tx)
    count = len(h_si_eff)
    cell = np.arange(count) // per_cell
    h_eff_dl = h_eff_dl.reshape(-1, *h_eff_dl.shape[-2:])  # one per cell
    dec = svd(h_si_eff)  # dec.v: (count, tx, tx), columns in descending leak order

    # bound (1): the channels whose designs at a >= 2 all leak over budget
    hopeless = np.zeros(count, dtype=bool)
    if n_rx >= n_tx > 2:
        floor = dec.s[:, -1] ** 2 * (1.0 - _DESIGN_SLACK) / n_rx - dec.s[:, 0] ** 2 * _DESIGN_SLACK
        hopeless = floor * power_w > si_budget_w
        if hopeless.any():
            h_dl = h_eff_dl[cell]
            weak = np.sum(np.abs(h_dl @ dec.v[:, :, -2:]) ** 2, axis=(-2, -1))
            hopeless &= ((weak > _DESIGN_SLACK * np.sum(np.abs(h_dl) ** 2, axis=(-2, -1)))
                         & (weak * power_w >= 2.0 * _DESIGN_SLACK * dl_noise_w))

    # the widest designs, at a = n_tx-1, have min(dl_rx_antennas, n_tx-1) columns
    f_bb = np.zeros((count, n_tx, min(h_eff_dl.shape[-2], n_tx - 1)), dtype=np.complex128)
    columns = np.empty(count, dtype=int)
    subspace_dim = np.empty(count, dtype=int)
    feasible = np.empty(count, dtype=bool)
    leak = np.empty((count, n_rx))
    rate = np.empty(count)
    searching, parked = np.flatnonzero(~hopeless), np.flatnonzero(hopeless)
    best, designs = np.full(count // per_cell, -np.inf), 0  # each cell's best feasible rate so far
    for a in range(n_tx - 1, 0, -1):
        if a == 1 and parked.size:
            searching = np.concatenate((searching, parked))
        if not searching.size:
            continue
        basis = dec.v[searching, :, n_tx - a:]
        h_dl = h_eff_dl[cell[searching]]
        if a > 1:
            g, cols, r = _eigenmode_precoders(h_dl @ basis, power_w, dl_noise_w)
            f = basis @ g
            designs += searching.size
        else:
            f = basis * np.sqrt(power_w)
            cols = np.ones_like(searching)
            r = np.log2(1.0 + np.sum(np.abs(h_dl @ f) ** 2, axis=(-2, -1)) / dl_noise_w)
        f_leak = residual_si_profile(h_si_eff[searching], f)
        ok = (f_leak <= si_budget_w).all(axis=-1)
        np.maximum.at(best, cell[searching[ok]], r[ok])
        # the fallback takes every channel left; bound (2) stops those that cannot win
        done = ok | (a == 1) | (r * (1.0 + _DESIGN_SLACK) + _DESIGN_SLACK < best[cell[searching]])
        routings = searching[done]
        f_bb[routings, :, :f.shape[-1]] = f[done]
        columns[routings] = cols[done]
        subspace_dim[routings] = a
        feasible[routings] = ok[done]
        leak[routings] = f_leak[done]
        rate[routings] = r[done]
        searching = searching[~done]
    fields = (f_bb, columns, subspace_dim, feasible, leak, rate)
    return DlPrecoderStack(*(x.reshape(*cells, per_cell, *x.shape[1:]) for x in fields), designs)


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
    """Uplink transmitter precoder of a chain-level channel, or of each of a
    stack (..., rx_chains, ul_tx_antennas).

    Single-antenna transmitters send sqrt(power) (the exact optimum); larger
    arrays get the water-filled eigenmode precoder of the chain-level channel
    without its zero-power modes, whose zero combiner columns would make the
    combined covariance singular (one zero column if every mode is zero).
    In a stack they stay as zero columns past each precoder's
    :func:`ul_columns`.
    """
    h_eff_ul = cmat(h_eff_ul, stack=True)
    if h_eff_ul.shape[-1] == 1:
        return np.full((*h_eff_ul.shape[:-2], 1, 1), np.sqrt(power_w), dtype=np.complex128)
    f, _, _ = _eigenmode_precoders(h_eff_ul, power_w, noise_w)
    return f if f.ndim > 2 else f[:, :ul_columns(f)]


def ul_columns(f_ul: np.ndarray) -> np.ndarray:
    """Columns of each uplink precoder: its powered modes, which lead, and
    at least one."""
    return np.maximum(1, f_ul.any(axis=-2).sum(axis=-1))


def design_ul_combiner(
    h_eff_ul: np.ndarray, f_ul: np.ndarray, ipn_at_chains: np.ndarray
) -> np.ndarray:
    """MMSE digital combiner against the chain-level interference-plus-noise
    covariance: solve ipn @ w = h_eff_ul @ f_ul, then normalize columns.

    The trial rates the uplink against this same ipn: through the combiner
    the rate is the whitened capacity log2 det(I + f^H h^H ipn^{-1} h f), and
    positive column scalings do not move it (the normalization is cosmetic).
    Stacks (..., rows, cols) give a stack of combiners.
    """
    h_eff_ul, f_ul = cmat(h_eff_ul, stack=True), cmat(f_ul, stack=True)
    w = solve_hpd(ipn_at_chains, h_eff_ul @ f_ul)
    norms = np.linalg.norm(w, axis=-2, keepdims=True)
    return np.divide(w, norms, out=w, where=norms > 0.0)
