"""Reduced-complexity multi-tap analog canceller.

The canceller taps into N of the tx_chains * rx_chains RF chain pairs.  Its
chain-level transfer matrix factors as C = L3 @ L2 @ L1 where L1 (N x
tx_chains) picks one TX chain per tap, L2 = diag(tap values) applies a
complex attenuation/phase per tap (delays absorbed into the phase), and L3
(rx_chains x N) adds each tap into one RX chain.  Hardware size therefore
scales with the chain counts, never with antenna counts.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# =====================================================================
# routing
# =====================================================================


@dataclass(frozen=True)
class TapRouting:
    """An ordered set of distinct (tx_chain, rx_chain) pairs, 1-based."""

    tx_chains: int
    rx_chains: int
    taps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for tx, rx in self.taps:
            if not (1 <= tx <= self.tx_chains):
                raise ValueError(f"tap tx index {tx} outside 1..{self.tx_chains}")
            if not (1 <= rx <= self.rx_chains):
                raise ValueError(f"tap rx index {rx} outside 1..{self.rx_chains}")
            if (tx, rx) in seen:
                raise ValueError(f"duplicate tap pair {(tx, rx)}")
            seen.add((tx, rx))

    @property
    def num_taps(self) -> int:
        return len(self.taps)

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based (rx rows, tx columns) of the routed chain-pair entries."""
        rows = np.fromiter((rx - 1 for _, rx in self.taps), dtype=int, count=self.num_taps)
        cols = np.fromiter((tx - 1 for tx, _ in self.taps), dtype=int, count=self.num_taps)
        return rows, cols

    def selection_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Binary (L1, L3): each L1 row and each L3 column sums to exactly 1."""
        l1 = np.zeros((self.num_taps, self.tx_chains))
        l3 = np.zeros((self.rx_chains, self.num_taps))
        for j, (tx, rx) in enumerate(self.taps):
            l1[j, tx - 1] = 1.0
            l3[rx - 1, j] = 1.0
        return l1, l3


def enumerate_routings(tx_chains: int, rx_chains: int, num_taps: int) -> list[TapRouting]:
    """All tap placements, as combinations of distinct chain pairs in
    lexicographic (tx, rx) order.  num_taps = 0 yields the single empty
    routing (canceller off)."""
    if tx_chains < 1 or rx_chains < 1:
        raise ValueError("chain counts must be >= 1")
    total = tx_chains * rx_chains
    if not (0 <= num_taps <= total):
        raise ValueError(f"num_taps must lie in 0..{total} (got {num_taps})")
    pairs = [(tx, rx) for tx in range(1, tx_chains + 1) for rx in range(1, rx_chains + 1)]
    return [
        TapRouting(tx_chains, rx_chains, combo)
        for combo in itertools.combinations(pairs, num_taps)
    ]


@dataclass(frozen=True, eq=False)
class RoutingTable:
    """Every routing of one (chains, taps) size in enumeration order, with
    its routed entries as a read-only mask stack (R, rx_chains, tx_chains)."""

    routings: tuple[TapRouting, ...]
    mask: np.ndarray


@functools.lru_cache(maxsize=16)
def routing_table(tx_chains: int, rx_chains: int, num_taps: int) -> RoutingTable:
    """The routings of :func:`enumerate_routings` and their mask stack, built
    once per (chains, taps) and shared by every later call."""
    routings = tuple(enumerate_routings(tx_chains, rx_chains, num_taps))
    mask = np.zeros((len(routings), rx_chains, tx_chains), dtype=bool)
    for r, routing in enumerate(routings):
        mask[(r, *routing.entries())] = True
    mask.flags.writeable = False
    return RoutingTable(routings, mask)


# =====================================================================
# tap values and impairments
# =====================================================================


# 2.0 ** 1024 overflows a float
MAX_PHASE_BITS = 1023
# the smallest positive dB step for which 20 log10|w| / step is finite for
# every finite weight w: a finer step overflows it and rounds every |w| < 1
# to 0, switching the canceller off
MIN_ATTENUATION_STEP_DB = 1e-300
# a step below the largest whose 10 ** (step / 40) in the quantization error
# bound is finite (about 12330 dB)
MAX_ATTENUATION_STEP_DB = 12000.0


@dataclass(frozen=True)
class TapImpairments:
    """Hardware quantization of the tap weights.

    attenuation_step_db: magnitude grid in dB (0 = continuous), else in
    [MIN_ATTENUATION_STEP_DB, MAX_ATTENUATION_STEP_DB].
    phase_bits: the phase grid has 2**phase_bits levels (0 = continuous), at
    most MAX_PHASE_BITS so that 2**phase_bits is a finite float.
    Disabled by default: taps are ideal complex weights.
    """

    enabled: bool = False
    attenuation_step_db: float = 0.25
    phase_bits: int = 10

    def __post_init__(self):
        step = self.attenuation_step_db
        if not (step == 0.0 or MIN_ATTENUATION_STEP_DB <= step <= MAX_ATTENUATION_STEP_DB):
            raise ValueError(f"attenuation_step_db must be 0 or lie in "
                             f"[{MIN_ATTENUATION_STEP_DB:g}, {MAX_ATTENUATION_STEP_DB:g}]")
        if not 0 <= self.phase_bits <= MAX_PHASE_BITS:
            raise ValueError(f"phase_bits must lie in 0..{MAX_PHASE_BITS}")

    @staticmethod
    def ideal() -> "TapImpairments":
        return TapImpairments(enabled=False)


def quantization_error_bound(magnitude: float, impairments: TapImpairments) -> float:
    """Upper bound on |quantized - ideal| for a tap of the given magnitude:
    magnitude * (10**(step/40) - 1 + pi / 2**phase_bits + rounding), with
    each grid term dropping out when its knob is continuous, and 0 when both
    do (tap_weights then gives the ideal weight exactly)."""
    if not impairments.enabled:
        return 0.0
    mag_term = 10.0 ** (impairments.attenuation_step_db / 40.0) - 1.0  # 0 at a step of 0
    phase_term = np.pi / 2.0 ** impairments.phase_bits if impairments.phase_bits > 0 else 0.0
    if mag_term + phase_term == 0.0 or magnitude == 0.0:
        return 0.0
    # the polar round trip's own rounding: a few eps, and a few more per unit
    # of |20 log10 magnitude| that the dB grid's log10/float_power pair scales
    rounding = np.finfo(np.float64).eps * (8.0 + abs(20.0 * math.log10(magnitude)))
    return magnitude * (mag_term + phase_term + rounding)


def _quantize(values: np.ndarray, impairments: TapImpairments) -> np.ndarray:
    """Round each weight's magnitude to the dB grid and its phase to the
    phase grid; zero weights stay zero.

    hypot and float_power round like the C library's scalar functions; the
    SIMD loops of numpy's abs and power can differ in the last bit, which
    moves a weight that sits on a grid boundary by a whole step.
    """
    mag = np.hypot(values.real, values.imag)
    phase = np.angle(values)
    with np.errstate(divide="ignore"):  # log10(0) = -inf maps back to 0
        if impairments.attenuation_step_db > 0.0:
            step = impairments.attenuation_step_db
            mag = np.float_power(10.0, np.round(20.0 * np.log10(mag) / step) * step / 20.0)
    if impairments.phase_bits > 0:
        step = 2.0 * np.pi / 2.0 ** impairments.phase_bits
        phase = np.round(phase / step) * step
    return np.where(values == 0.0, 0.0, mag * np.exp(1j * phase))


def tap_weights(
    si_at_chains: np.ndarray, impairments: TapImpairments | None = None
) -> np.ndarray:
    """The weight a tap routed to each chain pair gets: -si_at_chains, passed
    through the quantizer when impairments are enabled and its error bound
    is not 0 (the polar round trip would miss the ideal in the last bits)."""
    impairments = impairments or TapImpairments.ideal()
    ideal = -np.asarray(si_at_chains, dtype=np.complex128)
    return _quantize(ideal, impairments) if quantization_error_bound(1.0, impairments) else ideal


def set_tap_values(
    routing: TapRouting,
    si_at_chains: np.ndarray,
    impairments: TapImpairments | None = None,
) -> np.ndarray:
    """Tap weights that null the routed entries of the chain-level SI matrix.

    Tap j routed (tx, rx) gets -si_at_chains[rx-1, tx-1], then passes through
    the quantizer when impairments are enabled.
    """
    si_at_chains = np.asarray(si_at_chains, dtype=np.complex128)
    if si_at_chains.shape != (routing.rx_chains, routing.tx_chains):
        raise ValueError(
            f"si_at_chains must be {(routing.rx_chains, routing.tx_chains)}, "
            f"got {si_at_chains.shape}"
        )
    return tap_weights(si_at_chains, impairments)[routing.entries()]


def assemble_canceller(routing: TapRouting, values: np.ndarray) -> np.ndarray:
    """Chain-level canceller matrix C = L3 @ diag(values) @ L1, computed as a
    scatter: value j is added at row rx_j-1, column tx_j-1."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (routing.num_taps,):
        raise ValueError(f"need {routing.num_taps} tap values, got shape {values.shape}")
    c = np.zeros((routing.rx_chains, routing.tx_chains), dtype=np.complex128)
    np.add.at(c, routing.entries(), values)
    return c


def residual_stack(
    table: RoutingTable, si_at_chains: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Residual chain-level SI of every routing of the table, (R, rx_chains,
    tx_chains): si_at_chains plus the tap weight on each routed entry, as
    si_at_chains + assemble_canceller would give it."""
    return np.where(table.mask, si_at_chains + weights, si_at_chains)


def effective_si(
    w_rf: np.ndarray, h_si: np.ndarray, f_rf: np.ndarray, canceller: np.ndarray
) -> np.ndarray:
    """Residual chain-level SI after analog combining and cancellation:
    w_rf^H @ h_si @ f_rf + canceller."""
    w_rf = np.asarray(w_rf, dtype=np.complex128)
    h_si = np.asarray(h_si, dtype=np.complex128)
    f_rf = np.asarray(f_rf, dtype=np.complex128)
    canceller = np.asarray(canceller, dtype=np.complex128)
    if w_rf.shape[0] != h_si.shape[0] or h_si.shape[1] != f_rf.shape[0]:
        raise ValueError("w_rf, h_si, f_rf dimensions do not chain")
    if canceller.shape != (w_rf.shape[1], f_rf.shape[1]):
        raise ValueError("canceller shape must be (rx_chains, tx_chains)")
    return w_rf.conj().T @ h_si @ f_rf + canceller


@dataclass(frozen=True)
class CancellerConfig:
    """A fully-specified canceller instance for one trial."""

    routing: TapRouting
    values: np.ndarray
    impairments: TapImpairments = field(default_factory=TapImpairments.ideal)

    def matrix(self) -> np.ndarray:
        return assemble_canceller(self.routing, self.values)
