"""Achievable-rate evaluation and the sampled-signal cross-check.

Rates are ergodic spectral efficiencies in bits/s/Hz for one channel draw.
Every log-determinant goes through the Hermitian-PD kernel in `numerics`;
the uplink determinant ratio is evaluated as
log2 det(Q + B B^H) - log2 det(Q) so both factorizations stay positive
definite.
"""

from dataclasses import dataclass

import numpy as np

from .beamforming import (
    NodeConfig,
    best_rx_beams,
    best_tx_beams,
    capacity_precoder,
    design_ul_combiner,
    design_ul_precoder,
)
from .channel import ChannelRealization
from .codebook import BeamCodebook
from .numerics import cmat, herm, hermitize, log2det_hpd


@dataclass(frozen=True)
class RateRecord:
    """Per-trial rate summary."""

    dl_rate_bpshz: float
    ul_rate_bpshz: float
    fd_sum_bpshz: float
    hd_rate_bpshz: float
    max_residual_si_w: float  # worst RX chain's residual SI power
    feasible: bool


# =====================================================================
# closed-form rates
# =====================================================================


def dl_rate(h_dl: np.ndarray, tx_precoder: np.ndarray, dl_noise_w: float) -> float:
    """Downlink rate log2 det(I + h f f^H h^H / noise); the DL receiver sees
    no interference, so its covariance is white."""
    b = cmat(h_dl) @ cmat(tx_precoder)
    m = np.eye(b.shape[0]) + (b @ herm(b)) / dl_noise_w
    return max(0.0, log2det_hpd(m))


def ul_ipn_covariance(
    w_bb: np.ndarray,
    w_rf: np.ndarray,
    h_si_eff: np.ndarray,
    f_bb: np.ndarray,
    rx_noise_w: float,
) -> np.ndarray:
    """Interference-plus-noise covariance after digital combining:
    w_bb^H (h_si_eff f_bb f_bb^H h_si_eff^H + noise * w_rf^H w_rf) w_bb."""
    w_bb, w_rf = cmat(w_bb), cmat(w_rf)
    leak = herm(w_bb) @ cmat(h_si_eff) @ cmat(f_bb)
    noise = rx_noise_w * (herm(w_bb) @ (herm(w_rf) @ w_rf) @ w_bb)
    return hermitize(leak @ herm(leak) + noise)


def ul_rate(
    rx_combiner: np.ndarray, h_ul: np.ndarray, f_ul: np.ndarray, ipn: np.ndarray
) -> float:
    """Uplink rate log2 det(I + B B^H Q^{-1}) with B the combined signal
    matrix rx_combiner^H @ h_ul @ f_ul and Q the combined IpN covariance."""
    b = herm(cmat(rx_combiner)) @ cmat(h_ul) @ cmat(f_ul)
    q = hermitize(cmat(ipn))
    return max(0.0, log2det_hpd(q + b @ herm(b)) - log2det_hpd(q))


def residual_si_profile(h_si_eff: np.ndarray, f_bb: np.ndarray) -> np.ndarray:
    """Residual SI power arriving at each RX chain: squared row norms of
    h_si_eff @ f_bb."""
    return np.sum(np.abs(cmat(h_si_eff) @ cmat(f_bb)) ** 2, axis=1)


def residual_si_power(h_si_eff: np.ndarray, f_bb: np.ndarray, rx_chain: int) -> float:
    """Residual SI power at one RX chain (0-based index)."""
    profile = residual_si_profile(h_si_eff, f_bb)
    if not (0 <= rx_chain < profile.size):
        raise ValueError(f"rx_chain must lie in 0..{profile.size - 1}")
    return float(profile[rx_chain])


# =====================================================================
# sampled-signal oracle
# =====================================================================


@dataclass(frozen=True, eq=False)
class SignalSampleStats:
    si_power_per_chain: np.ndarray  # (rx_chains,) mean |SI sample|^2
    ul_ipn_estimate: np.ndarray     # (ul_streams, ul_streams) sample covariance
    dl_rx_covariance: np.ndarray    # (dl_rx_antennas, dl_rx_antennas)


def _cn_samples(rng, rows, cols, variance=1.0):
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def signal_sample_stats(
    channels: ChannelRealization,
    cfg: NodeConfig,
    f_rf: np.ndarray,
    f_bb: np.ndarray,
    w_rf: np.ndarray,
    w_bb: np.ndarray,
    f_ul: np.ndarray,
    canceller_matrix: np.ndarray,
    num_samples: int,
    rng: np.random.Generator,
) -> SignalSampleStats:
    """Monte-Carlo pass through the transmit/receive equations.

    Draws unit-power data symbols and thermal noise (order: DL symbols, UL
    symbols, node RX noise, DL RX noise), pushes them through the analog and
    digital stages, and returns empirical statistics that the closed forms
    must reproduce: per-RX-chain SI power at the chain outputs, the combined
    uplink interference-plus-noise covariance, and the DL receive covariance.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    f_rf, f_bb = cmat(f_rf), cmat(f_bb)
    w_rf, w_bb = cmat(w_rf), cmat(w_bb)
    f_ul = cmat(f_ul)

    dl_syms = _cn_samples(rng, f_bb.shape[1], num_samples)
    ul_syms = _cn_samples(rng, f_ul.shape[1], num_samples)
    rx_noise = _cn_samples(rng, cfg.rx_antennas, num_samples, cfg.rx_noise_w)
    dl_noise = _cn_samples(rng, cfg.dl_rx_antennas, num_samples, cfg.dl_rx_noise_w)

    # downlink receive vector
    dl_rx = channels.h_dl @ (f_rf @ (f_bb @ dl_syms)) + dl_noise
    dl_cov = (dl_rx @ herm(dl_rx)) / num_samples

    # chain-level SI after analog combining and cancellation
    h_si_eff = herm(w_rf) @ channels.h_si @ f_rf + cmat(canceller_matrix)
    si_at_chains = h_si_eff @ (f_bb @ dl_syms)
    si_power = np.mean(np.abs(si_at_chains) ** 2, axis=1)

    # combined uplink interference-plus-noise (signal term excluded)
    ipn = herm(w_bb) @ (si_at_chains + herm(w_rf) @ rx_noise)
    ipn_cov = (ipn @ herm(ipn)) / num_samples

    return SignalSampleStats(si_power, hermitize(ipn_cov), hermitize(dl_cov))


# =====================================================================
# half-duplex baseline
# =====================================================================


def hd_baseline_rate(
    channels: ChannelRealization,
    cfg: NodeConfig,
    codebook_tx: BeamCodebook,
    codebook_rx: BeamCodebook,
) -> float:
    """Half-duplex reference: each direction is designed alone (no SI, no
    residual budget, no canceller) and gets half the air time.

    Downlink half: per-chain max-gain TX beams, unrestricted water-filled
    digital precoder.  Uplink half: per-chain max-gain RX beams, water-filled
    (or full-power scalar) UL precoder, MMSE combiner against noise only.
    """
    f_rf = best_tx_beams(channels.h_dl, codebook_tx, cfg.tx_chains)
    f_bb = capacity_precoder(channels.h_dl @ f_rf.matrix, cfg.tx_power_w, cfg.dl_rx_noise_w)
    rate_dl = dl_rate(channels.h_dl, f_rf.matrix @ f_bb, cfg.dl_rx_noise_w)

    w_rf = best_rx_beams(channels.h_ul, codebook_rx, cfg.rx_chains)
    h_eff_ul = herm(w_rf.matrix) @ channels.h_ul
    f_ul = design_ul_precoder(h_eff_ul, cfg.ul_tx_power_w, cfg.rx_noise_w)
    noise_only = cfg.rx_noise_w * hermitize(herm(w_rf.matrix) @ w_rf.matrix)
    w_bb = design_ul_combiner(h_eff_ul, f_ul, noise_only)
    ipn = ul_ipn_covariance(
        w_bb, w_rf.matrix, np.zeros((cfg.rx_chains, cfg.tx_chains)),
        np.zeros((cfg.tx_chains, 1)), cfg.rx_noise_w,
    )
    rate_ul = ul_rate(w_rf.matrix @ w_bb, channels.h_ul, f_ul, ipn)

    return 0.5 * rate_dl + 0.5 * rate_ul
