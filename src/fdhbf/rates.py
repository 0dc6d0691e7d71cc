"""Achievable-rate evaluation and the sampled-signal cross-check.

Rates are ergodic spectral efficiencies in bits/s/Hz for one channel draw.
Every log-determinant goes through the Hermitian-PD kernel in `numerics`.
The uplink rate log2 det(Q + B B^H) - log2 det(Q) keeps both factorizations
positive definite; the trial takes it against the chain-level
interference-plus-noise covariance, which the MMSE combiner attains.
"""

from dataclasses import dataclass

import numpy as np

from .beamforming import NodeConfig, residual_si_profile  # noqa: F401 (re-exported)
from .canceller import effective_si
from .channel import ChannelRealization
from .numerics import cmat, herm, hermitize, log2det_hpd

# not called here; kept bound because perfbench/tracing.py counts its calls
from .beamforming import capacity_precoder  # noqa: F401


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
    matrix rx_combiner^H @ h_ul @ f_ul and Q the combined IpN covariance,
    or the rate of each item of stacks of them."""
    return ul_rate_at_chains(herm(cmat(rx_combiner, stack=True)) @ cmat(h_ul, stack=True),
                             f_ul, ipn)


def ul_rate_at_chains(h_eff_ul: np.ndarray, f_ul: np.ndarray, ipn: np.ndarray) -> float:
    """ul_rate of the combined channel h_eff_ul = rx_combiner^H @ h_ul."""
    b = cmat(h_eff_ul, stack=True) @ cmat(f_ul, stack=True)
    q = hermitize(cmat(ipn, stack=True))
    return np.maximum(0.0, log2det_hpd(q + b @ herm(b)) - log2det_hpd(q))


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
    h_si_eff = effective_si(w_rf, channels.h_si, f_rf, canceller_matrix)
    si_at_chains = h_si_eff @ (f_bb @ dl_syms)
    si_power = np.mean(np.abs(si_at_chains) ** 2, axis=1)

    # combined uplink interference-plus-noise (signal term excluded)
    ipn = herm(w_bb) @ (si_at_chains + herm(w_rf) @ rx_noise)
    ipn_cov = (ipn @ herm(ipn)) / num_samples

    return SignalSampleStats(si_power, hermitize(ipn_cov), hermitize(dl_cov))
