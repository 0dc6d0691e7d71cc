"""Random channel generation: clustered mmWave links and the near-field
Rician self-interference channel of a co-located TX/RX array pair.

All distances are expressed in carrier wavelengths, all angles in radians.
Pathloss enters only through the normalization: a generator configured with
pathloss L dB produces matrices whose ensemble-mean squared Frobenius norm is
``rows * cols * 10**(-L/10)``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import db_to_linear

# =====================================================================
# geometry and parameter records
# =====================================================================


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    num_elements: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError("num_elements must be >= 1")
        if not (math.isfinite(self.spacing_wavelengths) and self.spacing_wavelengths > 0.0):
            raise ValueError("spacing_wavelengths must be finite and > 0")


@dataclass(frozen=True)
class ClusteredChannelParams:
    num_clusters: int = 6
    rays_per_cluster: int = 8
    angle_spread_rad: float = np.deg2rad(10.0)  # per-ray Laplacian std dev
    pathloss_db: float = 110.0

    def __post_init__(self):
        if self.num_clusters < 1 or self.rays_per_cluster < 1:
            raise ValueError("cluster and ray counts must be >= 1")
        if not (math.isfinite(self.angle_spread_rad) and self.angle_spread_rad >= 0.0):
            raise ValueError("angle_spread_rad must be finite and >= 0")
        if not math.isfinite(self.pathloss_db):
            raise ValueError("pathloss_db must be finite")


# the shortest TX-RX distance whose square is a normal float: below it the
# line-of-sight matrix's squared distances underflow and r_ref / r_mn is 0 / 0
MIN_SI_DISTANCE_WAVELENGTHS = 1e-150


@dataclass(frozen=True)
class SiChannelParams:
    """Rician self-interference channel between co-located ULAs."""

    k_factor_db: float = 35.0
    pathloss_db: float = 40.0
    tx_rx_distance_wavelengths: float = 2.0
    tx_rx_angle_rad: float = np.pi / 6.0

    def __post_init__(self):
        if not MIN_SI_DISTANCE_WAVELENGTHS <= self.tx_rx_distance_wavelengths < math.inf:
            raise ValueError("tx_rx_distance_wavelengths must be finite and "
                             f">= {MIN_SI_DISTANCE_WAVELENGTHS:g}")
        if not (math.isfinite(self.pathloss_db) and math.isfinite(self.tx_rx_angle_rad)):
            raise ValueError("pathloss_db and tx_rx_angle_rad must be finite")
        if math.isnan(self.k_factor_db):  # +-inf: pure line of sight / scatter
            raise ValueError("k_factor_db must not be NaN")


@dataclass(frozen=True)
class ChannelRealization:
    """One trial's channel draw.

    h_dl : (dl_rx_antennas, tx_antennas) node-to-DL-receiver channel
    h_ul : (rx_antennas, ul_tx_antennas) UL-transmitter-to-node channel
    h_si : (rx_antennas, tx_antennas) self-interference channel
    """

    h_dl: np.ndarray
    h_ul: np.ndarray
    h_si: np.ndarray


# =====================================================================
# steering and clustered generation
# =====================================================================


def steering_vector(geometry: ArrayGeometry, angle_rad: float) -> np.ndarray:
    """Unit-norm ULA response, element l = exp(j*2*pi*s*l*sin(angle))/sqrt(n)."""
    return _steering_matrix(geometry, np.array([angle_rad]))[:, 0]


def _steering_matrix(geometry: ArrayGeometry, angles: np.ndarray) -> np.ndarray:
    """Steering vectors as columns, one per angle."""
    l = np.arange(geometry.num_elements)[:, None]
    phase = 2.0 * np.pi * geometry.spacing_wavelengths * l * np.sin(angles)[None, :]
    return np.exp(1j * phase) / np.sqrt(geometry.num_elements)


def clustered_from_paths(
    path_gains: np.ndarray,
    rx_angles: np.ndarray,
    tx_angles: np.ndarray,
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
    pathloss_db: float,
) -> np.ndarray:
    """Assemble a clustered channel from explicit per-path gains and angles.

    The normalization gamma makes the ensemble mean ||H||_F^2 over unit-power
    i.i.d. path gains equal rows*cols*10**(-pathloss/10).
    """
    gains = np.asarray(path_gains, dtype=np.complex128).ravel()
    rx_angles = np.asarray(rx_angles, dtype=np.float64).ravel()
    tx_angles = np.asarray(tx_angles, dtype=np.float64).ravel()
    if not (gains.size == rx_angles.size == tx_angles.size):
        raise ValueError("path gains and angle lists must have equal length")
    if gains.size == 0:
        raise ValueError("at least one path is required")
    rows, cols = geom_rx.num_elements, geom_tx.num_elements
    a_rx = _steering_matrix(geom_rx, rx_angles)
    a_tx = _steering_matrix(geom_tx, tx_angles)
    gamma = np.sqrt(rows * cols * db_to_linear(-pathloss_db) / gains.size)
    return gamma * ((a_rx * gains[None, :]) @ a_tx.conj().T)


def clustered_channel(
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
    params: ClusteredChannelParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a clustered multipath channel matrix, (rx elements, tx elements).

    Cluster center angles are uniform on [-pi/2, pi/2] independently per side;
    per-ray offsets are Laplacian with the configured standard deviation; path
    gains are i.i.d. unit-variance circular complex Gaussians.

    Draw order (fixed for reproducibility): RX centers, TX centers, RX
    offsets, TX offsets, then path gains.
    """
    nc, nr = params.num_clusters, params.rays_per_cluster
    scale = params.angle_spread_rad / np.sqrt(2.0)  # Laplace scale for given std
    rx_centers = rng.uniform(-np.pi / 2.0, np.pi / 2.0, nc)
    tx_centers = rng.uniform(-np.pi / 2.0, np.pi / 2.0, nc)
    rx_off = rng.laplace(0.0, scale, (nc, nr)) if scale > 0 else np.zeros((nc, nr))
    tx_off = rng.laplace(0.0, scale, (nc, nr)) if scale > 0 else np.zeros((nc, nr))
    gains = (rng.standard_normal((nc, nr)) + 1j * rng.standard_normal((nc, nr))) / np.sqrt(2.0)
    rx_angles = rx_centers[:, None] + rx_off
    tx_angles = tx_centers[:, None] + tx_off
    return clustered_from_paths(
        gains, rx_angles, tx_angles, geom_rx, geom_tx, params.pathloss_db
    )


# =====================================================================
# near-field Rician self-interference
# =====================================================================


def _element_positions(
    geom_tx: ArrayGeometry, geom_rx: ArrayGeometry, params: SiChannelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Coplanar layout: TX ULA along +x from the origin; the RX reference
    element sits at distance d perpendicular to the TX axis, and the RX axis
    is rotated by the configured angle relative to the TX axis."""
    tx_idx = np.arange(geom_tx.num_elements)
    rx_idx = np.arange(geom_rx.num_elements)
    tx_pos = np.stack([tx_idx * geom_tx.spacing_wavelengths, np.zeros_like(tx_idx, dtype=float)], axis=1)
    w = params.tx_rx_angle_rad
    axis = np.array([np.cos(w), np.sin(w)])
    origin = np.array([0.0, params.tx_rx_distance_wavelengths])
    rx_pos = origin[None, :] + rx_idx[:, None] * geom_rx.spacing_wavelengths * axis[None, :]
    return tx_pos, rx_pos


@functools.lru_cache(maxsize=16)
def si_los_matrix(
    geom_rx: ArrayGeometry, geom_tx: ArrayGeometry, params: SiChannelParams
) -> np.ndarray:
    """Deterministic near-field line-of-sight component, unnormalized.

    Entry (m, n) = (r_ref / r_mn) * exp(-j*2*pi*r_mn) with r_mn the distance
    between RX element m and TX element n and r_ref the minimum distance, so
    the strongest entry has unit magnitude.  The matrix is read-only: it is
    built once per (geometry pair, SI parameters) and shared by every later
    call.
    """
    tx_pos, rx_pos = _element_positions(geom_tx, geom_rx, params)
    diff = rx_pos[:, None, :] - tx_pos[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    r_ref = dist.min()
    los = (r_ref / dist) * np.exp(-2j * np.pi * dist)
    los.flags.writeable = False
    return los


def rician_si_channel(
    geom_rx: ArrayGeometry,
    geom_tx: ArrayGeometry,
    params: SiChannelParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the self-interference channel, (rx elements, tx elements).

    Rician mixture of the deterministic near-field LOS matrix and an i.i.d.
    Rayleigh scattered part, each normalized so the ensemble mean ||H||_F^2 is
    rows * cols * 10**(-pathloss/10) for every K factor.
    """
    rows, cols = geom_rx.num_elements, geom_tx.num_elements
    target = rows * cols * db_to_linear(-params.pathloss_db)
    nlos = (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)
    nlos *= np.sqrt(target / (rows * cols))
    los = si_los_matrix(geom_rx, geom_tx, params)
    los = los * (np.sqrt(target) / np.linalg.norm(los))  # a fresh, writable copy
    k = db_to_linear(params.k_factor_db)
    if np.isinf(k):
        return los
    return np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * nlos


# =====================================================================
# debug dumps
# =====================================================================


def dump_matrix(path, m: np.ndarray) -> None:
    """Write a matrix as text: a `rows cols` header, then one `re im` line
    per entry in row-major order. Round-trips exactly through load_matrix."""
    m = np.asarray(m, dtype=np.complex128)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for val in m.ravel(order="C"):
            fh.write(f"{float(val.real)!r} {float(val.imag)!r}\n")


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        rows, cols = (int(tok) for tok in fh.readline().split())
        data = np.empty(rows * cols, dtype=np.complex128)
        for i in range(rows * cols):
            re, im = (float(tok) for tok in fh.readline().split())
            data[i] = complex(re, im)
    return data.reshape(rows, cols)
