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

from .numerics import Bounded, at_least, db_to_linear, within

# =====================================================================
# geometry and parameter records
# =====================================================================


@dataclass(frozen=True)
class ArrayGeometry(Bounded):
    """Uniform linear array: element count and spacing in wavelengths."""

    num_elements: int
    spacing_wavelengths: float = 0.5

    # bounds within which the steering phases stay finite
    BOUNDS = {
        "num_elements": at_least(1),
        "spacing_wavelengths": ("must lie in (0, 1e6] wavelengths", lambda s: 0.0 < s <= 1e6),
    }


# bounds within which the channel draws and every product of them a design
# forms stay finite, at any power the node's bounds admit
_PATHLOSS = within(-300.0, 1000.0, "dB")


@dataclass(frozen=True)
class ClusteredChannelParams(Bounded):
    num_clusters: int = 6
    rays_per_cluster: int = 8
    angle_spread_rad: float = np.deg2rad(10.0)  # per-ray Laplacian std dev
    pathloss_db: float = 110.0

    BOUNDS = {
        "num_clusters": at_least(1),
        "rays_per_cluster": at_least(1),
        # the Laplacian offsets reach ~26 spreads, which must stay finite
        "angle_spread_rad": within(0.0, 1e6, "rad"),
        "pathloss_db": _PATHLOSS,
    }


# the shortest TX-RX distance whose square is a normal float: below it the
# line-of-sight matrix's squared distances underflow and r_ref / r_mn is 0 / 0
MIN_SI_DISTANCE_WAVELENGTHS = 1e-150


@dataclass(frozen=True)
class SiChannelParams(Bounded):
    """Rician self-interference channel between co-located ULAs."""

    k_factor_db: float = 35.0
    pathloss_db: float = 40.0
    tx_rx_distance_wavelengths: float = 2.0
    tx_rx_angle_rad: float = np.pi / 6.0

    BOUNDS = {
        # +inf is a pure line-of-sight loopback, -inf pure scatter
        "k_factor_db": ("must lie in [-300, 300] dB or be +-inf",
                        lambda k: -300.0 <= k <= 300.0 or math.isinf(k)),
        "pathloss_db": _PATHLOSS,
        "tx_rx_distance_wavelengths": within(MIN_SI_DISTANCE_WAVELENGTHS, 1e6, "wavelengths"),
        "tx_rx_angle_rad": ("must be finite", math.isfinite),
    }


@dataclass(frozen=True)
class ChannelRealization:
    """One trial's channel draw, or a slab's stacks: each matrix below with a
    leading (draws,) axis, whose draw i is record[i].

    h_dl : (dl_rx_antennas, tx_antennas) node-to-DL-receiver channel
    h_ul : (rx_antennas, ul_tx_antennas) UL-transmitter-to-node channel
    h_si : (rx_antennas, tx_antennas) self-interference channel
    """

    h_dl: np.ndarray
    h_ul: np.ndarray
    h_si: np.ndarray

    def __getitem__(self, i) -> "ChannelRealization":
        return ChannelRealization(self.h_dl[i], self.h_ul[i], self.h_si[i])


# =====================================================================
# steering and clustered generation
# =====================================================================


def steering_vector(geometry: ArrayGeometry, angle_rad: float) -> np.ndarray:
    """Unit-norm ULA response, element l = exp(j*2*pi*s*l*sin(angle))/sqrt(n)."""
    return _steering_matrix(geometry, np.array([angle_rad]))[:, 0]


def _steering_matrix(geometry: ArrayGeometry, angles: np.ndarray) -> np.ndarray:
    """Steering vectors as columns, one per angle of the last axis, over any
    leading axes: (..., elements, angles)."""
    l = np.arange(geometry.num_elements)[:, None]
    phase = 2.0 * np.pi * geometry.spacing_wavelengths * l * np.sin(angles)[..., None, :]
    steering = 1j * phase
    np.exp(steering, out=steering)
    steering /= np.sqrt(geometry.num_elements)
    return steering


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
    return _from_paths(gains, rx_angles, tx_angles, geom_rx, geom_tx, pathloss_db)


def _from_paths(gains, rx_angles, tx_angles, geom_rx, geom_tx, pathloss_db) -> np.ndarray:
    """clustered_from_paths on checked (..., paths) arrays, over any leading
    axes: each item's product is its own BLAS call."""
    rows, cols = geom_rx.num_elements, geom_tx.num_elements
    a_rx = _steering_matrix(geom_rx, rx_angles)
    a_tx = _steering_matrix(geom_tx, tx_angles)
    gamma = np.sqrt(rows * cols * db_to_linear(-pathloss_db) / gains.shape[-1])
    a_rx *= gains[..., None, :]
    h = a_rx @ np.conjugate(a_tx, out=a_tx).swapaxes(-1, -2)
    h *= gamma
    return h


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
    return _clustered_slab(geom_rx, geom_tx, params, [rng])[0]


def _path_draws(params: ClusteredChannelParams, rng: np.random.Generator) -> tuple:
    """clustered_channel's random calls, in its draw order: RX centers, TX
    centers, RX offsets, TX offsets, then the path gains' standard normals
    (2, clusters, rays), real parts then imaginary."""
    nc, nr = params.num_clusters, params.rays_per_cluster
    scale = params.angle_spread_rad / np.sqrt(2.0)  # Laplace scale for given std
    rx_centers = rng.uniform(-np.pi / 2.0, np.pi / 2.0, nc)
    tx_centers = rng.uniform(-np.pi / 2.0, np.pi / 2.0, nc)
    rx_off = rng.laplace(0.0, scale, (nc, nr)) if scale > 0 else np.zeros((nc, nr))
    tx_off = rng.laplace(0.0, scale, (nc, nr)) if scale > 0 else np.zeros((nc, nr))
    return rx_centers, tx_centers, rx_off, tx_off, rng.standard_normal((2, nc, nr))


def _clustered_slab(geom_rx, geom_tx, params, rngs) -> np.ndarray:
    """clustered_channel of each generator of a slab, (len(rngs), rows, cols):
    the random calls per generator, the arithmetic over the slab as one stack."""
    rx_centers, tx_centers, rx_off, tx_off, normals = map(
        np.stack, zip(*(_path_draws(params, rng) for rng in rngs)))
    gains = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0)
    rx_angles = rx_centers[..., None] + rx_off
    tx_angles = tx_centers[..., None] + tx_off
    b = len(rngs)
    return _from_paths(gains.reshape(b, -1), rx_angles.reshape(b, -1),
                       tx_angles.reshape(b, -1), geom_rx, geom_tx, params.pathloss_db)


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
    return _rician_slab(geom_rx, geom_tx, params, [rng])[0]


def _rician_slab(geom_rx, geom_tx, params, rngs) -> np.ndarray:
    """rician_si_channel of each generator of a slab, (len(rngs), rows, cols):
    the scatter drawn per generator, real parts then imaginary, and the mix
    over the slab as one stack, a fresh, writable matrix per draw."""
    rows, cols = geom_rx.num_elements, geom_tx.num_elements
    normals = np.empty((len(rngs), 2, rows, cols))
    for rng, out in zip(rngs, normals):
        rng.standard_normal(out=out)
    target = rows * cols * db_to_linear(-params.pathloss_db)
    nlos = np.multiply(1j, normals[:, 1])
    nlos += normals[:, 0]  # re + 1j * im, with no temporary
    nlos /= np.sqrt(2.0)
    nlos *= np.sqrt(target / (rows * cols))
    los = si_los_matrix(geom_rx, geom_tx, params)
    los = los * (np.sqrt(target) / np.linalg.norm(los))
    k = db_to_linear(params.k_factor_db)
    if np.isinf(k):  # pure line of sight, in each draw's own buffer
        nlos[...] = los
        return nlos
    nlos *= np.sqrt(1.0 / (k + 1.0))
    nlos += np.sqrt(k / (k + 1.0)) * los
    return nlos


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
