"""Dense complex linear algebra kernel shared by every other module.

Conventions enforced here so the rest of the package can stay terse:

* all matrices are ``numpy.ndarray`` with dtype complex128 (promoted on entry);
* log-determinants of Hermitian positive-definite matrices go through a
  triangular (Cholesky) factorization, never through ``det``;
* matrices that are Hermitian by construction are explicitly symmetrized as
  ``(A + A^H) / 2`` before factorization;
* if a factorization fails once, ``1e-15 * trace / dim`` is added to the
  diagonal and the factorization retried; each such event is counted and
  logged so callers can surface it.
"""

import logging
import math
from typing import NamedTuple

import numpy as np

logger = logging.getLogger("fdhbf")

_REG_SCALE = 1e-15
_regularization_events = 0


def regularization_count() -> int:
    """Number of diagonal-regularization fallbacks since the last reset."""
    return _regularization_events


def reset_regularization_count() -> None:
    global _regularization_events
    _regularization_events = 0


def _bump_regularization(context: str) -> None:
    global _regularization_events
    _regularization_events += 1
    logger.warning("regularized a singular factorization in %s", context)


# =====================================================================
# basic helpers
# =====================================================================

def cmat(a) -> np.ndarray:
    """Promote input to a 2-D complex128 array (no copy when possible)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def cstack(a) -> np.ndarray:
    """Promote input to a complex128 matrix or stack of matrices, shape
    (..., rows, cols) (no copy when possible)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    return m


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian transpose. An involution: herm(herm(a)) == a."""
    return np.conj(np.swapaxes(a, -2, -1))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (A + A^H) / 2."""
    return 0.5 * (a + herm(a))


# Configured powers, noise floors and budgets lie within +-DBM_LIMIT dBm: their
# watts, and the products of them a design forms, stay finite and nonzero.
DBM_LIMIT = 300.0


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float, floor_watts: float = 1e-40) -> float:
    """dBm of a nonnegative power; values below `floor_watts` are floored.

    The floor (-370 dBm) keeps exact zeros representable in reports.
    """
    return 10.0 * np.log10(max(float(watts), floor_watts)) + 30.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# =====================================================================
# SVD
# =====================================================================

class SvdResult(NamedTuple):
    """Full SVD ``m = u @ diag_rect(s) @ herm(v)``, per matrix of a stack.

    u : (..., rows, rows) unitary, left singular vectors as columns
    s : (..., min(rows, cols)) nonnegative, descending
    v : (..., cols, cols) unitary, right singular vectors as columns
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd(m) -> SvdResult:
    """Full singular value decomposition of a matrix, or of each matrix of a
    stack (..., rows, cols), with validated input.

    Equal singular values keep whatever order the factorization produced;
    consumers must tolerate any orthonormal basis of a degenerate subspace.
    """
    m = cstack(m)
    if m.size == 0:
        raise ValueError("cannot decompose an empty matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    return SvdResult(u, s, herm(vh))


def rank_mask(s: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Which singular values of a spectrum (..., k) of (rows, cols) matrices
    count toward the numerical rank, numpy's default tolerance; a prefix of
    each descending spectrum, empty for an all-zero one."""
    s = np.asarray(s)
    return s > s[..., :1] * (max(shape) * np.finfo(np.float64).eps)


# =====================================================================
# Hermitian positive-definite factorizations
# =====================================================================

def _cholesky_with_retry(a: np.ndarray, context: str) -> np.ndarray:
    """Cholesky factor of a Hermitian matrix, regularized once on failure."""
    a = hermitize(cmat(a))
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        dim = a.shape[0]
        bump = _REG_SCALE * max(np.real(np.trace(a)), 0.0) / max(dim, 1)
        _bump_regularization(context)
        return np.linalg.cholesky(a + bump * np.eye(dim))


def log2det_hpd(a) -> float:
    """log2 determinant of a Hermitian positive-definite matrix.

    Symmetrizes the input, factors it triangularly, and falls back once to a
    trace-scaled diagonal regularization if the factorization fails.
    """
    chol = _cholesky_with_retry(a, "log2det_hpd")
    return float(2.0 * np.sum(np.log2(np.real(np.diagonal(chol)))))


def solve_hpd(a, b) -> np.ndarray:
    """Solve ``a x = b`` for Hermitian positive-definite ``a``.

    Same regularize-once-and-retry policy as :func:`log2det_hpd`.
    """
    chol = _cholesky_with_retry(a, "solve_hpd")
    b = np.asarray(b, dtype=np.complex128)
    y = np.linalg.solve(chol, b)
    return np.linalg.solve(herm(chol), y)


# =====================================================================
# water-filling
# =====================================================================

def waterfill(gains, total_power: float) -> np.ndarray:
    """Optimal power split maximizing ``sum(log2(1 + g_i * p_i))``, for one
    set of modes or for each row of a stack.

    Parameters
    ----------
    gains : array_like of nonnegative floats, shape (..., modes)
        Effective mode gains (channel gain over noise).  A zero gain marks a
        mode that does not exist, so rows of a stack can hold different
        numbers of modes.
    total_power : float
        Nonnegative power budget, the same for every row.  A row with a
        positive gain sums to it up to the cancellation in ``mu - 1/g_i``:
        within a few eps * (total_power + sum(1/g_i) over active modes), so
        a far smaller budget is lost (``waterfill([1.0], 1e-205)`` is [0.]).

    Returns
    -------
    powers : ndarray, same shape and order as `gains`, entries >= 0.

    Active modes satisfy ``p_i = mu - 1/g_i`` for the row's water level mu;
    inactive modes, zero-gain modes among them, get exactly 0.
    """
    g = np.asarray(gains, dtype=np.float64)
    if g.ndim == 0 or g.shape[-1] == 0:
        raise ValueError("gains must be a nonempty array of modes")
    if not (g.min() >= 0.0 and g.max() < np.inf):  # NaN fails both
        raise ValueError("gains must be finite and nonnegative")
    if not (math.isfinite(total_power) and total_power >= 0.0):
        raise ValueError("total_power must be finite and nonnegative")

    shape = g.shape
    g = g.reshape(-1, shape[-1])
    order = np.argsort(-g, axis=-1, kind="stable")
    rows = np.arange(g.shape[0])[:, None]
    g = g[rows, order]
    # zero gains sort last; as NaN they fail every water-level test below
    inv = 1.0 / np.where(g > 0.0, g, np.nan)
    k = np.arange(1, g.shape[-1] + 1)
    level = (total_power + inv.cumsum(axis=-1)) / k  # water level of the k strongest
    # the active set is the largest k whose level covers its worst mode, else
    # the single strongest mode; mu is its water level
    active = ((level >= inv) * k).max(axis=-1, initial=1, keepdims=True)
    mu = np.where(k == active, level, -np.inf).max(axis=-1, keepdims=True)
    sorted_powers = np.fmax(mu - inv, 0.0) * (k <= active)
    powers = np.empty_like(sorted_powers)
    powers[rows, order] = sorted_powers  # back to the input order
    return powers.reshape(shape)
