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
    """Full SVD ``m = u @ diag_rect(s) @ herm(v)``.

    u : (rows, rows) unitary, left singular vectors as columns
    s : (min(rows, cols),) nonnegative, descending
    v : (cols, cols) unitary, right singular vectors as columns
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd(m) -> SvdResult:
    """Full singular value decomposition with validated input.

    Equal singular values keep whatever order the factorization produced;
    consumers must tolerate any orthonormal basis of a degenerate subspace.
    """
    m = cmat(m)
    if m.size == 0:
        raise ValueError("cannot decompose an empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    return SvdResult(u, s, herm(vh))


def numerical_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Rank from a singular spectrum, numpy's default tolerance."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = s[0] * max(shape) * np.finfo(np.float64).eps
    return int(np.count_nonzero(s > tol))


# =====================================================================
# Hermitian positive-definite factorizations
# =====================================================================

def _cholesky_with_retry(a: np.ndarray, context: str) -> np.ndarray:
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
    return float(2.0 * np.sum(np.log2(np.real(np.diag(chol)))))


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
    """Optimal power split maximizing ``sum(log2(1 + g_i * p_i))``.

    Parameters
    ----------
    gains : array_like of positive floats
        Effective mode gains (channel gain over noise).
    total_power : float
        Nonnegative power budget; the output sums to it exactly when any
        gain is positive.

    Returns
    -------
    powers : ndarray, same order as `gains`, entries >= 0.

    Active modes satisfy ``p_i = mu - 1/g_i`` for the common water level mu;
    inactive modes get exactly 0.
    """
    g = np.asarray(gains, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gains must be a nonempty 1-D array")
    if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
        raise ValueError("gains must be finite and strictly positive")
    if not np.isfinite(total_power) or total_power < 0.0:
        raise ValueError("total_power must be finite and nonnegative")

    order = np.argsort(-g, kind="stable")
    inv = 1.0 / g[order]
    # shrink the active set until the water level covers its worst mode
    k = g.size
    csum = np.cumsum(inv)
    while k > 1:
        mu = (total_power + csum[k - 1]) / k
        if mu >= inv[k - 1]:
            break
        k -= 1
    mu = (total_power + csum[k - 1]) / k
    powers_sorted = np.zeros_like(inv)
    powers_sorted[:k] = np.maximum(mu - inv[:k], 0.0)

    powers = np.zeros_like(powers_sorted)
    powers[order] = powers_sorted
    return powers
