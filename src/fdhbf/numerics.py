"""Dense complex linear algebra kernel shared by every other module.

Conventions enforced here so the rest of the package can stay terse:

* all matrices are ``numpy.ndarray`` with dtype complex128 (promoted on entry);
* log-determinants of Hermitian positive-definite matrices go through a
  triangular (Cholesky) factorization, never through ``det``;
* matrices that are Hermitian by construction are explicitly symmetrized as
  ``(A + A^H) / 2`` before factorization;
* if a factorization fails once, ``max(1e-15 * trace / dim, tiny)`` is added
  to the diagonal and the factorization retried; each such event is logged
  and counted in the caller's :func:`count_regularizations` scope, if open.
"""

import contextlib
import contextvars
import logging
import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

logger = logging.getLogger("fdhbf")

_REG_SCALE = 1e-15
_REG_FLOOR = np.finfo(np.float64).tiny
_scope = contextvars.ContextVar("fdhbf_regularization_scope", default=None)


@contextlib.contextmanager
def count_regularizations(cells: int | None = None):
    """Count this thread's (or task's) diagonal-regularization fallbacks in
    ``scope.events`` until the block ends: an int, or with `cells` one count
    per cell, where item i of a factored stack, which must have one item per
    cell, counts for cell i (or the cell :func:`stacked_cells` maps it to).
    An event counts in the innermost open scope only, else is only logged."""
    scope = SimpleNamespace(events=0 if cells is None else np.zeros(cells, dtype=int),
                            cells=slice(None))
    token = _scope.set(scope)
    try:
        yield scope
    finally:
        _scope.reset(token)


@contextlib.contextmanager
def stacked_cells(cells):
    """Within the block, item i of a factored stack is cell ``cells[i]`` of
    the innermost open per-cell scope."""
    scope = _scope.get() or SimpleNamespace(cells=None)
    saved, scope.cells = scope.cells, cells
    try:
        yield
    finally:
        scope.cells = saved


# =====================================================================
# basic helpers
# =====================================================================

def cmat(a, stack: bool = False) -> np.ndarray:
    """Promote input to a 2-D complex128 array, or with `stack` to a matrix
    or a stack of matrices (..., rows, cols) (no copy when possible)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or (m.ndim > 2 and not stack):
        raise ValueError(f"expected ndim {'>= 2' if stack else '2'}, got ndim={m.ndim}")
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


def at_least(low: int) -> tuple:
    return (f"must be >= {low}", lambda n: n >= low)


def within(low: float, high: float, unit: str) -> tuple:
    return (f"must lie in [{low:g}, {high:g}] {unit}", lambda x: low <= x <= high)  # NaN fails


def bound_problems(bounds: dict, values: dict) -> list[tuple[str, str]]:
    """(field, requirement) for each field whose value fails its bound."""
    return [(name, req) for name, (req, ok) in bounds.items() if not ok(values[name])]


class Bounded:
    """A record that states its fields' bounds once, in a BOUNDS table {field:
    (requirement, predicate)}, which its constructor and the config check."""

    def __post_init__(self):
        if problems := bound_problems(self.BOUNDS, vars(self)):
            raise ValueError("; ".join(f"{name} {req}" for name, req in problems))


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    """dBm of a nonnegative power, floored at 1e-40 W (-370 dBm) so that
    exact zeros stay representable in reports."""
    return 10.0 * np.log10(max(float(watts), 1e-40)) + 30.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# =====================================================================
# SVD
# =====================================================================

class SvdResult(NamedTuple):
    """SVD ``m = u @ diag_rect(s) @ herm(v)``, per matrix of a stack.

    u : (..., rows, rows) unitary, left singular vectors as columns
    s : (..., min(rows, cols)) nonnegative, descending
    v : (..., cols, cols) unitary, right singular vectors as columns
    A reduced SVD keeps the first min(rows, cols) columns of u and v.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd(m, full_matrices: bool = True) -> SvdResult:
    """Singular value decomposition of a matrix, or of each matrix of a
    stack (..., rows, cols), with validated input; without `full_matrices`
    u keeps only its first min(rows, cols) columns.

    Equal singular values keep whatever order the factorization produced;
    consumers must tolerate any orthonormal basis of a degenerate subspace.
    """
    m = cmat(m, stack=True)
    if m.size == 0:
        raise ValueError("cannot decompose an empty matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    u, s, vh = np.linalg.svd(m, full_matrices=full_matrices)
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
    """Cholesky factor of a Hermitian matrix, or of each of a stack
    (..., n, n); each item that fails is regularized once and counted."""
    a = hermitize(cmat(a, stack=True))
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    items, dim = a.reshape(-1, *a.shape[-2:]), a.shape[-1]
    failed = np.zeros(len(items), dtype=bool)
    for i, item in enumerate(items):
        try:
            np.linalg.cholesky(item)
        except np.linalg.LinAlgError:
            # floored so that an all-zero matrix gets a positive diagonal too
            bump = max(_REG_SCALE * np.real(np.trace(item)) / dim, _REG_FLOOR)
            logger.warning("regularized a singular factorization in %s", context)
            items[i], failed[i] = item + bump * np.eye(dim), True
    if (scope := _scope.get()) is not None and np.ndim(scope.events):
        if a.shape[:-2] != (cells := np.shape(scope.events[scope.cells])):
            raise ValueError(f"a stack of shape {a.shape[:-2]} does not match its cells, {cells}")
        np.add.at(scope.events, scope.cells, failed.reshape(cells))
    elif scope is not None:
        scope.events += int(failed.sum())
    return np.linalg.cholesky(a)  # each item factors as it would alone


def log2det_hpd(a):
    """log2 determinant of a Hermitian positive-definite matrix, or of each
    of a stack (..., n, n).

    Symmetrizes the input, factors it triangularly, and falls back once to a
    trace-scaled diagonal regularization if the factorization fails.
    """
    chol = _cholesky_with_retry(a, "log2det_hpd")
    return 2.0 * np.sum(np.log2(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)


def solve_hpd(a, b) -> np.ndarray:
    """Solve ``a x = b`` for Hermitian positive-definite ``a``, or for each
    pair of a stack (..., n, n), (..., n, k).

    Same regularize-once-and-retry policy as :func:`log2det_hpd`.  Raises
    ValueError when the solution is not finite (a regularized all-zero ``a``
    scales ``b`` by 1 / tiny, about 4.5e307).
    """
    chol = _cholesky_with_retry(a, "solve_hpd")
    y = np.linalg.solve(chol, np.asarray(b, dtype=np.complex128))
    x = np.linalg.solve(herm(chol), y)
    if not np.isfinite(x).all():
        raise ValueError("solve_hpd: the solution overflows float64")
    return x


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
    # a stable sort leaves rows that already descend, such as spectra, as they are
    ordered = bool(np.all(g[:, :-1] >= g[:, 1:]))
    if not ordered:
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
    powers = np.fmax(mu - inv, 0.0) * (k <= active)
    if not ordered:  # back to the input order
        powers[rows, order] = powers.copy()
    return powers.reshape(shape)
