"""Tests for the dense complex kernel: SVD, log-det, water-filling, units."""

import logging
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdhbf.numerics import (
    col_norm2,
    count_regularizations,
    db_to_linear,
    dbm_to_watts,
    herm,
    hermitize,
    log2det_hpd,
    rank_mask,
    solve_hpd,
    stacked_cells,
    svd,
    waterfill,
    watts_to_dbm,
)

import exact
from conftest import crandn


# =====================================================================
# unit conversions
# =====================================================================


def test_dbm_watts_round_trip():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)
    for dbm in (-47.0, -110.0, 0.0, 40.0):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)


def test_watts_to_dbm_floor():
    # zero (or impossibly small) power is clamped instead of returning -inf
    assert watts_to_dbm(0.0) == -370.0
    assert watts_to_dbm(1e-300) == -370.0
    assert np.isfinite(watts_to_dbm(1e-39))


def test_db_to_linear():
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    assert db_to_linear(0.0) == 1.0


def test_herm_is_involution(rng):
    a = crandn(rng, 3, 5)
    assert np.array_equal(herm(herm(a)), a)


def test_hermitize_output_is_hermitian(rng):
    a = crandn(rng, 4, 4)
    h = hermitize(a)
    assert np.allclose(h, herm(h), atol=1e-15)


def test_col_norm2_is_the_sum_np_linalg_norm_takes(rng):
    # the routing pick's stream count and the uplink combiner's normalization
    # keep np.linalg.norm's bits only if its square root of this sum is theirs
    a = crandn(rng, 3, 5, 4)
    a[1, :, 2] = 0.0
    assert np.array_equal(np.sqrt(col_norm2(a)), np.linalg.norm(a, axis=-2))
    assert np.array_equal(col_norm2(a) > 0.0, np.linalg.norm(a, axis=-2) > 0.0)


# =====================================================================
# SVD wrapper
# =====================================================================


class TestSvd:
    def test_identity_singular_values(self):
        res = svd(np.eye(2))
        assert np.allclose(res.s, [1.0, 1.0], atol=1e-12)

    def test_diagonal_case(self):
        res = svd(np.diag([3.0, 0.0]))
        assert np.allclose(res.s, [3.0, 0.0], atol=1e-12)
        # right singular vectors of a diagonal matrix are the standard basis
        assert np.allclose(np.abs(res.v), np.eye(2), atol=1e-12)

    def test_reconstruction(self, rng):
        for _ in range(20):
            m = crandn(rng, 3, 2)
            res = svd(m)
            smat = np.zeros((3, 2))
            smat[:2, :2] = np.diag(res.s)
            rebuilt = res.u @ smat @ herm(res.v)
            err = np.linalg.norm(rebuilt - m) / np.linalg.norm(m)
            assert err < 1e-10

    def test_descending_order(self, rng):
        s = svd(crandn(rng, 6, 4)).s
        assert np.all(np.diff(s) <= 0)

    def test_unitary_input_all_ones(self, rng):
        q, _ = np.linalg.qr(crandn(rng, 5, 5))
        assert np.allclose(svd(q).s, np.ones(5), atol=1e-10)

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            svd(bad)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(*(np.ascontiguousarray(x).view(np.uint64)
                                                   for x in (a, b)))


@pytest.mark.parametrize("shape,full_matrices", [
    ((2, 4), True), ((4, 3), True), ((4, 3), False), ((4, 4), True)])
def test_svd_of_a_stack_matches_each_matrix(rng, shape, full_matrices):
    """Random matrices under two leading axes, some with a zeroed row and
    some all zero: u, s and v equal each matrix's own np.linalg.svd bit for
    bit."""
    stack = crandn(rng, 3, 40, *shape)
    stack[:, 5::7, 1] = 0.0  # rank-deficient
    stack[:, 3::11] = 0.0
    dec = svd(stack, full_matrices)
    assert dec.s.shape == (3, 40, min(shape))
    for index in np.ndindex(stack.shape[:2]):
        u, s, vh = np.linalg.svd(stack[index], full_matrices=full_matrices)
        assert same_bits(dec.s[index], s) and same_bits(dec.v[index], herm(vh))
        assert same_bits(dec.u[index], u)
    stack[1, 3, 1, 2] = np.nan
    with pytest.raises(ValueError):
        svd(stack)


def test_numerical_rank(rng):
    m = crandn(rng, 4, 3)
    full = svd(m)
    assert rank_mask(full.s, m.shape).sum() == 3
    assert rank_mask(svd(np.zeros((4, 3))).s, (4, 3)).sum() == 0
    # rank-1 outer product
    a, b = crandn(rng, 4), crandn(rng, 3)
    assert rank_mask(svd(np.outer(a, b)).s, (4, 3)).sum() == 1


# =====================================================================
# log-determinant of Hermitian positive definite forms
# =====================================================================


class TestLog2Det:
    def test_matches_eigenvalue_sum(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            a = crandn(rng, n, n + 2)
            q = hermitize(a @ herm(a)) + 0.05 * np.eye(n)
            want = float(np.sum(np.log2(np.linalg.eigvalsh(q))))
            assert log2det_hpd(q) == pytest.approx(want, abs=1e-9)

    def test_regularization_counter_on_singular_input(self, rng, caplog):
        x = crandn(rng, 4, 2)
        gram = x @ herm(x)  # rank 2, not PD
        with caplog.at_level(logging.WARNING), count_regularizations() as scope:
            val = log2det_hpd(gram)
        assert np.isfinite(val)
        assert scope.events == 1
        assert "regularized a singular factorization" in caplog.text
        with count_regularizations() as fresh:
            pass
        assert fresh.events == 0

    def test_all_zero_matrix_is_regularized_not_an_error(self):
        with count_regularizations() as scope:
            assert np.isfinite(log2det_hpd(np.zeros((2, 2))))
            assert np.all(np.isfinite(solve_hpd(np.zeros((2, 2)), np.ones((2, 1)))))
        assert scope.events == 2


def test_regularization_scopes_are_per_thread(rng, caplog):
    """Each thread counts only its own events, in its own scope; an event
    outside every scope, made while both scopes are open, is logged and
    counted in neither."""
    x = crandn(rng, 4, 2)
    singular = x @ herm(x)
    events = 5
    counts = {}
    opened, unscoped_done = threading.Barrier(3, timeout=30), threading.Barrier(3, timeout=30)
    calls_done = threading.Barrier(2, timeout=30)  # keeps both scopes open until then

    def run(name, calls):
        with count_regularizations() as scope:
            opened.wait()
            unscoped_done.wait()
            for _ in range(calls):
                log2det_hpd(singular)
            calls_done.wait()
        counts[name] = scope.events

    threads = [threading.Thread(target=run, args=("busy", events)),
               threading.Thread(target=run, args=("idle", 0))]
    for t in threads:
        t.start()
    opened.wait()
    with caplog.at_level(logging.WARNING):
        log2det_hpd(singular)
    unscoped_done.wait()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert counts == {"busy": events, "idle": 0}
    assert "regularized a singular factorization in log2det_hpd" in caplog.text


def test_solve_hpd_of_a_zero_matrix(rng):
    """A regularized all-zero matrix scales the right-hand side by 1 / tiny:
    a zero one stays zero, a large one overflows and is rejected."""
    with count_regularizations() as scope:
        assert np.array_equal(solve_hpd(np.zeros((2, 2)), np.zeros((2, 1))), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="overflows"):
            solve_hpd(np.zeros((2, 2)), np.full((2, 1), 8.0))
    assert scope.events == 2


def test_a_stack_regularizes_its_failing_items_alone(rng):
    """Each item of a factored stack gets its own bits and, in a per-cell
    scope, its own count, at its index or where stacked_cells maps it."""
    x = crandn(rng, 3, 2)
    singular = x @ herm(x)
    stack = np.array([singular + np.eye(3), singular, singular + 2.0 * np.eye(3), singular])
    b = crandn(rng, 4, 3, 2)
    with count_regularizations(cells=4) as scope:
        logdets, solved = log2det_hpd(stack), solve_hpd(stack, b)
    assert scope.events.tolist() == [0, 2, 0, 2]
    assert logdets.tolist() == [log2det_hpd(m) for m in stack]
    assert all(np.array_equal(s, solve_hpd(m, bm)) for s, m, bm in zip(solved, stack, b))
    with count_regularizations(cells=3) as scope, stacked_cells([2, 0]):
        log2det_hpd(stack[:2])
    assert scope.events.tolist() == [1, 0, 0]  # item 1, the singular one, is cell 0
    # a stack that is not one item per cell would broadcast its counts
    with count_regularizations(cells=2), pytest.raises(ValueError, match=r"\(1,\).*\(2,\)"):
        log2det_hpd(stack[1:2])
    with count_regularizations(cells=2), stacked_cells([1]):
        with pytest.raises(ValueError, match=r"\(2,\).*\(1,\)"):
            log2det_hpd(stack[:2])


def test_solve_hpd_matches_dense_solve(rng):
    a = crandn(rng, 5, 5)
    q = hermitize(a @ herm(a)) + np.eye(5)
    b = crandn(rng, 5, 3)
    assert np.allclose(solve_hpd(q, b), np.linalg.solve(q, b), atol=1e-10)


# =====================================================================
# water-filling
# =====================================================================


class TestWaterfill:
    def test_symmetric_split(self):
        assert np.allclose(waterfill([1.0, 1.0], 2.0), [1.0, 1.0], atol=1e-12)

    def test_two_mode_known_level(self):
        # water level 2.75: allocations 2.75 - 1/2 and 2.75 - 1/0.5
        assert np.allclose(waterfill([2.0, 0.5], 3.0), [2.25, 0.75], atol=1e-9)

    def test_weak_mode_shut_off(self):
        # level 0.2 stays below 1/0.01, so the weak mode gets exactly zero
        p = waterfill([10.0, 0.01], 0.1)
        assert np.allclose(p, [0.1, 0.0], atol=1e-12)
        assert p[1] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            waterfill([], 1.0)
        with pytest.raises(ValueError):
            waterfill([1.0, -2.0], 1.0)
        with pytest.raises(ValueError):
            waterfill([1.0], -0.5)

    def test_zero_gains_are_absent_modes(self):
        # a zero gain gets exactly 0 and leaves the other modes' split alone
        p = waterfill([2.0, 0.0, 0.5], 3.0)
        assert p[1] == 0.0
        assert np.array_equal(p[[0, 2]], waterfill([2.0, 0.5], 3.0))
        # no mode at all: nothing to transmit on, not P/n each
        assert np.array_equal(waterfill([0.0, 0.0, 0.0], 3.0), [0.0, 0.0, 0.0])

    def test_stack_matches_each_row(self, rng):
        gains = 10.0 ** rng.uniform(-2, 2, size=(3, 4, 5))
        gains[0, 1, 3:] = 0.0
        gains[1, 2, :] = 0.0
        gains[2, 0] = np.sort(gains[2, 0])[::-1]  # a row already sorted
        powers = waterfill(gains, 2.0)
        assert powers.shape == gains.shape
        for g, p in zip(gains.reshape(-1, 5), powers.reshape(-1, 5)):
            assert np.array_equal(p, waterfill(g, 2.0))
        assert np.allclose(powers.sum(axis=-1)[gains.max(axis=-1) > 0], 2.0)

    def test_kkt_conditions(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            g = 10.0 ** rng.uniform(-2, 2, size=n)
            total = float(10.0 ** rng.uniform(-2, 2))
            p = waterfill(g, total)
            assert np.all(p >= 0.0)
            assert np.sum(p) == pytest.approx(total, rel=1e-9)
            active = p > 0
            if np.any(active):
                levels = p[active] + 1.0 / g[active]
                mu = float(np.mean(levels))
                assert np.allclose(levels, mu, rtol=1e-8)
                # inactive modes would need a higher water level to turn on
                assert np.all(1.0 / g[~active] >= mu * (1 - 1e-9))

    def test_monotone_in_total_power(self, rng):
        g = 10.0 ** rng.uniform(-1, 1, size=5)
        prev = waterfill(g, 0.1)
        for total in (0.3, 1.0, 3.0, 10.0):
            cur = waterfill(g, total)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_beats_random_simplex_probes(self, rng):
        # optimality spot-check against random feasible allocations
        for _ in range(50):
            n = int(rng.integers(2, 5))
            g = 10.0 ** rng.uniform(-2, 2, size=n)
            total = float(10.0 ** rng.uniform(-1, 1))
            p = waterfill(g, total)
            rate = np.sum(np.log2(1 + g * p))
            probes = rng.dirichlet(np.ones(n), size=2000) * total
            best_probe = np.log2(1 + g * probes).sum(axis=1).max()
            assert best_probe <= rate + 1e-9


# a gain is an exact zero (an absent mode), one of a few values that tie, or
# any value over six decades
_GAINS = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 4.0]), st.floats(1e-3, 1e3))


@st.composite
def _waterfill_cases(draw):
    rows, modes = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    row = st.lists(_GAINS, min_size=modes, max_size=modes)
    gains = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    total = draw(st.floats(0.0, 1e3))
    return gains, total, np.array(draw(st.permutations(range(modes))))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_waterfill_cases())
def test_waterfill_properties(case):
    gains, total, perm = case
    powers = waterfill(gains, total)
    for g, p in zip(gains, powers):
        assert np.array_equal(p, waterfill(g, total))  # a row of a stack is the row alone
        assert np.array_equal(waterfill(g[perm], total), p[perm])
        assert np.all(p[g == 0.0] == 0.0)
        if g.max() > 0.0:
            # the budget is met up to the rounding of mu - 1/g_i over the
            # active modes; the strongest mode is active even when that
            # rounding gives it 0
            active = (p > 0.0) | (g == g.max())
            assert abs(p.sum() - total) <= 1e-12 * (total + np.sum(1.0 / g[active]))


@st.composite
def _per_row_budgets(draw):
    """Gains as above, some rows all zero, and one budget per row from 0 and
    1e-30 to 1e30 (both uniform and log-uniform in that range)."""
    gains, _, _ = draw(_waterfill_cases())
    rows = len(gains)
    gains[np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))] = 0.0
    budget = st.one_of(st.just(0.0), st.floats(1e-30, 1e30),
                       st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e))
    return gains, np.array(draw(st.lists(budget, min_size=rows, max_size=rows)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_per_row_budgets())
def test_waterfill_takes_a_budget_per_row(case):
    """A stack of rows, each at its own budget, gives each row's powers at
    that budget alone, bit for bit."""
    gains, budgets = case
    powers = waterfill(gains, budgets)
    assert powers.shape == gains.shape
    for g, b, p in zip(gains, budgets, powers):
        assert np.array_equal(p.view(np.uint64), waterfill(g, float(b)).view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, -1e-300, -1.0, np.inf, -np.inf])
def test_waterfill_refuses_a_bad_budget_in_any_row(bad):
    with pytest.raises(ValueError, match="total_power must be finite and nonnegative"):
        waterfill(np.ones(2), bad)
    with pytest.raises(ValueError, match="total_power must be finite and nonnegative"):
        waterfill(np.ones((3, 2)), np.array([1.0, bad, 2.0]))


def test_exact_waterfill_spends_the_budget_on_tiny_gains():
    """The oracle on the strict xfail below: all 10 W on the stronger mode."""
    assert exact.waterfill([3.8e-25, 2.0e-25], 10.0) == [10, 0]
    assert exact.waterfill([2.0, 0.0, 0.5], 3.0) == [Fraction(9, 4), 0, Fraction(3, 4)]


# each gain any value over twelve decades, uniform in the value or in its exponent
_WIDE_GAIN = st.one_of(st.floats(1e-6, 1e6), st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(_WIDE_GAIN, min_size=1, max_size=4),
       st.one_of(st.floats(1e-3, 1e3), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)))
def test_waterfill_is_within_its_bound_of_the_exact_powers(gains, budget):
    """Each mode's power, not only their sum, is within the cancellation
    bound test_waterfill_properties asserts for the sum, 1e-12 * (budget +
    sum 1/g_i over the active modes), of the exact water-fill."""
    want = exact.waterfill(gains, budget)
    bound = Fraction(1e-12) * (Fraction(budget) + sum(1 / Fraction(g)
                                                      for g, p in zip(gains, want) if p > 0))
    for got, p in zip(waterfill(np.array(gains), budget).tolist(), want):
        assert abs(Fraction(got) - p) <= bound


@pytest.mark.xfail(strict=True, reason="p_i = mu - 1/g_i cancels when the budget is "
                   "far below 1/g_i, so the whole budget is lost")
def test_waterfill_spends_budget_on_tiny_gains():
    """The mode gains of a 400 dB pathloss downlink at 40 dBm are ~1e-25;
    water-filling 10 W over them returns [0, 0], so the precoder is zero and
    the downlink rate reads 0.  An exact form must spend the budget."""
    powers = waterfill(np.array([3.8e-25, 2.0e-25]), 10.0)
    assert powers.sum() == pytest.approx(10.0, rel=1e-12)
