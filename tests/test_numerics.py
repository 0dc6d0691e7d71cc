"""Tests for the dense complex kernel: SVD, log-det, water-filling, units."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdhbf import numerics
from fdhbf.numerics import (
    db_to_linear,
    dbm_to_watts,
    herm,
    hermitize,
    log2det_hpd,
    rank_mask,
    solve_hpd,
    svd,
    waterfill,
    watts_to_dbm,
)

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


def test_svd_of_a_stack_matches_each_matrix(rng):
    stack = crandn(rng, 5, 2, 4)
    dec = svd(stack)
    assert dec.u.shape == (5, 2, 2) and dec.s.shape == (5, 2) and dec.v.shape == (5, 4, 4)
    for m, u, s, v in zip(stack, dec.u, dec.s, dec.v):
        one = svd(m)
        assert np.array_equal(s, one.s)
        assert np.allclose(u @ np.diag(s) @ herm(v[:, :2]), m, atol=1e-12)
    bad = stack.copy()
    bad[3, 1, 2] = np.nan
    with pytest.raises(ValueError):
        svd(bad)


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
        numerics.reset_regularization_count()
        x = crandn(rng, 4, 2)
        gram = x @ herm(x)  # rank 2, not PD
        with caplog.at_level(logging.WARNING):
            val = log2det_hpd(gram)
        assert np.isfinite(val)
        assert numerics.regularization_count() >= 1
        numerics.reset_regularization_count()
        assert numerics.regularization_count() == 0


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
