"""numerics.Stacked, the one indexing rule of the records of draws and of
routings: record[i] is item i's record as if it were designed alone, bit for
bit, and an index array or a slice picks a record of items."""

import numpy as np
import pytest

from fdhbf.beamforming import NodeConfig, design_dl_precoder_stack, select_analog_beams
from fdhbf.canceller import residual_stack, routing_table, tap_weights
from fdhbf.codebook import dft_codebook
from fdhbf.numerics import dbm_to_watts

from conftest import crandn, same


@pytest.mark.parametrize("strategy", ["exhaustive", "shortlist"])
def test_a_beam_search_of_draws_holds_each_draw_searched_alone(rng, strategy):
    node = NodeConfig(tx_antennas=16, rx_antennas=4, tx_chains=4, rx_chains=2)
    cb_tx, cb_rx = dft_codebook(4), dft_codebook(2)
    h_dl = crandn(rng, 5, node.dl_rx_antennas, node.tx_antennas)
    h_si = crandn(rng, 5, node.rx_antennas, node.tx_antennas) * 1e-2
    stack = select_analog_beams(h_dl, h_si, cb_tx, cb_rx, node, strategy, shortlist_size=2)
    for c in range(5):
        alone = select_analog_beams(h_dl[c], h_si[c], cb_tx, cb_rx, node, strategy,
                                    shortlist_size=2)
        assert same(stack[c], alone)
        assert [type(b) for b in stack[c].f_rf.beam_indices] == [int] * node.tx_chains
    assert same(stack[1:4][1], stack[2])


def test_a_routing_search_of_cells_holds_each_cell_and_routing_designed_alone(rng):
    """Cells at their own SI strengths and powers: stack[c] is cell c's
    routings designed alone, the per-routing design counts too; stack[c, r]
    is routing r designed alone unless the cell's best rate stopped it, and
    then it made no more designs alone; stack[cells, win] holds each cell's
    pick."""
    cfg = NodeConfig(tx_antennas=4, rx_antennas=4, tx_chains=4, rx_chains=4, dl_rx_antennas=1,
                     si_budget_dbm=-55.0)
    table = routing_table(cfg.tx_chains, cfg.rx_chains, 2)
    si = crandn(rng, 8, cfg.rx_chains, cfg.tx_chains) * 10.0 ** rng.uniform(-6, -3, (8, 1, 1))
    h_si = residual_stack(table, si[:, None], tap_weights(si)[:, None])
    h_dl = crandn(rng, 8, 1, cfg.tx_chains) * 10.0 ** rng.uniform(-7, -5, (8, 1, 1))
    power = np.array([dbm_to_watts(p) for p in rng.uniform(0.0, 50.0, 8)])
    args = (cfg.si_budget_w, cfg.dl_rx_noise_w)
    stack = design_dl_precoder_stack(h_si, h_dl, power, *args)
    stopped = 0
    for c in range(8):
        assert same(stack[c], design_dl_precoder_stack(h_si[c], h_dl[c], power[c], *args))
        for r in range(len(table.routings)):
            alone = design_dl_precoder_stack(h_si[c, r:r + 1], h_dl[c], power[c], *args)[0]
            if stack.feasible[c, r] or stack.subspace_dim[c, r] == 1:
                assert same(stack[c, r], alone)
            else:
                stopped += 1
                assert stack.designs[c, r] <= alone.designs
    assert stopped > 0, stopped
    win = stack.rate.argmax(axis=-1)
    picks = stack[np.arange(8), win]
    for c in range(8):
        assert same(picks[c], stack[c, win[c]])
