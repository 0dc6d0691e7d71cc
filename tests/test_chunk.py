"""sweep.run_chunk and trial.solve_trials: a chunk of one power point's
cells, solved as one stacked pass, gives each cell's results bit for bit."""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from fdhbf import sweep
from fdhbf.config import config_from_values

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
from compare_outputs import CONFIGS, cell_outputs, differ  # noqa: E402


def differing_fields(cells, chunk):
    """(cell position, field) for every output of a chunk that differs from
    the cell run alone."""
    assert len(cells) == len(chunk)
    return [(i, field) for i, (a, b) in enumerate(zip(cells, chunk))
            for field in sorted(a.keys() | b.keys())
            if field not in a or field not in b or differ(a[field], b[field])]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_chunk_matches_its_cells(name):
    """Every TrialSummary field and every design array of solve_trials, per
    config of tools/compare_outputs.py, at a power point where routings are
    both feasible and not."""
    cfg = config_from_values({**CONFIGS[name], "sweep.seed": 11, "sweep.trials": 5})
    trials = [0, 2, 3, 4]
    cells = cell_outputs(sweep, cfg, 2, trials)
    chunk = cell_outputs(sweep, cfg, 2, trials, chunked=True)
    assert differing_fields(cells, chunk) == []


def test_regularizations_count_for_their_own_cells(monkeypatch):
    """At -300 dBm receiver noise the uplink covariance is singular to
    working precision in some cells and not in others.  An all-zero h_ul in
    every other draw gives those cells one-column uplink precoders and the
    rest two, so the uplink runs in two stacks whose items are not the
    chunk's positions.  Each cell reports its own events either way."""
    draw = sweep.draw_channels

    def zero_uplink_in_every_other_draw(cfg, rng):
        channels = draw(cfg, rng)
        return replace(channels, h_ul=np.zeros_like(channels.h_ul)) if rng.integers(2) else channels

    monkeypatch.setattr(sweep, "draw_channels", zero_uplink_in_every_other_draw)
    cfg = config_from_values({"node.rx_noise_dbm": -300.0, "node.ul_tx_antennas": 2,
                              "sweep.trials": 12})
    cells = [sweep.run_cell(cfg, 2, t) for t in range(cfg.trials)]
    events = [c.regularizations for c in cells]
    assert sweep.run_chunk(cfg, 2, list(range(cfg.trials))) == cells
    assert 0 < events.count(0) < len(events)
    assert {c.ul_rate == 0.0 for c in cells} == {True, False}

    regularized = events.index(max(events))
    clean = [t for t, n in enumerate(events) if n == 0][:2]
    trials = [clean[0], regularized, clean[1]]
    chunk = sweep.run_chunk(cfg, 2, trials)
    assert chunk == [cells[t] for t in trials]
    assert [c.regularizations for c in chunk] == [0, max(events), 0]
