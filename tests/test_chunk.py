"""sweep.run_chunk and trial.solve_trials: a chunk of one power point's
cells, solved as one stacked pass, gives each cell's results bit for bit."""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from fdhbf import sweep, trial
from fdhbf.config import config_from_values
from fdhbf.sweep import _SLAB

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


@pytest.mark.parametrize("name", ["default", "exhaustive", "taps_off", "one_beam_tx", "los_only",
                                  "no_angle_spread", "pure_scatter"])
def test_a_chunk_of_slabs_matches_its_cells(name):
    """A chunk of two full slabs and a partial one: each slab's stacked draw
    and beam search, and the stack of all three for every later stage, give
    each cell its results alone."""
    trials = list(range(2 * _SLAB + 3))
    cfg = config_from_values({**CONFIGS[name], "sweep.seed": 13, "sweep.trials": len(trials)})
    cells = cell_outputs(sweep, cfg, 3, trials)
    chunk = cell_outputs(sweep, cfg, 3, trials, chunked=True)
    assert differing_fields(cells, chunk) == []


def test_draws_are_taken_a_slab_at_a_time(monkeypatch):
    """run_chunk draws a slab of _SLAB cells, solve_trials searches it as
    one stack, and only then is the next slab drawn: at most _SLAB
    antenna-level SI channels are held at a time."""
    searches, taken = [], []
    search, draw = trial.select_analog_beams, sweep.draw_channels

    def counted_search(h_dl, h_si, *args, **kwargs):
        searches.append(len(h_si))
        return search(h_dl, h_si, *args, **kwargs)

    def counted_draw(cfg, rngs):
        taken.append(len(searches))  # the searches made before this slab's draw
        return draw(cfg, rngs)

    monkeypatch.setattr(trial, "select_analog_beams", counted_search)
    monkeypatch.setattr(sweep, "draw_channels", counted_draw)
    cfg = config_from_values({"canceller.taps": 0, "sweep.trials": 2 * _SLAB + 3})
    summaries = sweep.run_chunk(cfg, 0, list(range(cfg.trials)))
    assert len(summaries) == cfg.trials
    assert searches == [_SLAB, _SLAB, 3]
    assert taken == [0, 1, 2]


def test_regularizations_count_for_their_own_cells(monkeypatch):
    """At -300 dBm receiver noise the uplink covariance is singular to
    working precision in some cells and not in others.  An all-zero h_ul in
    every other draw gives those cells one-column uplink precoders and the
    rest two, so the uplink runs in two stacks whose items are not the
    chunk's positions.  Each cell reports its own events either way."""
    draw = sweep.draw_channels

    def zero_uplink_in_every_other_draw(cfg, rngs):  # run_chunk draws a stacked slab
        channels = draw(cfg, rngs)
        zero = np.array([g.integers(2) for g in rngs], dtype=bool)[:, None, None]
        return replace(channels, h_ul=np.where(zero, np.zeros_like(channels.h_ul), channels.h_ul))

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


@pytest.mark.parametrize("name", ["default", "square_impaired", "exhaustive"])
def test_a_one_worker_sweep_runs_chunks_with_each_cells_results(monkeypatch, name):
    """One worker runs each power point's trials as one multi-cell chunk,
    and every summary equals its cell's run alone, bit for bit."""
    cfg = config_from_values({**CONFIGS[name], "sweep.seed": 5, "sweep.trials": 4,
                              "sweep.powers_dbm": "0, 40", "sweep.workers": 1})
    cells = [sweep.run_cell(cfg, pi, t) for pi in range(2) for t in range(4)]
    chunks, run_chunk = [], sweep.run_chunk

    def spy(cfg, power_index, trial_indices, dump_dir=None):
        chunks.append((power_index, list(trial_indices)))
        return run_chunk(cfg, power_index, trial_indices, dump_dir)

    monkeypatch.setattr(sweep, "run_chunk", spy)
    assert sweep.run_sweep(cfg)[1] == cells
    assert chunks == [(0, [0, 1, 2, 3]), (1, [0, 1, 2, 3])]


@pytest.mark.parametrize("values,sizes", [  # _CHUNK = 34
    ({"sweep.trials": 100}, [33, 33, 34]),
    ({"sweep.trials": 35}, [17, 18]),
    ({"sweep.trials": 34}, [34]),
    ({"sweep.trials": 1}, [1]),
    # C(16, 5) = 4,368 routings: at most MAX_ROUTINGS // 4,368 = 15 cells a chunk
    ({**CONFIGS["square"], "canceller.taps": 5, "sweep.trials": 40}, [13, 13, 14]),
])
def test_the_chunk_plan_splits_each_power_point_near_equally(monkeypatch, values, sizes):
    """Each power point's trials, in order, in the fewest chunks of at most
    _CHUNK cells and MAX_ROUTINGS routings, their sizes within one cell."""
    planned = []

    def plan_only(cfg, power_index, trial_indices, dump_dir):
        planned.append((power_index, trial_indices))
        return [sweep.TrialSummary(cfg.powers_dbm[power_index], power_index, t, *[0.0] * 4,
                                   True, 1.0, 1, 0) for t in trial_indices]

    monkeypatch.setattr(sweep, "_run_planned", plan_only)
    cfg = config_from_values({**values, "sweep.powers_dbm": "0, 40"})
    _, summaries = sweep.run_sweep(cfg)
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    assert planned == [(pi, list(range(s, s + n))) for pi in range(2)
                       for s, n in zip(starts, sizes)]
    assert [(s.power_index, s.trial_index) for s in summaries] == [
        (pi, t) for pi in range(2) for t in range(cfg.trials)]


def test_a_one_worker_sweep_dumps_each_cells_channels(tmp_path):
    """--dump-channels of a one-worker sweep, whose chunks draw in slabs,
    writes the files of the cells drawn one by one, byte for byte."""
    cfg = config_from_values({"sweep.seed": 5, "sweep.trials": _SLAB + 3,
                              "sweep.powers_dbm": "0, 40"})
    alone, swept = tmp_path / "alone", tmp_path / "swept"
    alone.mkdir()
    for pi in range(2):
        for t in range(cfg.trials):
            sweep.run_cell(cfg, pi, t, str(alone))
    sweep.run_sweep(cfg, str(swept))
    names = sorted(p.name for p in alone.iterdir())
    assert len(names) == 3 * 2 * cfg.trials
    assert sorted(p.name for p in swept.iterdir()) == names
    assert all((alone / n).read_bytes() == (swept / n).read_bytes() for n in names)
