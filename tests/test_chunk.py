"""sweep.run_chunk and trial.solve_trials: a chunk of cells, of one power
point or several, solved as one stacked pass, gives each cell's results bit
for bit."""

import concurrent.futures
import contextlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fdhbf import sweep, trial
from fdhbf.codebook import dft_codebook
from fdhbf.config import config_from_values
from fdhbf.numerics import count_regularizations, dbm_to_watts, watts_to_dbm
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


ONE_POWER = [(2, t) for t in (0, 2, 3, 4)]
SPANNING = [(0, 4), (2, 0), (2, 3), (5, 1), (5, 2)]  # 0, 20 and 50 dBm


@pytest.mark.parametrize("name,grid", [
    pytest.param(name, grid, id=name + suffix) for name in sorted(CONFIGS)
    for grid, suffix in ((ONE_POWER, ""), (SPANNING, "-spanning"))])
def test_a_chunk_matches_its_cells(name, grid):
    """Every TrialSummary field and every design array of solve_trials, per
    config of tools/compare_outputs.py: a chunk at a power point where
    routings are both feasible and not, and a chunk across three power
    points, each cell at its own transmit power."""
    cfg = config_from_values({**CONFIGS[name], "sweep.seed": 11, "sweep.trials": 5})
    cells = cell_outputs(sweep, cfg, grid)
    chunk = cell_outputs(sweep, cfg, grid, chunk=len(grid))
    assert differing_fields(cells, chunk) == []


@pytest.mark.parametrize("name", ["default", "exhaustive", "taps_off", "one_beam_tx", "los_only",
                                  "no_angle_spread", "pure_scatter"])
def test_a_chunk_of_slabs_matches_its_cells(name):
    """A chunk of two full slabs and a partial one: each slab's stacked draw
    and beam search, and the stack of all three for every later stage, give
    each cell its results alone."""
    grid = [(3, t) for t in range(2 * _SLAB + 3)]
    cfg = config_from_values({**CONFIGS[name], "sweep.seed": 13, "sweep.trials": len(grid)})
    cells = cell_outputs(sweep, cfg, grid)
    chunk = cell_outputs(sweep, cfg, grid, chunk=len(grid))
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
    summaries = sweep.run_chunk(cfg, [(0, t) for t in range(cfg.trials)])
    assert len(summaries) == cfg.trials
    assert searches == [_SLAB, _SLAB, 3]
    assert taken == [0, 1, 2]


def test_a_default_chunks_routing_search_peaks_under_3_mib(monkeypatch):
    """The routing search of one 34-cell default chunk at 40 dBm, 2,380
    routings, holds only s and V of its SVDs and no per-dimension gather of
    the DL channels or the subspace bases through an SVD: it allocates about
    2.67 MiB at its peak (4.27 MiB with every SVD's U, a second full copy of
    V and those gathers)."""
    peaks, design = [], trial.design_dl_precoder_stack

    def traced(h_si_stack, *args):
        tracemalloc.start()
        try:
            result = design(h_si_stack, *args)
            peaks.append((h_si_stack.shape[:2], tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(trial, "design_dl_precoder_stack", traced)
    sweep.run_chunk(config_from_values({}), [(4, t) for t in range(34)])
    [(routings, peak)] = peaks
    assert routings == (34, 70)
    assert peak < 3.0 * 2 ** 20


@pytest.fixture
def zero_uplink_in_every_other_draw(monkeypatch):
    """sweep.draw_channels with an all-zero h_ul in the draws whose stream
    says so, about every other one."""
    draw = sweep.draw_channels

    def zero_uplink(cfg, rngs):  # run_chunk draws a stacked slab
        channels = draw(cfg, rngs)
        zero = np.array([g.integers(2) for g in rngs], dtype=bool)[:, None, None]
        return replace(channels, h_ul=np.where(zero, np.zeros_like(channels.h_ul), channels.h_ul))

    monkeypatch.setattr(sweep, "draw_channels", zero_uplink)


def test_regularizations_count_for_their_own_cells(zero_uplink_in_every_other_draw):
    """At -300 dBm receiver noise the uplink covariance is singular to
    working precision in some cells and not in others.  An all-zero h_ul in
    every other draw gives those cells one-column uplink precoders and the
    rest two, so the uplink runs in two stacks whose items are not the
    chunk's positions.  Each cell reports its own events either way."""
    cfg = config_from_values({"node.rx_noise_dbm": -300.0, "node.ul_tx_antennas": 2,
                              "sweep.trials": 12})
    cells = [sweep.run_cell(cfg, 2, t) for t in range(cfg.trials)]
    events = [c.regularizations for c in cells]
    assert sweep.run_chunk(cfg, [(2, t) for t in range(cfg.trials)]) == cells
    assert 0 < events.count(0) < len(events)
    assert {c.ul_rate == 0.0 for c in cells} == {True, False}

    regularized = events.index(max(events))
    clean = [t for t, n in enumerate(events) if n == 0][:2]
    trials = [clean[0], regularized, clean[1]]
    chunk = sweep.run_chunk(cfg, [(2, t) for t in trials])
    assert chunk == [cells[t] for t in trials]
    assert [c.regularizations for c in chunk] == [0, max(events), 0]


@pytest.mark.parametrize("values,power,events,half_duplex", [
    ({"node.ul_tx_antennas": 2}, 2, [3, 0, 2, 0, 0, 0, 3, 2, 0, 3, 0, 0], [0] * 12),
    ({}, 0, [1, 3, 1, 3, 2, 2, 3, 0, 3, 0, 0, 1], [1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1]),
])
def test_the_half_duplex_fold_keeps_each_cells_regularizations(
        zero_uplink_in_every_other_draw, values, power, events, half_duplex):
    """The half-duplex uplink shares the full-duplex uplink's stack, one
    item per cell after the full-duplex ones, and each item's events count
    for its own cell: at -300 dBm receiver noise, with an all-zero h_ul in
    every other draw, a chunk and its cells alone report the recorded
    counts, and hd_baseline_rate of a stack counts each draw's events, the
    half-duplex share of those counts, as alone.  The recorded counts hold
    both regularized and clean cells, so the retry runs."""
    assert 0 in events and any(events)
    cfg = config_from_values({"node.rx_noise_dbm": -300.0, "sweep.trials": 12, **values})
    cells = [(power, t) for t in range(cfg.trials)]
    assert [c.regularizations for c in sweep.run_chunk(cfg, cells)] == events
    assert [sweep.run_cell(cfg, *cell).regularizations for cell in cells] == events

    h = sweep.draw_channels(cfg, [sweep.trial_rng(cfg.seed, *cell) for cell in cells])
    watts = dbm_to_watts(cfg.powers_dbm[power])
    with count_regularizations(len(cells)) as stacked:
        trial.hd_baseline_rate(h.h_dl, h.h_ul, cfg.node, *codebooks(cfg), (watts, watts))
    alone = []
    for dl, ul in zip(h.h_dl, h.h_ul):
        with count_regularizations() as scope:
            trial.hd_baseline_rate(dl, ul, cfg.node, *codebooks(cfg), (watts, watts))
        alone.append(scope.events)
    assert stacked.events.tolist() == alone == half_duplex


def codebooks(cfg):
    """The sweep's TX and RX codebooks."""
    return [dft_codebook(n, cfg.codebook_subsample_step)
            for n in (cfg.node.tx_subarray, cfg.node.rx_subarray)]


def solve_slabs(cfg, cells):
    """solve_trials of (power index, trial index) cells as run_chunk hands
    them over: drawn in stacked slabs of _SLAB, each cell at its power."""
    watts = np.array([dbm_to_watts(cfg.powers_dbm[pi]) for pi, _ in cells])
    slabs = [sweep.draw_channels(cfg, [sweep.trial_rng(cfg.seed, *cell)
                                       for cell in cells[k:k + _SLAB]])
             for k in range(0, len(cells), _SLAB)]
    results = trial.solve_trials(iter(slabs), cfg.node, *codebooks(cfg), cfg.num_taps,
                                 cfg.impairments, cfg.strategy, cfg.shortlist_size,
                                 (watts, watts))
    return results, slabs, watts


@pytest.mark.parametrize("size", [1, 3, 2 * _SLAB + 3])
@pytest.mark.parametrize("name", ["default", "exhaustive", "taps_off", "ul_2_antennas"])
def test_the_folded_half_duplex_rate_is_hd_baseline_rate(name, size):
    """solve_trials rates each cell's half-duplex baseline with the beam
    search's max-gain TX beams, in the full-duplex uplink's stack: hd_rate
    equals hd_baseline_rate of the whole stack and of each draw alone, bit
    for bit, on cells across power points."""
    cfg = config_from_values({**CONFIGS[name], "sweep.seed": 19, "sweep.trials": size})
    results, slabs, watts = solve_slabs(cfg, [(t % 6, t) for t in range(size)])
    h_dl, h_ul = (np.concatenate([getattr(s, link) for s in slabs]) for link in ("h_dl", "h_ul"))
    stacked = trial.hd_baseline_rate(h_dl, h_ul, cfg.node, *codebooks(cfg), (watts, watts))
    alone = [trial.hd_baseline_rate(dl, ul, cfg.node, *codebooks(cfg), (w, w))
             for dl, ul, w in zip(h_dl, h_ul, watts)]
    folded = [r.hd_rate for r in results]
    assert np.array(folded).tobytes() == stacked.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("name", ["default", "square_impaired", "exhaustive"])
def test_a_one_worker_sweep_runs_chunks_with_each_cells_results(monkeypatch, name):
    """One worker runs the whole (power, trial) grid as one multi-cell chunk
    across both power points, and every summary equals its cell's run
    alone, bit for bit."""
    cfg = config_from_values({**CONFIGS[name], "sweep.seed": 5, "sweep.trials": 4,
                              "sweep.powers_dbm": "0, 40", "sweep.workers": 1})
    cells = [sweep.run_cell(cfg, pi, t) for pi in range(2) for t in range(4)]
    chunks, run_chunk = [], sweep.run_chunk

    def spy(cfg, cells, dump_dir=None):
        chunks.append(list(cells))
        return run_chunk(cfg, cells, dump_dir)

    monkeypatch.setattr(sweep, "run_chunk", spy)
    assert sweep.run_sweep(cfg)[1] == cells
    assert chunks == [[(pi, t) for pi in range(2) for t in range(4)]]


@pytest.mark.parametrize("values,sizes", [  # _CHUNK = 34, two power points
    ({"sweep.trials": 100}, [33, 33, 34, 33, 33, 34]),
    ({"sweep.trials": 35}, [23, 23, 24]),
    ({"sweep.trials": 34}, [34, 34]),
    ({"sweep.trials": 17}, [34]),
    ({"sweep.trials": 4}, [8]),
    # one trial per power point: cell by cell, each a run_cell call
    ({"sweep.trials": 1}, [1, 1]),
    # at least one chunk per worker
    ({"sweep.trials": 5, "sweep.workers": 3}, [3, 3, 4]),
    ({"sweep.trials": 3, "sweep.workers": 8}, [1, 1, 1, 1, 1, 1]),
    # C(16, 5) = 4,368 routings: at most MAX_ROUTINGS // 4,368 = 15 cells a chunk
    ({**CONFIGS["square"], "canceller.taps": 5, "sweep.trials": 40}, [13, 13, 14, 13, 13, 14]),
])
def test_the_chunk_plan_splits_the_grid_near_equally(monkeypatch, values, sizes):
    """The (power, trial) grid, in order, in the fewest chunks of at most
    _CHUNK cells and MAX_ROUTINGS routings and at least one per worker,
    their sizes within one cell; chunks span power points, except that a
    one-trial sweep runs cell by cell."""
    planned = []

    def plan_only(cfg, cells, dump_dir):
        planned.append(cells)
        return [sweep.TrialSummary(cfg.powers_dbm[pi], pi, t, *[0.0] * 4, True, 1.0, 1, 0)
                for pi, t in cells]

    monkeypatch.setattr(sweep, "_run_planned", plan_only)
    # a pool's plan, run in this process in the pool's order
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: contextlib.nullcontext(SimpleNamespace(map=map)))
    cfg = config_from_values({**values, "sweep.powers_dbm": "0, 40"})
    _, summaries = sweep.run_sweep(cfg)
    grid = [(pi, t) for pi in range(2) for t in range(cfg.trials)]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    assert planned == [grid[s:s + n] for s, n in zip(starts, sizes)]
    assert [(s.power_index, s.trial_index) for s in summaries] == grid


@pytest.mark.parametrize("trials", [1, 7, 8, 9, 128, 129])
def test_each_sweep_row_is_np_mean_of_its_power_points_trials(monkeypatch, trials):
    """Each SweepRow field is np.mean of its power point's per-trial values,
    bit for bit, at trial counts on both sides of numpy's pairwise-sum
    blocks (8 and 128 terms), from synthetic summaries of mixed scales."""
    rng = np.random.default_rng(trials)

    def synthetic(cfg, cells, dump_dir=None):
        rates = rng.standard_normal((len(cells), 4)) * 10.0 ** rng.uniform(-8, 8, (len(cells), 4))
        return [sweep.TrialSummary(cfg.powers_dbm[pi], pi, t, *r, bool(rng.random() < 0.6),
                                   float(10.0 ** rng.uniform(-20, -3)), 2, 0)
                for (pi, t), r in zip(cells, rates.tolist())]

    monkeypatch.setattr(sweep, "run_chunk", synthetic)
    cfg = config_from_values({"sweep.trials": trials, "sweep.powers_dbm": "0, 20, 40"})
    rows, summaries = sweep.run_sweep(cfg)
    names = ("fd_rate", "dl_rate", "ul_rate", "hd_rate", "feasible", "max_residual_si_w")
    for pi, row in enumerate(rows):
        point = summaries[pi * trials:(pi + 1) * trials]
        fd, dl, ul, hd, feasibility, si = (float(np.mean([getattr(s, n) for s in point])) for n in names)
        got = (row.power_dbm, row.fd_rate, row.dl_rate, row.ul_rate, row.hd_rate, row.feasibility,
               row.mean_residual_si_dbm)
        want = (cfg.powers_dbm[pi], fd, dl, ul, hd, feasibility, watts_to_dbm(si))
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert row.trials == trials


def test_a_one_worker_sweep_imports_no_process_pool():
    """concurrent.futures' process pool is imported only for a sweep of more
    than one worker (about 1 MiB of a one-worker process's RSS)."""
    code = ("import sys\n"
            "from fdhbf.config import config_from_values\n"
            "from fdhbf.sweep import run_sweep\n"
            "for workers in (1, 2):\n"
            "    run_sweep(config_from_values({'canceller.taps': 0, 'sweep.trials': 2,\n"
            "                                  'sweep.powers_dbm': '0', 'sweep.workers': workers}))\n"
            "    print('concurrent.futures.process' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True"]


def test_a_sweep_of_mixed_widths_imports_no_masked_arrays():
    """Uplink precoders of one and of two columns in one chunk run in two
    width groups, found without np.unique, which would import numpy.ma
    (about 1 MiB of RSS) the first time a sweep's widths differ."""
    code = ("import sys\n"
            "from fdhbf import trial\n"
            "from fdhbf.config import config_from_values\n"
            "from fdhbf.sweep import run_sweep\n"
            "widths, by_width = [], trial._by_width\n"
            "trial._by_width = lambda w: widths.append(len(set(w.tolist()))) or by_width(w)\n"
            "run_sweep(config_from_values({'node.ul_tx_antennas': 2, 'sweep.trials': 8,\n"
            "                              'sweep.powers_dbm': '0'}))\n"
            "print(max(widths), 'numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["2", "False"]


def test_a_one_worker_sweep_dumps_each_cells_channels(monkeypatch, tmp_path):
    """--dump-channels of a one-worker sweep, whose chunk draws in slabs and
    spans both power points, writes the files of the cells drawn one by
    one, byte for byte."""
    cfg = config_from_values({"sweep.seed": 5, "sweep.trials": _SLAB + 3,
                              "sweep.powers_dbm": "0, 40"})
    alone, swept = tmp_path / "alone", tmp_path / "swept"
    alone.mkdir()
    for pi in range(2):
        for t in range(cfg.trials):
            sweep.run_cell(cfg, pi, t, str(alone))
    chunks, run_chunk = [], sweep.run_chunk

    def spy(cfg, cells, dump_dir=None):
        chunks.append(cells)
        return run_chunk(cfg, cells, dump_dir)

    monkeypatch.setattr(sweep, "run_chunk", spy)
    sweep.run_sweep(cfg, str(swept))
    assert chunks == [[(pi, t) for pi in range(2) for t in range(cfg.trials)]]  # 22 cells
    names = sorted(p.name for p in alone.iterdir())
    assert len(names) == 3 * 2 * cfg.trials
    assert sorted(p.name for p in swept.iterdir()) == names
    assert all((alone / n).read_bytes() == (swept / n).read_bytes() for n in names)
