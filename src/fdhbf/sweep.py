"""Monte-Carlo power sweep: scheduling, aggregation, CSV emission.

Each (power index, trial index) cell owns an independent random stream
derived with ``SeedSequence(seed, spawn_key=(power_index, trial_index))``, so
results do not depend on worker count or execution order, and adding power
points or trials never perturbs existing cells.  Every worker count runs the
same plan: the (power, trial) grid in near-equal runs of at most _CHUNK,
one worker in turn and a process pool in parallel.  A chunk, which may span
power points, is solved as one stacked pass whose draws are made and
beam-searched a slab of _SLAB at a time, each slab one record of stacks:
each cell makes its own random calls, and the draw's steering tables, path
products and Rician mix run per slab.  A one-cell chunk runs as run_cell.
"""

import os
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .canceller import MAX_ROUTINGS, routing_count
from .channel import ArrayGeometry, ChannelRealization, _clustered_slab, _rician_slab, dump_matrix
from .codebook import dft_codebook
from .config import SweepConfig
from .numerics import count_regularizations, dbm_to_watts, watts_to_dbm
from .trial import TrialResult, solve_trial, solve_trials

# Most cells per chunk.  A default-config one-worker run (6 x 1,000 cells)
# took about the same CPU time per cell in chunks of 24 to 64 cells, and its
# peak RSS grows with the chunk: 42.8 MiB cell by cell, 45.3 at 24, 46.2-46.4
# at 34, 46.6-47.0 at 37.  34 is the least that runs 100 trials in 3 chunks.
_CHUNK = 34

# Draws per stacked draw and beam search.  Slabs of 4 to 37 draws ran
# pooled_taps_off at about the same cells/s, and its peak_rss_mb grew with
# the slab: 117.4 MiB at 4, 118.6 at 8, 123.4 at 16, 126.7 at 37 (116.7
# drawing one at a time).
_SLAB = 8


@dataclass(frozen=True)
class TrialSummary:
    power_dbm: float
    power_index: int
    trial_index: int
    dl_rate: float
    ul_rate: float
    fd_rate: float
    hd_rate: float
    feasible: bool
    max_residual_si_w: float
    dl_subspace_dim: int
    regularizations: int


@dataclass(frozen=True)
class SweepRow:
    power_dbm: float
    fd_rate: float
    dl_rate: float
    ul_rate: float
    hd_rate: float
    feasibility: float
    mean_residual_si_dbm: float  # dBm of the mean max-residual wattage
    trials: int


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))
_REPORTED = [f.name for f in fields(TrialSummary) if f.name in TrialResult.__dataclass_fields__]


def trial_rng(seed: int, power_index: int, trial_index: int) -> np.random.Generator:
    """The deterministic random stream owned by one sweep cell."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(power_index, trial_index))
    )


def draw_channels(cfg: SweepConfig, rng: np.random.Generator | Sequence[np.random.Generator]
                  ) -> ChannelRealization:
    """Draw a slab of trials' three channels (order: downlink, uplink, SI),
    one trial per generator of a sequence, as one record of (draws, rows,
    cols) stacks whose row i is generator i's draw alone, bit for bit.  Each
    generator makes its own random calls in the same order, while the
    steering matrices (each from its two-level phase table), the path
    products and the Rician mix run over the slab as one stack.  A bare
    generator draws a slab of one and gets its record unstacked."""
    node, s = cfg.node, cfg.array_spacing_wavelengths
    geom_tx, geom_rx, geom_dl, geom_ul = (ArrayGeometry(n, s) for n in (
        node.tx_antennas, node.rx_antennas, node.dl_rx_antennas, node.ul_tx_antennas))
    alone = isinstance(rng, np.random.Generator)
    rngs = [rng] if alone else list(rng)
    h = ChannelRealization(_clustered_slab(geom_dl, geom_tx, cfg.clustered, rngs),
                           _clustered_slab(geom_rx, geom_ul, cfg.clustered, rngs),
                           _rician_slab(geom_rx, geom_tx, cfg.si, rngs))
    return h[0] if alone else h


def run_cell(cfg: SweepConfig, power_index: int, trial_index: int,
             dump_dir: str | None = None) -> TrialSummary:
    """Run one (power, trial) cell end to end."""
    return run_chunk(cfg, [(power_index, trial_index)], dump_dir)[0]


def run_chunk(cfg: SweepConfig, cells: list[tuple[int, int]],
              dump_dir: str | None = None) -> list[TrialSummary]:
    """Run (power index, trial index) cells end to end, as run_sweep does:
    their channels are drawn a stacked slab of _SLAB cells at a time, each
    from its own stream, as solve_trials takes them, then solved as one
    stacked pass, each cell at its power point's transmit powers, with the
    same results as cell by cell.  A one-cell chunk, a slab of one, goes
    through solve_trial: the per-cell name that perfbench/tracing.py times."""
    watts = [dbm_to_watts(p) for p in cfg.powers_dbm]  # the scalar pow, once per power
    power_w = np.array([watts[pi] for pi, _ in cells])

    def draws():  # drawn as solve_trials takes them: one slab's SI channels are held
        for start in range(0, len(cells), _SLAB):
            slab = cells[start:start + _SLAB]
            h = draw_channels(cfg, [trial_rng(cfg.seed, pi, ti) for pi, ti in slab])
            if dump_dir is not None:
                for i, (pi, ti) in enumerate(slab):
                    for link in ("dl", "ul", "si"):
                        dump_matrix(os.path.join(dump_dir, f"p{pi}_t{ti}_{link}.txt"),
                                    getattr(h[i], f"h_{link}"))
            yield h

    codebook_tx = dft_codebook(cfg.node.tx_subarray, cfg.codebook_subsample_step)
    codebook_rx = dft_codebook(cfg.node.rx_subarray, cfg.codebook_subsample_step)
    args = (cfg.node, codebook_tx, codebook_rx, cfg.num_taps, cfg.impairments,
            cfg.strategy, cfg.shortlist_size, (power_w, power_w))
    with count_regularizations(len(cells)) as regularizations:
        if len(cells) > 1:
            record = solve_trials(draws(), *args)
        else:
            record = solve_trial(next(draws()), *args)
    columns = [getattr(record, name) for name in _REPORTED]
    rows = zip(*columns) if len(cells) > 1 else [columns]  # a one-draw record holds one row
    return [TrialSummary(power_dbm=cfg.powers_dbm[pi], power_index=pi, trial_index=ti,
                         regularizations=int(events), **dict(zip(_REPORTED, row)))
            for (pi, ti), events, row in zip(cells, regularizations.events, rows)]


def _run_planned(cfg: SweepConfig, cells: list[tuple[int, int]],
                 dump_dir: str | None) -> list[TrialSummary]:
    """One chunk of run_sweep's plan: run_chunk, a one-cell chunk as
    run_cell, the per-cell span perfbench/tracing.py counts cells by."""
    if len(cells) > 1:
        return run_chunk(cfg, cells, dump_dir)
    return [run_cell(cfg, *cells[0], dump_dir)]


def run_sweep(cfg: SweepConfig,
              dump_dir: str | None = None) -> tuple[list[SweepRow], list[TrialSummary]]:
    """Run the full grid and reduce per-power means in trial-index order.
    For any worker count, the (power, trial) grid runs in order in the
    fewest near-equal chunks of at most _CHUNK cells and MAX_ROUTINGS
    routings, and at least one per worker: in turn on one worker, in
    parallel in a process pool of more.  A chunk may span power points."""
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
    node = cfg.node
    grid = [(pi, ti) for pi in range(len(cfg.powers_dbm)) for ti in range(cfg.trials)]
    size = min(_CHUNK, MAX_ROUTINGS // routing_count(node.tx_chains, node.rx_chains, cfg.num_taps))
    # one trial a power point runs as the run_cell calls perfbench/tracing.py counts;
    # ROADMAP 3B deletes this line and the one-cell branches once 3A lands
    size = 1 if cfg.trials == 1 else size
    n = max(-(-len(grid) // size), min(cfg.workers, len(grid)))  # a chunk per worker at least
    plan = [grid[k * len(grid) // n:(k + 1) * len(grid) // n] for k in range(n)]
    if cfg.workers > 1:  # imported here: a one-worker process is spared its ~1 MiB
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_run_planned, [cfg] * n, plan, [dump_dir] * n))
    else:
        chunks = [_run_planned(cfg, cells, dump_dir) for cells in plan]
    summaries = [s for chunk in chunks for s in chunk]  # the grid's order: map keeps task order
    # each field's per-power means as np.mean takes them: one (powers, trials)
    # sum adds each power point's trials pairwise in order, as a row alone
    names = ("fd_rate", "dl_rate", "ul_rate", "hd_rate", "feasible", "max_residual_si_w")
    means = np.array([getattr(s, name) for name in names for s in summaries]).reshape(
        len(names), len(cfg.powers_dbm), cfg.trials).sum(axis=-1) / float(cfg.trials)
    rows = [SweepRow(power, *means[:5, pi].tolist(), watts_to_dbm(means[5, pi]), cfg.trials)
            for pi, power in enumerate(cfg.powers_dbm)]
    return rows, summaries


# =====================================================================
# CSV
# =====================================================================


def _fmt(value: float) -> str:
    return format(value, ".6g")


def csv_row(row: SweepRow) -> str:
    """One aggregate CSV line without its newline: floats at 6 significant
    digits, the trial count in full (".6g" would print 1000000 as 1e+06)."""
    return ",".join(
        str(getattr(row, f.name)) if f.type is int else _fmt(getattr(row, f.name))
        for f in fields(SweepRow)
    )


def emit_csv(rows: list[SweepRow], path) -> None:
    """Aggregate CSV, one row per power point, LF newlines; byte-identical
    for identical inputs."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(csv_row(r) + "\n")


def emit_trials_csv(summaries: list[TrialSummary], path) -> None:
    """Per-trial records for external plotting."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("power_dbm,trial,dl_rate,ul_rate,fd_rate,hd_rate,"
                 "feasible,max_residual_si_dbm,dl_subspace_dim\n")
        for s in sorted(summaries, key=lambda s: (s.power_index, s.trial_index)):
            fh.write(",".join([
                _fmt(s.power_dbm), str(s.trial_index), _fmt(s.dl_rate),
                _fmt(s.ul_rate), _fmt(s.fd_rate), _fmt(s.hd_rate),
                "1" if s.feasible else "0",
                _fmt(watts_to_dbm(s.max_residual_si_w)),
                str(s.dl_subspace_dim),
            ]) + "\n")
