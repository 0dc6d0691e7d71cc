"""Monte-Carlo power sweep: scheduling, aggregation, CSV emission.

Each (power index, trial index) cell owns an independent random stream
derived with ``SeedSequence(seed, spawn_key=(power_index, trial_index))``, so
results do not depend on worker count or execution order, and adding power
points or trials never perturbs existing cells.  Every worker count runs the
same plan: each power point's cells in near-equal chunks of at most _CHUNK,
one worker in turn and a process pool in parallel.  A chunk is solved as one
stacked pass whose draws are made and beam-searched a slab of _SLAB at a
time, each slab one record of stacks: each cell makes its own random calls,
and the draw's steering, path products and Rician mix run per slab.  A
one-cell chunk runs as run_cell, drawn as a slab of one.
"""

import contextlib
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .canceller import MAX_ROUTINGS, routing_count
from .channel import ArrayGeometry, ChannelRealization, _clustered_slab, _rician_slab, dump_matrix
from .codebook import dft_codebook
from .config import SweepConfig
from .numerics import count_regularizations, watts_to_dbm
from .trial import solve_trial, solve_trials

# Most cells per chunk.  A default-config one-worker run (6 x 1,000 cells)
# took about the same CPU time per cell in chunks of 24 to 64 cells, and its
# peak RSS grows with the chunk: 43.2 MiB cell by cell, 47.8 at 24, 49.1 at
# 34, 49.4-50.2 at 37.  34 is the least that runs 100 trials in 3 chunks.
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
    steering phases and their exp, the path products and the Rician mix run
    over the slab as one stack.  A bare generator draws a slab of one and
    gets its record unstacked."""
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
    return run_chunk(cfg, power_index, [trial_index], dump_dir)[0]


def run_chunk(cfg: SweepConfig, power_index: int, trial_indices: list[int],
              dump_dir: str | None = None) -> list[TrialSummary]:
    """Run cells of one power point end to end, as run_sweep does for every
    worker count: their channels are drawn a stacked slab of _SLAB cells at
    a time, each from its own stream, as solve_trials takes them, then their
    designs are solved as one stacked pass, with the same results as cell by
    cell.  A one-cell chunk, a slab of one, goes through solve_trial: the
    per-cell name that perfbench/tracing.py times."""
    power = cfg.powers_dbm[power_index]

    def draws():  # drawn as solve_trials takes them: one slab's SI channels are held
        for start in range(0, len(trial_indices), _SLAB):
            slab = trial_indices[start:start + _SLAB]
            h = draw_channels(cfg, [trial_rng(cfg.seed, power_index, ti) for ti in slab])
            if dump_dir is not None:
                for i, ti in enumerate(slab):
                    for link in ("dl", "ul", "si"):
                        dump_matrix(os.path.join(dump_dir, f"p{power_index}_t{ti}_{link}.txt"),
                                    getattr(h[i], f"h_{link}"))
            yield h

    node = replace(cfg.node, tx_power_dbm=power, ul_tx_power_dbm=power)
    codebook_tx = dft_codebook(node.tx_subarray, cfg.codebook_subsample_step)
    codebook_rx = dft_codebook(node.rx_subarray, cfg.codebook_subsample_step)
    args = (node, codebook_tx, codebook_rx, cfg.num_taps, cfg.impairments,
            cfg.strategy, cfg.shortlist_size)
    with count_regularizations(len(trial_indices)) as regularizations:
        if len(trial_indices) > 1:
            results = solve_trials(draws(), *args)
        else:
            results = [solve_trial(next(draws()), *args)]
    return [
        TrialSummary(  # TrialResult's reported numbers, copied by name
            power_dbm=power,
            power_index=power_index,
            trial_index=ti,
            regularizations=int(events),
            **{f.name: getattr(result, f.name)
               for f in fields(TrialSummary) if hasattr(result, f.name)},
        )
        for ti, events, result in zip(trial_indices, regularizations.events, results)
    ]


def _run_planned(cfg: SweepConfig, power_index: int, trial_indices: list[int],
                 dump_dir: str | None) -> list[TrialSummary]:
    """One chunk of run_sweep's plan: run_chunk, a one-cell chunk as
    run_cell, the per-cell span perfbench/tracing.py counts cells by."""
    if len(trial_indices) > 1:
        return run_chunk(cfg, power_index, trial_indices, dump_dir)
    return [run_cell(cfg, power_index, trial_indices[0], dump_dir)]


def run_sweep(cfg: SweepConfig,
              dump_dir: str | None = None) -> tuple[list[SweepRow], list[TrialSummary]]:
    """Run the full grid and reduce per-power means in trial-index order.
    For any worker count, each power point's trials run in the fewest
    near-equal chunks of at most _CHUNK cells and MAX_ROUTINGS routings:
    in turn on one worker, in parallel in a process pool of more."""
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
    node = cfg.node
    size = min(_CHUNK, MAX_ROUTINGS // routing_count(node.tx_chains, node.rx_chains, cfg.num_taps))
    n = -(-cfg.trials // size)  # chunks per power point
    plan = [(cfg, pi, list(range(k * cfg.trials // n, (k + 1) * cfg.trials // n)), dump_dir)
            for pi in range(len(cfg.powers_dbm)) for k in range(n)]
    with (ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1
          else contextlib.nullcontext()) as pool:
        chunks = (pool.map if pool else map)(_run_planned, *zip(*plan))
        summaries = [s for chunk in chunks for s in chunk]

    rows = []
    for pi, power in enumerate(cfg.powers_dbm):
        cell = summaries[pi * cfg.trials:(pi + 1) * cfg.trials]  # map keeps task order

        def mean(name: str) -> float:
            return float(np.mean([getattr(s, name) for s in cell]))
        rows.append(SweepRow(
            power_dbm=power,
            fd_rate=mean("fd_rate"),
            dl_rate=mean("dl_rate"),
            ul_rate=mean("ul_rate"),
            hd_rate=mean("hd_rate"),
            feasibility=mean("feasible"),
            mean_residual_si_dbm=watts_to_dbm(mean("max_residual_si_w")),
            trials=len(cell),
        ))
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
