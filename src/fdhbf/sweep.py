"""Monte-Carlo power sweep: scheduling, aggregation, CSV emission.

Each (power index, trial index) cell owns an independent random stream
derived with ``SeedSequence(seed, spawn_key=(power_index, trial_index))``, so
results do not depend on worker count or execution order, and adding power
points or trials never perturbs existing cells.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import ArrayGeometry, ChannelRealization, clustered_channel, dump_matrix, rician_si_channel
from .codebook import dft_codebook
from .config import SweepConfig
from .numerics import count_regularizations, watts_to_dbm
from .trial import solve_trial


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


def draw_channels(cfg: SweepConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one trial's three channels (order: downlink, uplink, SI)."""
    node = cfg.node
    s = cfg.array_spacing_wavelengths
    geom_tx = ArrayGeometry(node.tx_antennas, s)
    geom_rx = ArrayGeometry(node.rx_antennas, s)
    geom_dl = ArrayGeometry(node.dl_rx_antennas, s)
    geom_ul = ArrayGeometry(node.ul_tx_antennas, s)
    h_dl = clustered_channel(geom_dl, geom_tx, cfg.clustered, rng)
    h_ul = clustered_channel(geom_rx, geom_ul, cfg.clustered, rng)
    h_si = rician_si_channel(geom_rx, geom_tx, cfg.si, rng)
    return ChannelRealization(h_dl=h_dl, h_ul=h_ul, h_si=h_si)


def run_cell(cfg: SweepConfig, power_index: int, trial_index: int,
             dump_dir: str | None = None) -> TrialSummary:
    """Run one (power, trial) cell end to end."""
    power = cfg.powers_dbm[power_index]
    rng = trial_rng(cfg.seed, power_index, trial_index)
    channels = draw_channels(cfg, rng)
    if dump_dir is not None:
        stem = os.path.join(dump_dir, f"p{power_index}_t{trial_index}")
        dump_matrix(f"{stem}_dl.txt", channels.h_dl)
        dump_matrix(f"{stem}_ul.txt", channels.h_ul)
        dump_matrix(f"{stem}_si.txt", channels.h_si)
    node = replace(cfg.node, tx_power_dbm=power, ul_tx_power_dbm=power)
    codebook_tx = dft_codebook(node.tx_subarray, cfg.codebook_subsample_step)
    codebook_rx = dft_codebook(node.rx_subarray, cfg.codebook_subsample_step)
    with count_regularizations() as regularizations:
        result = solve_trial(
            channels, node, codebook_tx, codebook_rx, cfg.num_taps, cfg.impairments,
            strategy=cfg.strategy, shortlist_size=cfg.shortlist_size,
        )
    return TrialSummary(  # TrialResult's reported numbers, copied by name
        power_dbm=power,
        power_index=power_index,
        trial_index=trial_index,
        regularizations=regularizations.events,
        **{f.name: getattr(result, f.name)
           for f in fields(TrialSummary) if hasattr(result, f.name)},
    )


def run_sweep(cfg: SweepConfig,
              dump_dir: str | None = None) -> tuple[list[SweepRow], list[TrialSummary]]:
    """Run the full grid and reduce per-power means in trial-index order."""
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
    tasks = [
        (cfg, pi, ti, dump_dir)
        for pi in range(len(cfg.powers_dbm))
        for ti in range(cfg.trials)
    ]
    if cfg.workers <= 1:
        summaries = [run_cell(*t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (cfg.workers * 8))
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            summaries = list(pool.map(run_cell, *zip(*tasks), chunksize=chunk))

    rows = []
    for pi, power in enumerate(cfg.powers_dbm):
        cell = summaries[pi * cfg.trials:(pi + 1) * cfg.trials]  # pool.map keeps task order

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
