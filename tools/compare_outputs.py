"""Record every cell's outputs over a fixed config matrix, and compare two
such records bit for bit.

A change that claims not to move any number is checked by recording the
outputs on the old and on the new code and comparing the two files:

    python tools/compare_outputs.py record old.npz --src /path/to/old/src
    python tools/compare_outputs.py record new.npz
    python tools/compare_outputs.py compare old.npz new.npz

`record` runs `sweep.run_cell` at seed 7 over 6 powers x 20 trials of each
config in CONFIGS (1,800 cells) and writes, per cell, every `TrialSummary`
field plus the drawn channels and the design `solve_trial` returned inside
that call: f_bb, w_bb, f_ul, h_si_eff, the beam indices, the routing, the
tap values and the beam-search objective.  With `--chunked` it runs the same
cells through `sweep.run_chunk`, one chunk of 20 per power point, and
records the designs `solve_trials` returned, so that the sweep's stacked
path is checked against a per-cell record.  Channels are recorded per draw,
whether the solver was passed stacked slabs or one-draw records.  `--src`
imports fdhbf from another checkout's `src` (default: this one's), and an
fdhbf imported from anywhere else, say through PYTHONPATH, raises ImportError.
`compare` lists each cell whose arrays differ in shape, dtype or any bit,
with the fields that do, and exits 1 if any cell differs.
"""

import argparse
import os
import sys
from collections import defaultdict
from dataclasses import asdict

import numpy as np

SEED = 7
TRIALS = 20
SQUARE = {"node.rx_chains": 4, "canceller.taps": 2}
CONFIGS = {
    "default": {},
    "impaired": {"canceller.impaired": True},
    "square": SQUARE,
    "square_impaired": {**SQUARE, "canceller.impaired": True},
    "taps_off": {"canceller.taps": 0},
    "exhaustive": {"sweep.strategy": "exhaustive"},
    "los_only": {"si.k_factor_db": float("inf")},
    # the draw's two special branches: no Laplacian offsets, no LOS term
    "no_angle_spread": {"channel.angle_spread_rad": 0.0},
    "pure_scatter": {"si.k_factor_db": float("-inf")},
    "ul_2_antennas": {"node.ul_tx_antennas": 2},
    "tx_8_chains": {"node.tx_chains": 8, "canceller.taps": 2},
    "pathloss_400": {"channel.pathloss_db": 400.0},
    "square_pathloss_400": {**SQUARE, "channel.pathloss_db": 400.0},
    # one-antenna TX chains: a one-beam codebook, so the beam scan's blocks
    # are sized by chain count alone
    "one_beam_tx": {"node.tx_chains": 12, "node.tx_antennas": 12, "canceller.taps": 2},
    # 4^7 shortlist block prefixes: the only config whose beam scan runs
    # past its first prefix chunk
    "tx_11_chains": {"node.tx_chains": 11, "node.tx_antennas": 44, "canceller.taps": 1},
}


def per_draw(channels) -> list:
    """The per-draw records of a channel record: each row of a slab's
    (draws, rows, cols) stacks, or a one-draw record as it is."""
    links = [np.reshape(h, (-1, *np.shape(h)[-2:]))
             for h in (channels.h_dl, channels.h_ul, channels.h_si)]
    return [type(channels)(*draw) for draw in zip(*links)]


def cell_outputs(sweep, cfg, power_index: int, trials, chunked: bool = False) -> list[dict]:
    """Each cell's outputs as arrays, by field, for the cells (power_index, t)
    of `trials`: run one by one through `sweep.run_cell`, or as one
    `sweep.run_chunk` with `chunked`."""
    target = "solve_trials" if chunked else "solve_trial"
    solve, captured = getattr(sweep, target), []

    def capture(channels, *args, **kwargs):
        if chunked:
            # run_chunk passes an iterator, which solve_trials draws a slab at
            # a time; the record keeps every draw, so it takes them all first
            channels = list(channels)
        results = solve(channels, *args, **kwargs)
        slabs = channels if chunked else [channels]
        captured.extend(zip([d for slab in slabs for d in per_draw(slab)],
                            results if chunked else [results]))
        return results

    setattr(sweep, target, capture)  # run_cell and run_chunk call it through the module
    try:
        if chunked:
            summaries = sweep.run_chunk(cfg, power_index, list(trials))
        else:
            summaries = [sweep.run_cell(cfg, power_index, t) for t in trials]
    finally:
        setattr(sweep, target, solve)
    if len(captured) != len(summaries):
        raise RuntimeError(f"captured {len(captured)} designs for {len(summaries)} cells")
    return [
        {field: np.asarray(value) for field, value in {
            **asdict(summary),
            "h_dl": channels.h_dl, "h_ul": channels.h_ul, "h_si": channels.h_si,
            "f_bb": res.f_bb, "w_bb": res.w_bb, "f_ul": res.f_ul,
            "h_si_eff": res.h_si_eff,
            "tx_beams": res.f_rf.beam_indices, "rx_beams": res.w_rf.beam_indices,
            "routing": np.array(res.canceller.routing.taps, dtype=int).reshape(-1, 2),
            "tap_values": res.canceller.values,
            "beam_search_objective": res.beam_search_objective,
        }.items()}
        for summary, (channels, res) in zip(summaries, captured)
    ]


def differ(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether two arrays differ in shape, dtype or any bit."""
    return x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes()


def record(path: str, src: str, chunked: bool = False) -> None:
    src = os.path.realpath(src)
    sys.path.insert(0, src)
    import fdhbf

    origin = os.path.dirname(os.path.realpath(fdhbf.__file__))
    if os.path.dirname(origin) != src:
        raise ImportError(f"fdhbf was imported from {origin}, not from {src}")
    from fdhbf import sweep
    from fdhbf.config import config_from_values

    out = {}
    for name, values in CONFIGS.items():
        cfg = config_from_values({**values, "sweep.seed": SEED, "sweep.trials": TRIALS})
        for pi in range(len(cfg.powers_dbm)):
            cells = cell_outputs(sweep, cfg, pi, range(TRIALS), chunked)
            for ti, fields in enumerate(cells):
                for field, value in fields.items():
                    out[f"{name}/{pi}/{ti}/{field}"] = value
        print(f"{name}: {len(cfg.powers_dbm) * TRIALS} cells", flush=True)
    np.savez_compressed(path, **out)


def compare(path_a: str, path_b: str) -> int:
    with np.load(path_a) as a, np.load(path_b) as b:
        in_a, in_b = set(a.files), set(b.files)
        keys = sorted(in_a | in_b)
        diffs = defaultdict(list)
        for key in keys:
            cell, field = key.rsplit("/", 1)
            if key not in in_a or key not in in_b:
                diffs[cell].append(f"{field} (missing)")
                continue
            if differ(a[key], b[key]):
                diffs[cell].append(field)
    cells = {key.rsplit("/", 1)[0] for key in keys}
    for cell in sorted(diffs):
        print(f"{cell}: {', '.join(diffs[cell])}")
    print(f"{len(diffs)} of {len(cells)} cells differ")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the config matrix and write its outputs")
    rec.add_argument("output", help="the .npz file to write")
    rec.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                     help="the src directory fdhbf is imported from")
    rec.add_argument("--chunked", action="store_true",
                     help="run each power point's cells as one sweep.run_chunk")
    cmp = sub.add_parser("compare", help="list the cells whose outputs differ")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.output, args.src, args.chunked)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
