"""Record every cell's outputs over a fixed config matrix, and compare two
such records bit for bit.

A change that claims not to move any number is checked by recording the
outputs on the old and on the new code and comparing the two files:

    python tools/compare_outputs.py record old.npz --src /path/to/old/src
    python tools/compare_outputs.py record new.npz
    python tools/compare_outputs.py compare old.npz new.npz

`record` runs `sweep.run_cell` at seed 7 over 6 powers x 20 trials of each
config in CONFIGS (1,440 cells) and writes, per cell, every `TrialSummary`
field plus the drawn channels and the design `solve_trial` returned inside
that call: f_bb, w_bb, f_ul, h_si_eff, the beam indices, the routing, the
tap values and the beam-search objective.  `--src` imports fdhbf from
another checkout's `src` (default: this one's).  `compare` lists each cell
whose arrays differ in shape, dtype or any bit, with the fields that do,
and exits 1 if any cell differs.
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
    "ul_2_antennas": {"node.ul_tx_antennas": 2},
    "tx_8_chains": {"node.tx_chains": 8, "canceller.taps": 2},
    "pathloss_400": {"channel.pathloss_db": 400.0},
    "square_pathloss_400": {**SQUARE, "channel.pathloss_db": 400.0},
    # one-antenna TX chains: a one-beam codebook, so the beam scan's blocks
    # are sized by chain count alone
    "one_beam_tx": {"node.tx_chains": 12, "node.tx_antennas": 12, "canceller.taps": 2},
}


def record(path: str, src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from fdhbf import sweep
    from fdhbf.config import config_from_values

    captured = []
    solve_trial = sweep.solve_trial

    def capture(channels, *args, **kwargs):
        result = solve_trial(channels, *args, **kwargs)
        captured.append((channels, result))
        return result

    sweep.solve_trial = capture  # run_cell calls it through the module
    out = {}
    for name, values in CONFIGS.items():
        cfg = config_from_values({**values, "sweep.seed": SEED, "sweep.trials": TRIALS})
        for pi in range(len(cfg.powers_dbm)):
            for ti in range(TRIALS):
                captured.clear()
                summary = sweep.run_cell(cfg, pi, ti)
                (channels, res), = captured
                fields = {
                    **asdict(summary),
                    "h_dl": channels.h_dl, "h_ul": channels.h_ul, "h_si": channels.h_si,
                    "f_bb": res.f_bb, "w_bb": res.w_bb, "f_ul": res.f_ul,
                    "h_si_eff": res.h_si_eff,
                    "tx_beams": res.f_rf.beam_indices, "rx_beams": res.w_rf.beam_indices,
                    "routing": np.array(res.canceller.routing.taps, dtype=int).reshape(-1, 2),
                    "tap_values": res.canceller.values,
                    "beam_search_objective": res.beam_search_objective,
                }
                for field, value in fields.items():
                    out[f"{name}/{pi}/{ti}/{field}"] = np.asarray(value)
        print(f"{name}: {len(cfg.powers_dbm) * TRIALS} cells", flush=True)
    sweep.solve_trial = solve_trial
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
            x, y = a[key], b[key]
            if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
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
    cmp = sub.add_parser("compare", help="list the cells whose outputs differ")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.output, args.src)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
