"""Record every cell's outputs over a fixed config matrix, and compare two
such records bit for bit, or decisions and values apart.

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
cells through `sweep.run_chunk`, one chunk of 20 per power point, and with
`--spanning` in runs of 13 cells of the (power, trial) grid, chunks that
span power points; either records the designs `solve_trials` returned
(one record of draws, or an older checkout's list of per-draw results;
the tool iterates either draw by draw), so that the sweep's stacked path
is checked against a per-cell record.  Both
need a `run_chunk` that takes (power index, trial index) pairs.  Channels
are recorded per draw, whether the solver was passed stacked slabs or
one-draw records.  `--src` imports fdhbf from another checkout's `src`
(default: this one's), and an fdhbf imported from anywhere else, say through
PYTHONPATH, raises ImportError.
`compare` lists each cell whose arrays differ in shape, dtype or any bit,
with the fields that do, and exits 1 if any cell differs.

`compare --rtol R` is the gate for a change that moves last bits.  It
splits each cell's fields into decisions and values:

- decisions, in pipeline order: the beams (`tx_beams`, `rx_beams`), the
  routing (`routing`, `feasible`), the DL design (`dl_subspace_dim`, the
  column count of `f_bb`) and the uplink design (the column counts of
  `w_bb` and `f_ul`);
- values: the rates, `beam_search_objective` and `max_residual_si_w`,
  relative to the old record beyond perfbench/reference.py's floors (rates
  1e-9 bits/s/Hz, residuals 1e-15 W); the channels, `h_si_eff` and
  `tap_values` by Frobenius norm relative to the old one; `f_bb`, `w_bb` and
  `f_ul` as `f f^H`, which a rotated singular vector's phase does not move;
  the regularization count and the cell's indices exactly.

In a cell whose decisions all stay, every value must lie within R.  The
first stage whose decision moved has a ranking key: the beam search's
objective; for the routing, the winner's `dl_rate` if both records'
winners are feasible, its worst-chain leak `max_residual_si_w` if both are
infeasible, and none if feasibility moved.  A move whose key moved by at
most R (relative) is a *tie flip*: the cell is listed with its key gap, the
later stages' moved decisions and its moved values, old -> new, none of them
judged.  Any other moved decision fails the cell.  The report ends with the
largest deviation of each value field over the cells with no moved
decision, and exits 1 if any cell fails.

This tie criterion is this gate's own.  The program ranks routings and
beams on exact floats and has no tie tolerance (ROADMAP item 2 step A
plans one); R here only says which moved decisions rounding can explain.
"""

import argparse
import os
import sys
from collections import defaultdict
from dataclasses import asdict

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from reference import RATE_ATOL, RESIDUAL_ATOL  # noqa: E402

SEED = 7
TRIALS = 20
SPAN = 13  # cells per chunk with --spanning: 120 cells are 9 runs of 13 and one of 3
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
    """The per-draw records of a channel record: each draw of a slab's
    (draws, rows, cols) stacks, record[i], or a one-draw record as it is."""
    return [channels] if channels.h_dl.ndim == 2 else list(channels)


def cell_outputs(sweep, cfg, cells: list, chunk: int | None = None) -> list[dict]:
    """Each cell's outputs as arrays, by field, for the (power index, trial
    index) pairs `cells`: run one by one through `sweep.run_cell`, or with
    `chunk` in order through `sweep.run_chunk`, in runs of `chunk` cells
    (none of one cell, which run_chunk solves as run_cell does)."""
    chunked = chunk is not None
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
            summaries = [s for k in range(0, len(cells), chunk)
                         for s in sweep.run_chunk(cfg, cells[k:k + chunk])]
        else:
            summaries = [sweep.run_cell(cfg, *cell) for cell in cells]
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


def record(path: str, src: str, chunk: int | None = None) -> None:
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
        grid = [(pi, ti) for pi in range(len(cfg.powers_dbm)) for ti in range(TRIALS)]
        for (pi, ti), fields in zip(grid, cell_outputs(sweep, cfg, grid, chunk)):
            for field, value in fields.items():
                out[f"{name}/{pi}/{ti}/{field}"] = value
        print(f"{name}: {len(cfg.powers_dbm) * TRIALS} cells", flush=True)
    np.savez_compressed(path, **out)


def compare(path_a: str, path_b: str, rtol: float | None = None) -> int:
    with np.load(path_a) as a, np.load(path_b) as b:
        if rtol is not None:
            return compare_within(a, b, rtol)
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


# decision stages in pipeline order, each a name and its fields; "#f" is the
# column count of matrix f
STAGES = (("beams", ("tx_beams", "rx_beams")),
          ("routing", ("routing", "feasible")),
          ("DL design", ("dl_subspace_dim", "#f_bb")),
          ("uplink", ("#w_bb", "#f_ul")))
FLOORS = {**dict.fromkeys(("dl_rate", "ul_rate", "fd_rate", "hd_rate"), RATE_ATOL),
          "max_residual_si_w": RESIDUAL_ATOL, "beam_search_objective": 0.0}
MATRICES = ("h_dl", "h_ul", "h_si", "h_si_eff", "tap_values")
PROJECTORS = ("f_bb", "w_bb", "f_ul")


def moved_decisions(a: dict, b: dict) -> dict:
    """Each stage's moved decision fields, by stage, over the fields both
    cells hold."""
    def value(cell, field):
        return cell[field[1:]].shape[-1] if field.startswith("#") else cell[field]

    return {stage: moved for stage, fields in STAGES
            if (moved := [f for f in fields if f.lstrip("#") in a and f.lstrip("#") in b
                          and differ(np.asarray(value(a, f)), np.asarray(value(b, f)))])}


def key_gap(stage: str, a: dict, b: dict) -> tuple[str | None, float]:
    """The ranking key of a stage's decision and its relative move from
    record a to b; (None, inf) where the stage has no key or it changed
    meaning."""
    key = None
    if stage == "beams":
        key = "beam_search_objective"
    elif stage == "routing" and bool(a["feasible"]) == bool(b["feasible"]):
        key = "dl_rate" if a["feasible"] else "max_residual_si_w"
    if key not in a or key not in b:
        return None, float("inf")
    return key, relative(abs(float(a[key])), abs(float(b[key]) - float(a[key])))


def relative(scale: float, gap: float, floor: float = 0.0) -> float:
    """A gap beyond floor, relative to scale: 0 within the floor."""
    excess = max(0.0, gap - floor)
    return 0.0 if not excess else excess / scale if scale else float("inf")


def value_deviation(field: str, x: np.ndarray, y: np.ndarray) -> float:
    """How far a value field moved from x to y, in the units R bounds."""
    if field in PROJECTORS:
        x, y = x @ x.conj().T, y @ y.conj().T
    if x.shape != y.shape:
        return float("inf")
    if field in FLOORS:
        return relative(abs(float(x)), abs(float(y) - float(x)), FLOORS[field])
    if field in MATRICES or field in PROJECTORS:
        return relative(np.linalg.norm(x), np.linalg.norm(y - x))
    return float("inf") if differ(x, y) else 0.0  # counts and indices: exact


def compare_within(a, b, rtol: float) -> int:
    """compare --rtol: the decisions-and-values verdict of each cell, as in
    the module docstring."""
    cells = defaultdict(dict)
    for rec, side in ((a, 0), (b, 1)):
        for key in rec.files:
            cell, field = key.rsplit("/", 1)
            cells[cell].setdefault(side, {})[field] = rec[key]
    largest, ties, failed = {}, 0, 0
    for name in sorted(cells):
        x, y = cells[name].get(0, {}), cells[name].get(1, {})
        missing = sorted(set(x) ^ set(y))
        deviations = {f: value_deviation(f, x[f], y[f]) for f in sorted(set(x) & set(y))
                      if not any(f in fields for _, fields in STAGES)}
        beyond = {f: d for f, d in deviations.items() if d > rtol}
        moved = moved_decisions(x, y)
        if not moved:
            for f, d in deviations.items():
                largest[f] = max(largest.get(f, (0.0, name)), (d, name))
            if beyond or missing:
                failed += 1
                print(f"{name}: FAIL " + ", ".join(
                    [f"{f} {d:.3g}" for f, d in beyond.items()]
                    + [f"{f} (missing)" for f in missing]))
            continue
        (stage, fields), *later = moved.items()
        key, gap = key_gap(stage, x, y)
        what = f"{stage} ({', '.join(fields)})"
        keyed = f"{key} key gap {gap:.3g}" if key else "no ranking key"
        if gap > rtol or missing:
            failed += 1
            print(f"{name}: FAIL {what} moved, {keyed}")
            continue
        ties += 1
        shown = [f"{f} {float(x[f]):.6g} -> {float(y[f]):.6g}" if x[f].ndim == 0
                 else f"{f} {d:.3g}" for f, d in beyond.items()]
        print(f"{name}: tie flip of {what}, {keyed}"
              + "".join(f"; then {s} ({', '.join(fs)})" for s, fs in later)
              + (f"; values, not judged: {', '.join(shown)}" if shown else ""))
    print("largest deviation beyond the floors, cells with no moved decision: "
          + ", ".join(f"{f} {d:.3g}" + (f" ({cell})" if d else "")
                      for f, (d, cell) in sorted(largest.items())))
    print(f"{len(cells)} cells at rtol {rtol:g}: {ties} tie flips, {failed} fail")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the config matrix and write its outputs")
    rec.add_argument("output", help="the .npz file to write")
    rec.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                     help="the src directory fdhbf is imported from")
    mode = rec.add_mutually_exclusive_group()
    mode.add_argument("--chunked", action="store_const", dest="chunk", const=TRIALS,
                      help="run each power point's cells as one sweep.run_chunk")
    mode.add_argument("--spanning", action="store_const", dest="chunk", const=SPAN,
                      help=f"run the grid's cells in sweep.run_chunk runs of {SPAN}, "
                           "across power points")
    cmp = sub.add_parser("compare", help="list the cells whose outputs differ")
    cmp.add_argument("a")
    cmp.add_argument("b")
    cmp.add_argument("--rtol", type=float,
                     help="judge decisions and values apart, values within this relative "
                          "tolerance (default: bit for bit)")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.output, args.src, args.chunk)
        return 0
    return compare(args.a, args.b, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
