"""Command-line interface.

``fdhbf run --config <path>`` executes the configured power sweep and writes
the aggregate CSV; ``fdhbf validate --config <path>`` checks a config and
reports every problem.  Override flags are validated exactly like config
file keys, so a config that ``validate`` accepts runs.  Exit codes: 0 success,
1 config error, 2 I/O or runtime error.
"""

import argparse
import sys

from .config import ConfigError, load_config, with_overrides
from .sweep import CSV_HEADER, csv_row, emit_csv, emit_trials_csv, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdhbf",
        description="Full-duplex hybrid-beamforming rate sweep simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured power sweep")
    run.add_argument("--config", required=True, help="path to the sweep config file")
    # override values are text, converted and validated like config file values
    run.add_argument("--trials", help="override sweep.trials")
    run.add_argument("--seed", help="override sweep.seed")
    run.add_argument("--power-grid", help="override sweep.powers_dbm, e.g. '0,10,20'")
    run.add_argument("--strategy", help="override sweep.strategy (shortlist or exhaustive)")
    run.add_argument("--shortlist", help="override sweep.shortlist")
    run.add_argument("--workers", help="override sweep.workers")
    run.add_argument("--output", help="override sweep.output (aggregate CSV path)")
    run.add_argument("--plot-data", help="also write per-trial records to this CSV")
    run.add_argument("--dump-channels", metavar="DIR",
                     help="write every drawn channel matrix into DIR")

    val = sub.add_parser("validate", help="parse and validate a config file")
    val.add_argument("--config", required=True, help="path to the sweep config file")
    return parser


def _cmd_run(args) -> int:
    cfg = with_overrides(
        load_config(args.config),
        trials=args.trials,
        seed=args.seed,
        powers_dbm=args.power_grid,
        strategy=args.strategy,
        shortlist_size=args.shortlist,
        workers=args.workers,
        output=args.output,
    )
    print(f"running {len(cfg.powers_dbm)} power points x {cfg.trials} trials "
          f"({cfg.strategy} beam search, {cfg.workers} worker(s))")
    print(CSV_HEADER)
    rows, summaries = run_sweep(cfg, dump_dir=args.dump_channels)
    for row in rows:
        print(csv_row(row))
    emit_csv(rows, cfg.output)
    print(f"wrote {cfg.output}")
    if args.plot_data:
        emit_trials_csv(summaries, args.plot_data)
        print(f"wrote {args.plot_data}")
    regs = sum(s.regularizations for s in summaries)
    if regs:
        print(f"note: {regs} factorization(s) needed diagonal regularization")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    node = cfg.node
    print(f"config OK: {node.tx_antennas}x{node.rx_antennas} antennas, "
          f"{node.tx_chains}+{node.rx_chains} chains, {cfg.num_taps} tap(s), "
          f"{len(cfg.powers_dbm)} power point(s), {cfg.trials} trial(s)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
