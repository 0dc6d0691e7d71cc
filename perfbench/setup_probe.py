"""One set-up of a benchmark workload, timed by the process that starts it.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports fdhbf, builds the workload's config through ``config_from_values``
and runs one untimed warm-up cell, then prints ``ready`` and the reading of
the monotonic clock, which the parent compares with its reading at start.
"""

import sys
import time

from workloads import WORKLOADS, load_fdhbf


def main(name: str, seed: int) -> None:
    fdhbf = load_fdhbf()
    cfg = fdhbf.config.config_from_values(WORKLOADS[name].config_values(seed))
    fdhbf.sweep.run_cell(cfg, 0, 0)
    print("ready", time.monotonic(), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
