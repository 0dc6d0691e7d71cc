"""The benchmark's workloads and how the benchmark finds the program.

Each workload is a set of config keys over the fdhbf defaults.  All of them
use the default 0-50 dBm power grid; the benchmark chooses the seed and the
number of trials per sweep.  Why each workload exists is in README.md and
BENCHMARK.json.
"""

import os
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The seed the stored references were generated at (the config default).
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    values: dict
    sweep_trials: int      # trials per power point in one timed sweep
    reference_trials: int  # trials per power point in the stored reference

    def config_values(self, seed: int, trials: int | None = None,
                      workers: int | None = None, powers=None) -> dict:
        """Config keys for one sweep of this workload."""
        v = dict(self.values)
        v["sweep.seed"] = seed
        v["sweep.trials"] = self.sweep_trials if trials is None else trials
        if workers is not None:
            v["sweep.workers"] = workers
        if powers is not None:
            v["sweep.powers_dbm"] = tuple(powers)
        return v


# Timed sweeps are short (0.3-1 s on a 2-vCPU x86 guest), so that the
# machine-speed calibration around each one tracks the speed during it; the
# pooled sweep is larger to amortize starting its process pool.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_grid",
            {"sweep.workers": 1},
            sweep_trials=4,
            reference_trials=4,
        ),
        Workload(
            "exhaustive_beams",
            {"sweep.strategy": "exhaustive", "sweep.workers": 1},
            sweep_trials=1,
            reference_trials=2,
        ),
        Workload(
            "square_impaired",
            {"node.rx_chains": 4, "canceller.taps": 2, "canceller.impaired": True,
             "sweep.workers": 1},
            sweep_trials=2,
            reference_trials=4,
        ),
        Workload(
            "pooled_taps_off",
            {"canceller.taps": 0, "sweep.workers": 2},
            sweep_trials=100,
            reference_trials=16,
        ),
    )
}


def load_fdhbf():
    """Import fdhbf from this checkout's ``src`` and from nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fdhbf

    origin = os.path.dirname(os.path.abspath(fdhbf.__file__))
    if os.path.dirname(origin) != SRC:
        raise ImportError(f"fdhbf was imported from {origin}, not from {SRC}")
    return fdhbf
