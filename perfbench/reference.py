"""Correctness checks for benchmark sweeps, and the stored references.

At the reference seed every cell of a workload's reference grid is compared
with the stored record by a relative tolerance: the 6-digit CSV already
differs between BLAS builds, so bytes are not compared.  Cells drawn from any
other seed are checked for invariants instead.

Run ``python3 perfbench/reference.py`` to regenerate the stored references
(one sweep per workload at one worker).
"""

import json
import math
import os
import sys

from workloads import HERE, REFERENCE_SEED, WORKLOADS, load_fdhbf

REFERENCE_DIR = os.path.join(HERE, "reference")
RATE_FIELDS = ("dl_rate", "ul_rate", "fd_rate", "hd_rate")
EXACT_FIELDS = ("feasible", "dl_subspace_dim")
RATE_RTOL, RATE_ATOL = 1e-7, 1e-9      # bits/s/Hz
RESIDUAL_RTOL, RESIDUAL_ATOL = 1e-6, 1e-15  # W; 1e-15 W is -120 dBm
RECORD_FIELDS = ("power_index", "trial_index", *RATE_FIELDS, *EXACT_FIELDS,
                 "max_residual_si_w")


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name: str) -> dict:
    with open(reference_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def violates_invariants(s) -> bool:
    """Rates finite and >= 0, and the FD sum equal to DL + UL."""
    rates = [getattr(s, f) for f in RATE_FIELDS]
    if not all(math.isfinite(r) and r >= 0.0 for r in rates):
        return True
    if not (math.isfinite(s.max_residual_si_w) and s.max_residual_si_w >= 0.0):
        return True
    return not math.isclose(s.fd_rate, s.dl_rate + s.ul_rate, rel_tol=1e-12, abs_tol=1e-12)


def bad_cells(summaries, powers: int, trials: int) -> int:
    """Cells of a powers x trials sweep that are missing, repeated or break
    an invariant."""
    seen = {(s.power_index, s.trial_index) for s in summaries}
    expected = {(p, t) for p in range(powers) for t in range(trials)}
    missing = len(expected - seen) + (len(summaries) - len(seen))
    return missing + sum(1 for s in summaries if violates_invariants(s))


def _matches(s, rec: dict) -> bool:
    if any(getattr(s, f) != rec[f] for f in EXACT_FIELDS):
        return False
    if not all(math.isclose(getattr(s, f), rec[f], rel_tol=RATE_RTOL, abs_tol=RATE_ATOL)
               for f in RATE_FIELDS):
        return False
    return math.isclose(s.max_residual_si_w, rec["max_residual_si_w"],
                        rel_tol=RESIDUAL_RTOL, abs_tol=RESIDUAL_ATOL)


def mismatched_cells(summaries, reference: dict) -> list[tuple[int, int]]:
    """(power index, trial index) of every reference cell that is missing
    from `summaries` or differs from its record beyond tolerance, plus any
    cell the reference does not hold."""
    got = {(s.power_index, s.trial_index): s for s in summaries}
    bad = []
    for rec in reference["records"]:
        key = (rec["power_index"], rec["trial_index"])
        s = got.pop(key, None)
        if s is None or violates_invariants(s) or not _matches(s, rec):
            bad.append(key)
    return bad + sorted(got)


def generate(name: str) -> dict:
    fdhbf = load_fdhbf()
    wl = WORKLOADS[name]
    values = wl.config_values(REFERENCE_SEED, trials=wl.reference_trials, workers=1)
    cfg = fdhbf.config.config_from_values(values)
    _, summaries = fdhbf.sweep.run_sweep(cfg)
    records = [
        {f: getattr(s, f) for f in RECORD_FIELDS}
        for s in sorted(summaries, key=lambda s: (s.power_index, s.trial_index))
    ]
    return {"workload": name, "seed": REFERENCE_SEED, "trials": wl.reference_trials,
            "powers_dbm": list(cfg.powers_dbm), "records": records}


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in WORKLOADS:
        ref = generate(name)
        with open(reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {len(ref['records'])} cells -> {reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
