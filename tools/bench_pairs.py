"""Run the benchmark on a parent checkout and on this one in alternating
pairs, and judge each end-to-end metric by the pairs rule.

    python tools/bench_pairs.py --parent /path/to/parent --seed 1801 --pairs 10 \
        [--baseline REV] [--seconds 20] [--workload exhaustive_beams ...] [--json pairs.json]

Pair i runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` (S = seed + i) in the parent's checkout and in this one, one
after the other: the parent first at odd S, this checkout first at even S.
For each workload (default: every workload of this checkout's
BENCHMARK.json) and each end-to-end metric there, it prints each side's
median and quartiles over the pairs, the pairs the change wins (ties count
for neither), the median of the per-pair ratios change / parent, and the
parent's spread, its interquartile range over its median.  `gain` holds
when the change wins at least nine tenths of the pairs and its median beats
the parent's by more than the parent's interquartile range; `within bound`
when the change's median is worse than the parent's by no more than the
metric's bound in BENCHMARK.json.  Failed cells are summed per side.  The
runs write only what perfbench/run.py writes (`.perfbench_out/` of each
checkout); `--json` also saves every run's metrics and the verdicts.

`--baseline REV` adds a third side, a reference tree such as the last
re-anchor's: a checkout directory, or a git revision of this repository,
which is extracted with `git archive` into a temporary directory and removed
afterwards.  Each pair then also runs it, first at odd S and last at even S
(so the run order reverses from pair to pair), and beside each metric's
parent ratio the report gives the change's median per-pair ratio to the
baseline and the pairs it wins against it, the same rule as against the
parent.  That ratio is reported, not judged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a checkout: its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def judge(parent: list, change: list, better: str, bound: float) -> dict:
    """The pairs rule for one metric's runs, pair by pair."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gap = sign * (c["median"] - p["median"])
    worse_by = max(0.0, -gap / p["median"])
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "median_ratio": statistics.median(b / a for a, b in zip(parent, change)),
            "parent_spread": (p["q3"] - p["q1"]) / p["median"],
            "gain": wins >= 0.9 * len(parent) and gap > p["q3"] - p["q1"],
            "worse_by": worse_by, "within_bound": worse_by <= bound,
            "parent_runs": parent, "change_runs": change}


def measure(workload: str, checkouts: dict, metrics: list, args) -> dict:
    """Run args.pairs pairs of one workload on each side of checkouts, in
    its order at odd seeds and reversed at even ones, print the report and
    return its record."""
    runs = {side: [] for side in checkouts}
    for seed in range(args.seed, args.seed + args.pairs):
        for side in list(checkouts)[::1 if seed % 2 else -1]:
            runs[side].append(run(checkouts[side], workload, seed, args.seconds))
        print(f"{workload} seed {seed}: done", file=sys.stderr)
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"{workload}: {args.pairs} pairs, failed cells "
          + ", ".join(f"{side} {n}" for side, n in failed.items()))
    verdicts = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        v = verdicts[name] = judge(values["parent"], values["change"], metric["better"],
                                   metric["bound"])
        p, c = v["parent"], v["change"]
        line = (f"  {name} ({metric['better']} is better): "
                f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}], "
                f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}], "
                f"wins {v['wins']}/{v['pairs']}, median ratio x{v['median_ratio']:.3f}, "
                f"parent spread {v['parent_spread']:.3f}, gain {'yes' if v['gain'] else 'no'}, "
                f"within bound {'yes' if v['within_bound'] else 'no'}")
        if "baseline" in values:
            b = judge(values["baseline"], values["change"], metric["better"], metric["bound"])
            v["baseline"] = {**b["parent"], "median_ratio": b["median_ratio"], "wins": b["wins"],
                             "runs": values["baseline"]}
            line += (f"; baseline {b['parent']['median']:.4g}, "
                     f"ratio to baseline x{b['median_ratio']:.3f}, wins {b['wins']}/{b['pairs']}")
        print(line)
    return {"seeds": [args.seed, args.seed + args.pairs - 1], "failed": failed,
            "metrics": verdicts}


def checkout_of(rev: str, tmp: str) -> str:
    """A checkout directory as it is, else revision rev of this repository
    extracted under tmp."""
    if os.path.isdir(rev):
        return rev
    tree = os.path.join(tmp, "baseline")
    os.mkdir(tree)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return tree


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit's checkout")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--baseline", metavar="REV",
                        help="also run this checkout or git revision, and report ratios to it")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--json", help="write every run and verdict to this file")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"parent": args.parent, "change": ROOT}
        if args.baseline:
            checkouts = {"baseline": checkout_of(args.baseline, tmp), **checkouts}
        for workload in args.workload or [w["name"] for w in bench["workloads"]]:
            report[workload] = measure(workload, checkouts, bench["end_to_end"], args)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
