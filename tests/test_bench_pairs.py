"""tools/bench_pairs.py: the pairs rule on one metric's runs, and the
three-way report on canned runs."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
import bench_pairs  # noqa: E402
from bench_pairs import judge  # noqa: E402

# quartiles 98.25, 100, 101.75
PARENT = [100.0, 104.0, 96.0, 102.0, 98.0, 100.0, 103.0, 97.0, 101.0, 99.0]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parents_spread():
    change = [p + 10.0 for p in PARENT]
    change[3] = 101.0  # one pair lost
    won = judge(PARENT, change, "higher", 0.25)
    assert won["wins"] == 9 and won["gain"] and won["within_bound"] and won["worse_by"] == 0.0
    assert won["parent_spread"] == pytest.approx(3.5 / 100.0)

    change[5] = 99.0  # a second pair lost: 8 of 10
    assert not judge(PARENT, change, "higher", 0.25)["gain"]
    # every pair won, but the medians differ by less than the parent's quartile distance
    assert not judge(PARENT, [p + 1.0 for p in PARENT], "higher", 0.25)["gain"]


def test_lower_is_better_and_the_bound_is_relative_to_the_parents_median():
    faster = judge(PARENT, [p - 10.0 for p in PARENT], "lower", 0.1)
    assert faster["wins"] == 10 and faster["gain"] and faster["median_ratio"] < 1.0
    slower = judge(PARENT, [p * 1.2 for p in PARENT], "lower", 0.1)
    assert slower["wins"] == 0 and slower["worse_by"] == pytest.approx(0.2)
    assert not slower["within_bound"]
    assert judge(PARENT, [p * 1.05 for p in PARENT], "lower", 0.1)["within_bound"]


def canned_run(speeds: dict, calls: list):
    """A stand-in for bench_pairs.run: each checkout's cells_per_s is its
    speed plus the seed, its other metrics constant, and no cell fails."""
    def run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        metrics = {"cells_per_s": speeds[checkout] + seed, "setup_s": 0.3, "peak_rss_mb": 50.0}
        return {"failed": 0, "metrics": {k: {"value": v} for k, v in metrics.items()}}
    return run


def test_a_baseline_checkout_runs_in_every_pair_and_is_reported_beside_the_parent(
        monkeypatch, tmp_path, capsys):
    parent, baseline = str(tmp_path / "parent"), str(tmp_path / "baseline")
    os.mkdir(parent)
    os.mkdir(baseline)
    change = bench_pairs.ROOT
    calls = []
    monkeypatch.setattr(bench_pairs, "run", canned_run(
        {parent: 100.0, baseline: 110.0, change: 121.0}, calls))
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", parent, "--baseline", baseline, "--seed", "1",
                             "--pairs", "4", "--workload", "exhaustive_beams",
                             "--json", str(out)]) == 0

    # every side once per pair; the order reverses from pair to pair
    assert calls == [(checkout, seed) for seed in range(1, 5) for checkout in
                     ([baseline, parent, change] if seed % 2 else [change, parent, baseline])]

    report = json.loads(out.read_text())["exhaustive_beams"]
    speed = report["metrics"]["cells_per_s"]
    ratios = [(121.0 + s) / (100.0 + s) for s in range(1, 5)]
    assert speed["median_ratio"] == pytest.approx((ratios[1] + ratios[2]) / 2)
    to_baseline = [(121.0 + s) / (110.0 + s) for s in range(1, 5)]
    assert speed["baseline"]["median_ratio"] == pytest.approx(
        (to_baseline[1] + to_baseline[2]) / 2)
    assert speed["baseline"]["wins"] == 4 and speed["baseline"]["median"] == 112.5
    assert speed["baseline"]["runs"] == [111.0, 112.0, 113.0, 114.0]
    assert report["failed"] == {"baseline": 0, "parent": 0, "change": 0}
    assert "baseline" in report["metrics"]["setup_s"]
    printed = capsys.readouterr().out
    assert "failed cells baseline 0, parent 0, change 0" in printed
    assert f"ratio to baseline x{speed['baseline']['median_ratio']:.3f}, wins 4/4" in printed


def test_without_a_baseline_the_pairs_alternate_as_before(monkeypatch, tmp_path, capsys):
    parent, change, calls = str(tmp_path), bench_pairs.ROOT, []
    monkeypatch.setattr(bench_pairs, "run", canned_run({parent: 100.0, change: 99.0}, calls))
    assert bench_pairs.main(["--parent", parent, "--seed", "7", "--pairs", "2",
                             "--workload", "paper_grid"]) == 0
    assert calls == [(parent, 7), (change, 7), (change, 8), (parent, 8)]
    printed = capsys.readouterr().out
    assert "failed cells parent 0, change 0" in printed and "baseline" not in printed


@pytest.mark.skipif(not os.path.isdir(os.path.join(bench_pairs.ROOT, ".git")),
                    reason="needs this repository's git history")
def test_a_baseline_revision_is_extracted_from_this_repository(tmp_path):
    """A revision, not a directory, is checked out with git archive."""
    tree = bench_pairs.checkout_of("HEAD", str(tmp_path))
    assert os.path.isfile(os.path.join(tree, "tools", "bench_pairs.py"))
    assert bench_pairs.checkout_of(str(tmp_path), "unused") == str(tmp_path)
