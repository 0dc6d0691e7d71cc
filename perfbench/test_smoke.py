"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q"""

import copy
import dataclasses
import json
import os

import pytest

import reference
import run
from calibrate import Calibration
from tracing import Tracer
from workloads import HERE, ROOT, WORKLOADS, load_fdhbf

TINY_POWERS = (0.0, 50.0)


@pytest.fixture(scope="module")
def fdhbf():
    return load_fdhbf()


@pytest.fixture(scope="module")
def calib():
    with Calibration(copies=2) as c:
        yield c


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_on_a_tiny_grid(fdhbf, calib, name):
    wl = WORKLOADS[name]
    plain = run.timed_sweeps(fdhbf, wl, 5, 0.0, calib, trials=1, powers=TINY_POWERS)
    assert (plain.attempted, plain.failed, len(plain.rates)) == (2, 0, 1)
    assert plain.cells_per_s > 0.0

    tracer = Tracer()
    with tracer.installed(fdhbf):
        traced = run.timed_sweeps(fdhbf, wl, 5, 0.0, calib, workers=1, trials=1,
                                  powers=TINY_POWERS)
    assert (traced.attempted, traced.failed) == (2, 0)
    metrics = tracer.per_cell(traced.regularizations)
    assert metrics["sweep.cell_samples"][0] == 2
    assert metrics["canceller.routings"][0] == metrics["beamforming.dl_precoder_calls"][0]
    assert fdhbf.sweep.run_cell.__name__ == "run_cell"  # wrappers were removed


def test_benchmark_json_names_the_workloads():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["paths"] == [os.path.relpath(HERE, ROOT)]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, tmp_path, trace, section):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    assert run.main(["--workload", "paper_grid", "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_stored_reference_passes(fdhbf):
    assert run.reference_check(fdhbf, WORKLOADS["paper_grid"]) == (24, 0)


def test_perturbed_reference_shows_up_as_failed_cells(fdhbf):
    ref = copy.deepcopy(reference.load_reference("paper_grid"))
    records = ref["records"]
    records[0]["dl_rate"] *= 1.0 + 1e-5
    records[1]["feasible"] = not records[1]["feasible"]
    records[2]["dl_subspace_dim"] += 1
    records[3]["max_residual_si_w"] *= 1.01
    del records[4]  # the sweep's cell then has no record
    records[5]["fd_rate"] *= 1.0 + 1e-13  # within tolerance: not a failure
    attempted, failed = run.reference_check(fdhbf, WORKLOADS["paper_grid"], ref)
    assert (attempted, failed) == (23, 5)


def test_invariants_catch_a_broken_cell(fdhbf):
    cfg = fdhbf.config.config_from_values(WORKLOADS["paper_grid"].config_values(5))
    good = fdhbf.sweep.run_cell(cfg, 0, 0)
    assert reference.bad_cells([good], 1, 1) == 0
    assert reference.bad_cells([dataclasses.replace(good, fd_rate=good.fd_rate + 1e-6)], 1, 1) == 1
    assert reference.bad_cells([dataclasses.replace(good, hd_rate=float("nan"))], 1, 1) == 1
    assert reference.bad_cells([good, good], 1, 1) == 1
    assert reference.bad_cells([], 1, 2) == 2
