"""Stored-reference checks of the benchmark workloads that the benchmark's
own smoke tests leave to timed runs: each sweeps the workload at the
reference seed and compares every cell with ``perfbench/reference/``."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
from workloads import WORKLOADS, load_fdhbf  # noqa: E402


@pytest.mark.parametrize("name, cells", [
    ("exhaustive_beams", 12),  # the exhaustive beam scan
    ("square_impaired", 24),   # quantized taps, 120 routings, infeasible fallback
    ("pooled_taps_off", 96),   # no taps, 2 workers
])
def test_stored_reference_passes(name, cells):
    assert run.reference_check(load_fdhbf(), WORKLOADS[name]) == (cells, 0)
