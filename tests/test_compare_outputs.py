"""tools/compare_outputs.py: two records compare cell by cell, bit for bit."""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
from compare_outputs import compare  # noqa: E402


def test_compare_lists_each_differing_cell_and_field(tmp_path, capsys):
    cells = {"default/0/0/f_bb": np.array([[1.0 + 2.0j]]), "default/0/0/feasible": np.array(True),
             "default/0/1/f_bb": np.array([[0.0]]), "square/5/3/dl_rate": np.array(7.5)}
    np.savez(tmp_path / "a.npz", **cells)
    np.savez(tmp_path / "same.npz", **cells)
    assert compare(tmp_path / "a.npz", tmp_path / "same.npz") == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 3 cells differ"]

    changed = dict(cells)
    changed["default/0/1/f_bb"] = np.array([[-0.0]])  # equal as floats, not as bits
    changed["square/5/3/dl_rate"] = np.nextafter(7.5, 8.0)
    del changed["default/0/0/feasible"]
    np.savez(tmp_path / "b.npz", **changed)
    assert compare(tmp_path / "a.npz", tmp_path / "b.npz") == 1
    assert capsys.readouterr().out.splitlines() == [
        "default/0/0: feasible (missing)",
        "default/0/1: f_bb",
        "square/5/3: dl_rate",
        "3 of 3 cells differ",
    ]
