"""tools/compare_outputs.py: a record is made from the source it names, and
two records compare cell by cell, bit for bit."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
import compare_outputs  # noqa: E402
from compare_outputs import compare  # noqa: E402

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def test_a_record_refuses_an_fdhbf_from_another_source(tmp_path, monkeypatch):
    """A --src with no fdhbf of its own must not record the fdhbf already
    importable from elsewhere; this checkout's src records its cells."""
    monkeypatch.setattr(compare_outputs, "CONFIGS", {"default": {}})
    monkeypatch.setattr(compare_outputs, "TRIALS", 1)
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(ImportError, match="not from"):
        compare_outputs.record(str(tmp_path / "wrong.npz"), str(tmp_path))
    assert not (tmp_path / "wrong.npz").exists()
    compare_outputs.record(str(tmp_path / "own.npz"), SRC)
    with np.load(tmp_path / "own.npz") as own:
        assert len({key.rsplit("/", 1)[0] for key in own.files}) == 6


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
