"""tools/compare_outputs.py: a record is made from the source it names, and
two records compare cell by cell, bit for bit, or with --rtol decisions and
values apart."""

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


def test_stacked_modes_record_the_cells_of_the_per_cell_mode(tmp_path, monkeypatch, capsys):
    """One config recorded cell by cell, in chunks of a power point's cells
    (--chunked) and in chunks that span power points (--spanning): the three
    records hold the same cells, bit for bit."""
    monkeypatch.setattr(compare_outputs, "CONFIGS", {"default": {}})
    monkeypatch.setattr(compare_outputs, "TRIALS", 2)
    monkeypatch.setattr(compare_outputs, "SPAN", 5)  # 12 cells: chunks of 5, 5 and 2
    monkeypatch.setattr(sys, "path", list(sys.path))
    modes = {"per_cell": [], "chunked": ["--chunked"], "spanning": ["--spanning"]}
    for name, flags in modes.items():
        assert compare_outputs.main(["record", str(tmp_path / f"{name}.npz"), *flags]) == 0
    capsys.readouterr()
    for name in ("chunked", "spanning"):
        assert compare(tmp_path / "per_cell.npz", tmp_path / f"{name}.npz") == 0
        assert capsys.readouterr().out.splitlines() == ["0 of 12 cells differ"]


def canned_cell(**moved):
    """One recorded cell's fields, small: a feasible one-stream design."""
    fields = {"tx_beams": [0, 3], "rx_beams": [2], "routing": [[1, 1]], "feasible": True,
              "dl_subspace_dim": 1, "f_bb": [[0.6], [0.8j]], "w_bb": [[1.0 + 0.0j]],
              "f_ul": [[1.0 + 0.0j]], "h_dl": [[1.0 + 1.0j, 2.0]], "dl_rate": 7.5,
              "ul_rate": 5.0, "fd_rate": 12.5, "max_residual_si_w": 1e-20,
              "beam_search_objective": 3.0, "regularizations": 0}
    return {**fields, **moved}


def save_cells(path, cells):
    np.savez(path, **{f"{name}/{field}": np.asarray(value)
                      for name, fields in cells.items() for field, value in fields.items()})


def test_compare_within_rtol_tells_a_tie_flip_from_a_regression(tmp_path, capsys):
    """compare --rtol: a routing that moved while its dl_rate key moved 1
    ulp is a tie flip, listed with its moved values and passed; a routing
    whose key moved 1e-3 fails, as does a channel 1e-6 off; a residual that
    moves below the 1e-15 W floor passes."""
    old = {name: canned_cell() for name in ("flip", "regression", "value", "floor")}
    new = {
        # the f_bb rotation by a phase is no move: it is compared as f f^H
        "flip": canned_cell(routing=[[1, 2]], dl_rate=np.nextafter(7.5, 8.0), ul_rate=4.0,
                            fd_rate=np.nextafter(7.5, 8.0) + 4.0, f_bb=[[0.6j], [-0.8]]),
        "regression": canned_cell(routing=[[1, 2]], dl_rate=7.5 * (1 + 1e-3)),
        "value": canned_cell(h_dl=[[1.0 + 1.0j, 2.0 + 3e-6]]),
        "floor": canned_cell(max_residual_si_w=5e-20),
    }
    save_cells(tmp_path / "old.npz", old)
    save_cells(tmp_path / "new.npz", new)
    assert compare(tmp_path / "old.npz", tmp_path / "new.npz", rtol=1e-7) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("flip: tie flip of routing (routing), dl_rate key gap 1.18e-16; "
                               "values, not judged: ")
    assert "ul_rate 5 -> 4" in lines[0] and "f_bb" not in lines[0]
    assert lines[1:3] == ["regression: FAIL routing (routing) moved, dl_rate key gap 0.001",
                          "value: FAIL h_dl 1.22e-06"]
    assert "max_residual_si_w 0," in lines[3]
    assert lines[4] == "4 cells at rtol 1e-07: 1 tie flips, 2 fail"

    del old["regression"], old["value"], new["regression"], new["value"]
    save_cells(tmp_path / "old.npz", old)
    save_cells(tmp_path / "new.npz", new)
    assert compare(tmp_path / "old.npz", tmp_path / "new.npz", rtol=1e-7) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 cells at rtol 1e-07: 1 tie flips, 0 fail"
