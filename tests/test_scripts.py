"""Smoke runs of the experiment scripts' `main()` at one seed."""

import csv
import importlib.util
import json
import os
import sys

import pytest

from invgate.harness import ABLATION_COLUMNS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script(name, monkeypatch, *argv):
    """scripts/<name>.py as a module, with `argv` as its command line."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module


def test_run_ablation_writes_the_grid_csv(tmp_path, monkeypatch, capsys):
    _load_script("run_ablation", monkeypatch, "--seeds", "0", "--out", str(tmp_path)).main()
    with open(tmp_path / "results.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == ABLATION_COLUMNS
    assert len(rows) == 8
    assert os.listdir(tmp_path) == ["results.csv"]     # no *.tmp left behind


def test_failed_ablation_write_keeps_the_previous_csv(tmp_path, monkeypatch, capsys):
    module = _load_script("run_ablation", monkeypatch, "--seeds", "0", "--out", str(tmp_path))
    (tmp_path / "results.csv").write_text("previous\n")

    def fail(rows):
        raise RuntimeError("write failed")

    monkeypatch.setattr(module, "ablate", lambda *args, **kwargs: [])
    monkeypatch.setattr(module, "ablation_csv", fail)
    with pytest.raises(RuntimeError, match="write failed"):
        module.main()
    assert (tmp_path / "results.csv").read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["results.csv"]


def test_run_efficacy_writes_one_row_per_seed(tmp_path, monkeypatch, capsys):
    out = tmp_path / "efficacy.json"
    _load_script("run_efficacy", monkeypatch, "--seeds", "0", "--out", str(out)).main()
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert set(rows[0]) == {"seed", "confound_shared_frac", "bayes_oracle", "base_acc_joint",
                            "base_c_err", "full_acc_joint", "full_c_err", "full_acc2",
                            "full_acc3", "gate_invariant_mean", "gate_confound_mean"}
    assert os.listdir(tmp_path) == ["efficacy.json"]    # no *.tmp left behind
