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


def test_bench_record_summarizes_each_metric_over_its_pairs(monkeypatch):
    module = _load_script("bench_record", monkeypatch)
    pairs = [(10.0, 11.0), (12.0, 11.0), (11.0, 13.0), (10.0, 10.0), (9.0, 12.0)]
    higher = module.summarize(pairs, "higher", 0.25)
    assert higher["base"] == {"median": 10.0, "q1": 10.0, "q3": 11.0, "iqr": 1.0}
    assert higher["change"] == {"median": 11.0, "q1": 11.0, "q3": 12.0, "iqr": 1.0}
    assert higher["pairs"] == [list(pair) for pair in pairs] and higher["bound"] == 0.25
    assert higher["change_won"] == 3        # the tied pair counts for neither side
    assert higher["change_worse_by"] == -0.1
    lower = module.summarize(pairs, "lower", 0.25)
    assert lower["change_won"] == 1 and lower["change_worse_by"] == 0.1


def test_bench_record_alternates_the_first_side_and_pairs_each_run(monkeypatch):
    module = _load_script("bench_record", monkeypatch)
    calls = []

    def run_once(checkout, workload, seconds):
        calls.append(checkout)
        return {"correct": checkout == "base", "attempted": 4, "failed": int(checkout != "base"),
                "metrics": {"setup_s": {"value": 1.0 if checkout == "base" else 2.0}}}

    monkeypatch.setattr(module, "run_once", run_once)
    bench = {"run_seconds": 20, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}
    out = module.record({"base": "a", "change": "b"}, {"base": "base", "change": "change"},
                        bench, 3)
    assert calls == ["base", "change", "change", "base", "base", "change"]
    runs = out["workloads"]["w"]["runs"]
    assert [(r["pair"], r["revision"], r["correct"]) for r in runs] == [
        (0, "base", True), (0, "change", False), (1, "change", False), (1, "base", True),
        (2, "base", True), (2, "change", False)]
    summary = out["workloads"]["w"]["metrics"]["setup_s"]
    assert summary["pairs"] == [[1.0, 2.0]] * 3
    assert summary["change_won"] == 0 and summary["change_worse_by"] == 1.0
    assert out["revisions"] == {"base": "a", "change": "b"} and out["settings"]["pairs"] == 3
