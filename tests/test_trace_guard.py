"""The traced benchmark run (`perfbench/run.py --trace 1`) against this tree.

`perfbench/spans.py` wraps functions of invgate by name; a rename there
would crash traced benchmark runs. This trains one short run under the
tracer and checks that every per-layer metric BENCHMARK.json names comes
out finite.
"""

import importlib.util
import json
import math
import os

from invgate import data, harness, losses
from invgate.config import RunConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"] if m["name"] != "trace.overhead"]
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        # the invariance term augments through this wrapped name, one call per copy
        assert harness.augment_3d is not data.augment_3d
        tracer.run = "rep-0"
        # past the 5-epoch warm-up, so mining, invariance and alignment all run
        harness.Trainer(RunConfig(epochs=7)).run()
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert harness.cross_entropy is losses.cross_entropy    # originals are back
    assert harness.augment_3d is data.augment_3d
    assert sorted(names) == sorted(metrics)
    assert all(math.isfinite(metrics[name]) for name in names)
    # mining.* read select_joint_hard's first argument and the `d_joint` of its result;
    # losses.inv_pairs reads the environments, modality_irm_loss's first argument
    for name in ("mining.gmm_iters", "mining.candidates", "mining.select_ms",
                 "losses.inv_calls", "losses.inv_pairs", "losses.align_ms", "losses.ce_ms",
                 "tensor.nodes_per_step", "data.arrays_calls", "data.augment_calls",
                 "harness.eval_ms"):
        assert metrics[name] > 0, name
