#!/usr/bin/env python3
"""One sha256 per run of the outputs that must stay byte-identical.

Prints a digest of the metrics log of each default full run (config seeds
0-5), each CE-only baseline run (seeds 0-1), an IRMv1 and an MM-REx run
over the 2D and 3D environments (seed 0 each), three runs with the 2.5D
environment (V-REx seed 0, IRMv1 seed 1, view attention seed 0), a run with
different mining thresholds for the two modalities (seed 0), and of the
ablation CSV of the invariance_on_all cells for seed 0. Then one digest per
written artefact: the binary and the text dataset of the seed-0 generator
config, its manifest, the checkpoint of the CE-only baseline run, seed 0,
and every file that run writes into its run directory. Last, the metrics
log of the default full run and of the CE-only baseline run, seed 0, each
trained on the binary-loaded and on the text-loaded copy of its dataset
(these equal the generated runs' digests), and the binary and the text
dataset of the seed-0 generator config with shots=256. Two builds whose
lines match train bit-identically on these inputs and write the same bytes:

    PYTHONPATH=src python scripts/metrics_digest.py
"""

import hashlib
import os
import tempfile

# one BLAS thread, as the benchmark runs; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from run_ablation import grid_cells  # noqa: E402  (scripts/ is on sys.path)

from invgate.config import RunConfig  # noqa: E402
from invgate.data import (  # noqa: E402
    GeneratorConfig,
    generate,
    load_dataset,
    save_dataset,
    write_manifest,
)
from invgate.harness import (  # noqa: E402
    Trainer,
    ablate,
    ablation_csv,
    metrics_log_lines,
    save_checkpoint,
    train,
)

CE_ONLY = {"enable_step1": False, "enable_step2": False, "enable_align": False}
RUNS = (
    ("train_full", range(6), {}),
    ("train_ce", range(2), CE_ONLY),
    ("irmv1", [0], {"irm_variant": "irmv1"}),
    ("mm_rex", [0], {"irm_variant": "mm_rex", "rex_lambda_min": 0.2}),
    ("25d_vrex", [0], {"include_25d": True}),
    ("25d_irmv1", [1], {"include_25d": True, "irm_variant": "irmv1"}),
    ("25d_view_attention", [0], {"include_25d": True, "use_view_attention": True}),
    ("posterior_split", [0], {"posterior_p2": 0.3, "posterior_p3": 0.7}),
)
LOADED_RUNS = (("train_full", {}), ("train_ce", CE_ONLY))
RUN_DIR_FILES = ("manifest.json", "metrics.jsonl", "checkpoint.igck", "per_sample.csv",
                 "confusion_2d.csv", "confusion_3d.csv", "confusion_joint.csv",
                 "aggregates.json")


def _config(seed: int, **overrides) -> RunConfig:
    return RunConfig(seed=seed, generator=GeneratorConfig(seed=seed), **overrides)


def _log_digest(metrics: list[dict]) -> str:
    return _digest("\n".join(metrics_log_lines(metrics)))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _file_digest(write) -> str:
    """sha256 of the file that `write(path)` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artefact")
        write(path)
        return _sha256(path)


def main() -> None:
    for name, seeds, overrides in RUNS:
        for seed in seeds:
            metrics = Trainer(_config(seed, **overrides)).run().metrics
            print(f"{name} seed={seed} {_log_digest(metrics)}")
    base = _config(0)
    cells = [cell for cell in grid_cells() if cell.get("invariance_on_all")]
    rows = ablate(base, cells, dataset=generate(base.generator))
    print(f"ablation_inv_all seed=0 {_digest(ablation_csv(rows))}")
    dataset = generate(GeneratorConfig(seed=0))
    for mode in ("binary", "text"):
        print(f"dataset_{mode} seed=0 "
              f"{_file_digest(lambda path: save_dataset(dataset, path, mode=mode))}")
    result = Trainer(_config(0, **CE_ONLY)).run()
    print(f"checkpoint_train_ce seed=0 {_file_digest(lambda path: save_checkpoint(path, result))}")
    print(f"manifest seed=0 {_file_digest(lambda path: write_manifest(dataset, path))}")
    with tempfile.TemporaryDirectory() as tmp:
        train(_config(0, **CE_ONLY), out_dir=tmp)
        for name in RUN_DIR_FILES:
            print(f"run_dir_train_ce seed=0 {name} {_sha256(os.path.join(tmp, name))}")
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("binary", "text"):
            path = os.path.join(tmp, f"dataset.{mode}")
            save_dataset(dataset, path, mode=mode)
            for name, overrides in LOADED_RUNS:
                metrics = Trainer(_config(0, **overrides), load_dataset(path)).run().metrics
                print(f"{name} seed=0 loaded={mode} {_log_digest(metrics)}")
    large = generate(GeneratorConfig(seed=0, shots=256))
    for mode in ("binary", "text"):
        print(f"dataset_{mode} seed=0 shots=256 "
              f"{_file_digest(lambda path: save_dataset(large, path, mode=mode))}")


if __name__ == "__main__":
    main()
