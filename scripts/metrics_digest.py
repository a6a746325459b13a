#!/usr/bin/env python3
"""One sha256 per run of the outputs that must stay byte-identical.

Prints a digest of the metrics log of each default full run (config seeds
0-5), each CE-only baseline run (seeds 0-1), an IRMv1 and an MM-REx run
over the 2D and 3D environments (seed 0 each), three runs with the 2.5D
environment (V-REx seed 0, IRMv1 seed 1, view attention seed 0), a run with
different mining thresholds for the two modalities (seed 0), the step-2-only
invariance_on_all run (seed 0, and seed 1 with two augmented copies per hard
row), and of the ablation CSV of the invariance_on_all cells for seed 0.
Then one digest per written artefact: the binary and the text dataset of
the seed-0 generator config, its manifest, the checkpoint of the CE-only
baseline run, seed 0, and every file that run and the default full run,
seed 0, write into their run directories. Last, the metrics log of the
default full run and of the CE-only baseline run, seed 0, each trained on
the binary-loaded and on the text-loaded copy of its dataset (these equal
the generated runs' digests), and the binary and the text dataset of the
seed-0 generator config with shots=256. Two builds whose
lines match train bit-identically on these inputs and write the same bytes:

    PYTHONPATH=src python scripts/metrics_digest.py > DIGESTS.txt

The first line is a `# ` header naming the environment (`environment()`);
tests/test_digests.py recomputes a subset of the lines and compares it with
DIGESTS.txt.
"""

import hashlib
import os
import platform
import tempfile

# one BLAS thread, as the benchmark runs; numpy reads these when it is imported
ONE_BLAS_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
if __name__ == "__main__":
    os.environ.update(ONE_BLAS_THREAD)

import numpy as np  # noqa: E402

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
# the ablation grid's step-2-only cell: every row an invariance anchor, no mining
INV_ALL = {"enable_step1": False, "enable_step2": True, "enable_align": False}
RUNS = (
    ("train_full", range(6), {}),
    ("train_ce", range(2), CE_ONLY),
    ("irmv1", [0], {"irm_variant": "irmv1"}),
    ("mm_rex", [0], {"irm_variant": "mm_rex", "rex_lambda_min": 0.2}),
    ("25d_vrex", [0], {"include_25d": True}),
    ("25d_irmv1", [1], {"include_25d": True, "irm_variant": "irmv1"}),
    ("25d_view_attention", [0], {"include_25d": True, "use_view_attention": True}),
    ("posterior_split", [0], {"posterior_p2": 0.3, "posterior_p3": 0.7}),
    ("inv_all", [0], INV_ALL),
    ("inv_all_augments2", [1], {**INV_ALL, "n_3d_augments": 2}),
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


def environment() -> str:
    """What the digests depend on beyond the source: Python, numpy, the
    platform and the BLAS numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = "".join(platform.libc_ver())
    return (f"python {platform.python_version()} | numpy {np.__version__} | "
            f"{platform.system()}-{platform.machine()}-{libc} | "
            f"blas {blas.get('name')} {blas.get('version')}")


def run_lines(runs=RUNS):
    """One metrics-log digest line per (name, seeds, overrides) run."""
    for name, seeds, overrides in runs:
        for seed in seeds:
            metrics = Trainer(_config(seed, **overrides)).run().metrics
            yield f"{name} seed={seed} {_log_digest(metrics)}"


def dataset_lines(dataset, suffix: str = ""):
    for mode in ("binary", "text"):
        yield (f"dataset_{mode} seed=0{suffix} "
               f"{_file_digest(lambda path: save_dataset(dataset, path, mode=mode))}")


def checkpoint_line(result) -> str:
    return f"checkpoint_train_ce seed=0 {_file_digest(lambda path: save_checkpoint(path, result))}"


def digest_lines():
    yield from run_lines()
    base = _config(0)
    cells = [cell for cell in grid_cells() if cell.get("invariance_on_all")]
    rows = ablate(base, cells, dataset=generate(base.generator))
    yield f"ablation_inv_all seed=0 {_digest(ablation_csv(rows))}"
    dataset = generate(GeneratorConfig(seed=0))
    yield from dataset_lines(dataset)
    yield checkpoint_line(Trainer(_config(0, **CE_ONLY)).run())
    yield f"manifest seed=0 {_file_digest(lambda path: write_manifest(dataset, path))}"
    for run, overrides in (("train_ce", CE_ONLY), ("train_full", {})):
        with tempfile.TemporaryDirectory() as tmp:
            train(_config(0, **overrides), out_dir=tmp)
            for name in RUN_DIR_FILES:
                yield f"run_dir_{run} seed=0 {name} {_sha256(os.path.join(tmp, name))}"
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("binary", "text"):
            path = os.path.join(tmp, f"dataset.{mode}")
            save_dataset(dataset, path, mode=mode)
            for name, overrides in LOADED_RUNS:
                metrics = Trainer(_config(0, **overrides), load_dataset(path)).run().metrics
                yield f"{name} seed=0 loaded={mode} {_log_digest(metrics)}"
    yield from dataset_lines(generate(GeneratorConfig(seed=0, shots=256)), " shots=256")


def main() -> None:
    print(f"# {environment()}", flush=True)
    for line in digest_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
