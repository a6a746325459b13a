#!/usr/bin/env python3
"""One sha256 per run of the outputs that must stay byte-identical.

Prints a digest of the metrics log of each default full run (config seeds
0-5), each CE-only baseline run (seeds 0-1), an IRMv1 and an MM-REx run
over the 2D and 3D environments (seed 0 each), three runs with the 2.5D
environment (V-REx seed 0, IRMv1 seed 1, view attention seed 0), a run with
different mining thresholds for the two modalities (seed 0), and of the
ablation CSV of the invariance_on_all cells for seed 0. Then one digest per
written artefact: the binary and the text dataset of the seed-0 generator
config and the checkpoint of the CE-only baseline run, seed 0. Two builds
whose lines match train bit-identically on these inputs and write the same
bytes:

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
from invgate.data import GeneratorConfig, generate, save_dataset  # noqa: E402
from invgate.harness import (  # noqa: E402
    Trainer,
    ablate,
    ablation_csv,
    metrics_log_lines,
    save_checkpoint,
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


def _config(seed: int, **overrides) -> RunConfig:
    return RunConfig(seed=seed, generator=GeneratorConfig(seed=seed), **overrides)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _file_digest(write) -> str:
    """sha256 of the file that `write(path)` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artefact")
        write(path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def main() -> None:
    for name, seeds, overrides in RUNS:
        for seed in seeds:
            metrics = Trainer(_config(seed, **overrides)).run().metrics
            print(f"{name} seed={seed} {_digest(chr(10).join(metrics_log_lines(metrics)))}")
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


if __name__ == "__main__":
    main()
