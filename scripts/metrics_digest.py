#!/usr/bin/env python3
"""One sha256 per run of the outputs that must stay byte-identical.

Prints a digest of the metrics log of each default full run (config seeds
0-5), each CE-only baseline run (seeds 0-1), an IRMv1 and an MM-REx run
over the 2D and 3D environments (seed 0 each), three runs with the 2.5D
environment (V-REx seed 0, IRMv1 seed 1, view attention seed 0), a run with
different mining thresholds for the two modalities (seed 0), and of the
ablation CSV of the invariance_on_all cells for seed 0. Two builds whose
lines match train bit-identically on these inputs:

    PYTHONPATH=src python scripts/metrics_digest.py
"""

import hashlib
import os

# one BLAS thread, as the benchmark runs; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from run_ablation import grid_cells  # noqa: E402  (scripts/ is on sys.path)

from invgate.config import RunConfig  # noqa: E402
from invgate.data import GeneratorConfig, generate  # noqa: E402
from invgate.harness import Trainer, ablate, ablation_csv, metrics_log_lines  # noqa: E402

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


def main() -> None:
    for name, seeds, overrides in RUNS:
        for seed in seeds:
            metrics = Trainer(_config(seed, **overrides)).run().metrics
            print(f"{name} seed={seed} {_digest(chr(10).join(metrics_log_lines(metrics)))}")
    base = _config(0)
    cells = [cell for cell in grid_cells() if cell.get("invariance_on_all")]
    rows = ablate(base, cells, dataset=generate(base.generator))
    print(f"ablation_inv_all seed=0 {_digest(ablation_csv(rows))}")


if __name__ == "__main__":
    main()
