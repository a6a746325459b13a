#!/usr/bin/env python3
"""Component ablation over the usual eight-cell grid.

Toggles mining (step 1) and invariance learning (step 2, alignment tied to
it) against additive/multiplicative fusion, sharing trained models between
the two fusion modes of each setting.
"""

import argparse
import os

import numpy as np

from invgate.config import RunConfig
from invgate.container import atomic_open
from invgate.data import GeneratorConfig, generate
from invgate.harness import ablate, ablation_csv


def grid_cells():
    cells = []
    for step1 in (False, True):
        for step2 in (False, True):
            for fusion in ("additive", "multiplicative"):
                cell = {
                    "enable_step1": step1,
                    "enable_step2": step2,
                    # alignment belongs to the full objective only
                    "enable_align": step1 and step2,
                    "fusion_mode": fusion,
                }
                if step2 and not step1:
                    cell["invariance_on_all"] = True
                cells.append(cell)
    return cells


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--out", default="ablation_results")
    args = ap.parse_args()

    all_rows = []
    for seed in args.seeds:
        gen = GeneratorConfig(seed=seed)
        base_cfg = RunConfig(seed=seed, generator=gen)
        rows = ablate(base_cfg, grid_cells(), dataset=generate(gen))
        all_rows.extend(rows)
        print(f"seed {seed} done")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "results.csv")
    with atomic_open(path) as fh:
        fh.write(ablation_csv(all_rows))
    print(f"wrote {path}")

    print(f"\n{'step1':>6} {'step2':>6} {'fusion':>16} {'median j':>9} {'median c':>9}")
    for step1 in (False, True):
        for step2 in (False, True):
            for fusion in ("additive", "multiplicative"):
                sel = [r for r in all_rows
                       if r["enable_step1"] == step1 and r["enable_step2"] == step2
                       and r["fusion_mode"] == fusion]
                js = np.median([r["acc_joint"] for r in sel])
                cs = np.median([r["c_err"] for r in sel])
                print(f"{str(step1):>6} {str(step2):>6} {fusion:>16} {js:>9.4f} {cs:>9.4f}")


if __name__ == "__main__":
    main()
