#!/usr/bin/env python3
"""Record the benchmark of two revisions, run in alternated pairs, as one JSON file.

    PYTHONPATH=src python scripts/bench_record.py BASE CHANGE --out BENCH_<n>.json [--pairs 10]

Each revision is checked out with `git worktree add --detach` into a
temporary directory, and the worktree is removed when the recording ends.
Each pair runs, for every workload of BENCHMARK.json, each revision's own
`perfbench/run.py --trace 0` once; BASE runs first in even pairs and CHANGE
in odd ones. The last line a run prints is its JSON result.

The file holds the revisions, the machine, Python and numpy, the settings,
`correct` for every run, and for each workload and end-to-end metric every
pair's (base, change) values, each side's median and quartiles, the pairs
the change won (by the metric's `better`; ties count for neither side) and
how much worse the change's median is than the base's, as a fraction of the
base's, beside the metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from invgate.container import atomic_open

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """One metric's (base, change) values per pair, each side's quartiles,
    the pairs the change won and its median's worsening against the base's."""
    sign = 1.0 if better == "higher" else -1.0
    sides = {side: quartiles([pair[i] for pair in pairs]) for i, side in enumerate(SIDES)}
    base, change = sides["base"]["median"], sides["change"]["median"]
    return {
        "better": better,
        "bound": bound,
        "pairs": [list(pair) for pair in pairs],
        **sides,
        "change_won": sum(sign * (c - b) > 0 for b, c in pairs),
        "change_worse_by": sign * (base - change) / abs(base) if base else 0.0,
    }


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    """The JSON result `perfbench/run.py` in `checkout` prints last."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout.name} {workload}: run.py exited {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def record(revisions: dict, checkouts: dict, bench: dict, pairs: int) -> dict:
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in workloads}
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            got = {}
            for side in order:
                got[side] = run_once(checkouts[side], workload, seconds)
                runs[workload].append({"pair": i, "revision": side,
                                       **{k: got[side][k] for k in ("correct", "attempted",
                                                                   "failed")}})
                print(f"pair {i} {workload} {side}: correct {got[side]['correct']}",
                      file=sys.stderr, flush=True)
            for name, pair_values in values[workload].items():
                pair_values.append(tuple(got[side]["metrics"][name]["value"] for side in SIDES))
    return {
        "revisions": revisions,
        "machine": {"platform": platform.platform(), "arch": platform.machine(),
                    "nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "settings": {"pairs": pairs, "seconds": seconds, "trace": 0,
                     "order": "base first in even pairs, change first in odd pairs"},
        "workloads": {w: {"runs": runs[w],
                          "metrics": {m["name"]: summarize(values[w][m["name"]], m["better"],
                                                           m["bound"])
                                      for m in bench["end_to_end"]}}
                      for w in workloads},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    revisions = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
                 for side, rev in zip(SIDES, (args.base, args.change))}
    with tempfile.TemporaryDirectory(prefix="invgate-bench-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        try:
            for side, path in checkouts.items():
                _git("worktree", "add", "--detach", str(path), revisions[side])
            result = record(revisions, checkouts, bench, args.pairs)
        finally:
            for path in checkouts.values():
                if path.exists():
                    _git("worktree", "remove", "--force", str(path))
            _git("worktree", "prune")
    with atomic_open(args.out) as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
