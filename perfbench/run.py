#!/usr/bin/env python3
"""Benchmark for invgate: one workload per process, closed loop, one BLAS thread.

Run from the repository root:

    python3 perfbench/run.py --workload train_full --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

A run does the workload's set-up rounds (each repeats the set-up pass for
SETUP_ROUND_S; `setup_s` is the median over rounds of the seconds per
pass), one untimed warm-up repetition on fixed inputs (its accuracy is
`acc_joint`), then timed repetitions until `--seconds` have passed. Every
timed repetition must reproduce the first one's outputs byte for byte.
With `--trace 1` the first half of the time runs untraced and the second
half with spans around every layer call (see spans.py); the per-layer
metrics come from the traced half, and `trace.overhead` compares the two.

End-to-end times are calibrated for machine speed (see speed.py): each
interval is rescaled by a fixed probe timed near it, so a run made while
the shared host is slow reads about the same as one made while it is fast.
The report prints the raw figures beside them; per-layer times are raw.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Workloads, seeds and the layer -> end-to-end map are in spec.json.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported, here or in a child

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_run")
MIN_REPS = 2
SETUP_ROUNDS = 11
SETUP_ROUND_S = 0.3     # each set-up round repeats the set-up pass this long


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _p90(values) -> float:
    values = list(values)
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else _median(values)


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
    }


def end_to_end(setups: list, reps: list, reference_acc: float, scale) -> dict:
    """End-to-end metrics over every timed repetition.

    Each interval is multiplied by `scale(end time)`: the machine-speed
    factor for calibrated metrics, 1 for the raw figures.
    """
    epochs = [(dt * scale(t), n) for _, _, rep_epochs in reps for t, dt, n in rep_epochs]
    epoch_ms = [1e3 * dt for dt, _ in epochs]
    # seconds per sample of each format, median over the save + load calls
    per_sample = {}
    for _, o, _ in reps:
        for t, dt, n, mode in o.io:
            per_sample.setdefault(mode, []).append(dt * scale(t) / n)
    return {
        "setup_s": _median(dt * scale(t) for t, dt in setups),
        "train_sample_epochs_per_s": _ratio(sum(n for _, n in epochs), sum(dt for dt, _ in epochs)),
        "epoch_ms_p50": _median(epoch_ms),
        "epoch_ms_p90": _p90(epoch_ms),
        "io_samples_per_s": _ratio(len(per_sample), sum(_median(v) for v in per_sample.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_joint": reference_acc,
    }


def run_workload(args, spec: dict, bench: dict) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "invgate", "__init__.py")):
        print(f"perfbench: no invgate sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from spans import Tracer
    from speed import REFERENCE_MS, Speed
    from workloads import KINDS, WARM_UP_SEED, EpochClock, Ledger, Runner

    wspec = spec["workloads"][args.workload]
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    speed = Speed()
    speed.probe()
    ledger, clock = Ledger(), EpochClock(speed)
    clock.install()
    try:
        workload = KINDS[wspec["kind"]](wspec, ROOT, workdir, speed)
        runner = Runner(workload, args.seed, ledger, clock)
        setups = []
        for _ in range(SETUP_ROUNDS):
            state, timing = runner.setup_round(SETUP_ROUND_S)
            setups.append(timing)
        runner.warm_up()
        if not args.trace:
            reps = runner.repetitions(state, args.seconds, MIN_REPS)
            acc = _mean(runner.reference.acc_joint)
            metrics = end_to_end(setups, reps, acc, speed.scale)
            raw = end_to_end(setups, reps, acc, lambda t: 1.0)
            wanted = bench["end_to_end"]
        else:
            untraced = runner.repetitions(state, args.seconds / 2, MIN_REPS)
            tracer = Tracer()
            tracer.install()
            try:
                tracer.run = "setup"
                state, _ = runner.setup_round()
                traced = runner.repetitions(state, args.seconds / 2, MIN_REPS, tracer)
            finally:
                tracer.uninstall()
            metrics = raw = tracer.layer_metrics()
            rep_s = [[dt * speed.scale(t) for (t, dt), _, _ in half] for half in (traced, untraced)]
            metrics["trace.overhead"] = _median(rep_s[0]) / _median(rep_s[1])
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
            reps = untraced + traced
            wanted = bench["per_layer"]
    finally:
        clock.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(np)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"config seeds {[c.seed for c in workload.configs(args.seed)]}  "
          f"warm-up config seeds {[c.seed for c in workload.configs(WARM_UP_SEED)]}  "
          f"overrides {json.dumps(wspec['overrides'])}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"set-up rounds {len(setups)}  warm-up 1  repetitions {len(reps)}  "
          f"epochs {sum(len(ep) for _, _, ep in reps)}")
    print(f"machine speed: probe median {1e3 * _median(speed.probes):.4g} ms over "
          f"{len(speed.probes)} probes, reference {REFERENCE_MS} ms")
    units = {m["name"]: m["unit"] for m in wanted}
    print(f"  {'metric':<28} {'value':>14} {'raw':>14}")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {raw[name]:>14.6g} {unit}")
    print(f"  {'c_err':<28} {_mean(runner.reference.c_err):>14.6g} ratio")
    print(f"  {'fail_ratio':<28} {ledger.failed / max(ledger.attempted, 1):>14.6g} ratio"
          f"  ({ledger.failed} of {ledger.attempted})")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    for name in spec["workloads"]:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        worst = max(worst, child.returncode)
    return worst


def main(argv=None) -> int:
    spec = _load_json(os.path.join(HERE, "spec.json"))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*spec["workloads"], "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec, _load_json(os.path.join(ROOT, "BENCHMARK.json")))


if __name__ == "__main__":
    sys.exit(main())
