"""The benchmark's workloads: one set-up round, one repetition, their checks.

Every workload is a closed loop: the benchmark makes one call, waits for it
to return, then makes the next. A set-up round returns the state the
repetitions use; each repetition returns an `Outcome` whose `signature`
must repeat byte for byte when the same inputs run again.
"""

from __future__ import annotations

import filecmp
import importlib.util
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from invgate import data, harness
from invgate.config import RunConfig, canonical_json
from invgate.data import GeneratorConfig
from invgate.fusion import FusionConfig
from speed import Speed

WARM_UP_SEED = 0     # the warm-up runs these inputs whatever --seed is
_SCALARS = ("lr", "loss_ce", "loss_inv", "loss_align", "acc2", "acc3", "acc_joint", "c_err")


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Ledger:
    """Counts operations and checks; a failure is printed and counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self, label: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # any failure of the program under test is a result
            self.failed += 1
            print(f"FAILED {label}: {type(exc).__name__}: {exc}", flush=True)


class EpochClock:
    """Times every `Trainer.run_epoch` call and keeps the record it returns."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.epochs: list[tuple[float, float, int]] = []   # (end, seconds, training samples)
        self.records: list[dict] = []
        self._original = None

    def install(self) -> None:
        original = self._original = harness.Trainer.__dict__["run_epoch"]

        def timed(trainer, *args, **kwargs):
            start = perf_counter()
            record = original(trainer, *args, **kwargs)
            end = perf_counter()
            self.epochs.append((end, end - start, len(trainer.train_labels)))
            self.records.append(record)
            self.speed.tick()
            return record

        harness.Trainer.run_epoch = timed

    def uninstall(self) -> None:
        harness.Trainer.run_epoch = self._original

    def take(self) -> tuple[list[tuple[float, float, int]], list[dict]]:
        out = self.epochs, self.records
        self.epochs, self.records = [], []
        return out


@dataclass
class Outcome:
    """What one repetition measured and produced."""

    signature: str = ""
    io: list[tuple[float, float, int, str]] = field(default_factory=list)  # (end, s, samples, mode)
    acc_joint: list[float] = field(default_factory=list)
    c_err: list[float] = field(default_factory=list)


def check_records(records: list[dict]) -> None:
    for rec in records:
        for key in _SCALARS:
            value = rec[key]
            check(value is None or math.isfinite(value),
                  f"epoch {rec['epoch']}: {key} is not finite ({value})")


def _same_samples(a, b) -> bool:
    left, right = a.train + a.test, b.train + b.test
    return a.config == b.config and len(left) == len(right) and all(
        x.label == y.label and x.planted_hard == y.planted_hard
        and x.hard_targets == y.hard_targets
        and np.array_equal(x.x3, y.x3) and np.array_equal(x.views, y.views)
        for x, y in zip(left, right))


def round_trip(dataset, workdir: str, ledger: Ledger, out: Outcome, speed: Speed):
    """Save and reload `dataset` in both formats, timing only save + load.

    Checks that the reloaded samples equal the saved ones exactly and that
    load -> save reproduces the saved bytes. Returns the binary-loaded
    dataset (None if that failed).
    """
    loaded = None
    for mode in ("binary", "text"):
        path = os.path.join(workdir, f"dataset.{mode}")
        with ledger.op(f"dataset {mode} save/load"):
            start = perf_counter()
            data.save_dataset(dataset, path, mode=mode)
            back = data.load_dataset(path)
            end = perf_counter()
            out.io.append((end, end - start, len(dataset.train) + len(dataset.test), mode))
            speed.tick()
            check(_same_samples(dataset, back), f"{mode} load changed the samples")
            data.save_dataset(back, path + ".again", mode=mode)
            check(filecmp.cmp(path, path + ".again", shallow=False),
                  f"{mode} load -> save changed the bytes")
            if mode == "binary":
                loaded = back
    return loaded


def _run_config(seed: int, overrides: dict) -> RunConfig:
    return RunConfig(seed=seed, generator=GeneratorConfig(seed=seed), **overrides)


def _load_grid_cells(root: str):
    path = os.path.join(root, "scripts", "run_ablation.py")
    spec = importlib.util.spec_from_file_location("run_ablation", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.grid_cells()


class Workload:
    """Training runs, one per config.

    Set-up generates each run's dataset and builds its Trainer. A repetition
    saves and reloads each dataset in both formats (the CLI's generate ->
    train --data path) and trains on the binary-loaded copy.
    """

    def __init__(self, spec: dict, root: str, workdir: str, speed: Speed):
        self.spec = spec
        self.workdir = workdir
        self.speed = speed

    def configs(self, seed: int) -> list[RunConfig]:
        n = self.spec["runs_per_rep"]
        return [_run_config(s, self.spec["overrides"]) for s in range(n * seed, n * seed + n)]

    def setup(self, seed: int):
        state = []
        for cfg in self.configs(seed):
            dataset = data.generate(cfg.generator)
            harness.Trainer(cfg, dataset)
            state.append((cfg, dataset))
        return state

    def rep(self, state, ledger: Ledger) -> Outcome:
        out = Outcome()
        for cfg, dataset in state:
            loaded = round_trip(dataset, self.workdir, ledger, out, self.speed)
            with ledger.op(f"train seed={cfg.seed}"):
                check(loaded is not None, "no dataset to train on")
                result = harness.train(cfg, loaded)
                check_records(result.metrics)
                out.acc_joint.append(result.final("acc_joint"))
                out.c_err.append(result.final("c_err"))
        return out


class AblationGrid(Workload):
    """Cells of the grid in scripts/run_ablation.py, through harness.ablate.

    Only the cells whose overrides include every item of the spec's
    `cells` run, on one seed.
    """

    def __init__(self, spec, root, workdir, speed):
        super().__init__(spec, root, workdir, speed)
        self.cells = [cell for cell in _load_grid_cells(root)
                      if spec["cells"].items() <= cell.items()]

    def configs(self, seed: int) -> list[RunConfig]:
        return [_run_config(seed, {})]     # the grid's base config

    def rep(self, state, ledger: Ledger) -> Outcome:
        out = Outcome()
        (cfg, dataset), = state
        loaded = round_trip(dataset, self.workdir, ledger, out, self.speed)
        with ledger.op(f"ablate seed={cfg.seed}"):
            check(loaded is not None, "no dataset to train on")
            rows = harness.ablate(cfg, self.cells, dataset=loaded)
            for row in rows:
                for key in ("acc2", "acc3", "acc_joint", "c_err"):
                    check(math.isfinite(row[key]), f"grid row {row}: {key} is not finite")
            out.signature = harness.ablation_csv(rows)
            out.acc_joint = [row["acc_joint"] for row in rows]
            out.c_err = [row["c_err"] for row in rows]
        return out


class PersistLarge(Workload):
    """The CLI path train -> generate -> save -> load -> eval.

    Set-up generates the large dataset and the checkpoint run's own. A
    repetition trains and saves the checkpoint, round-trips the large
    dataset, and evaluates the checkpoint on the binary-loaded copy; the
    evaluation must equal the in-memory model's.
    """

    def configs(self, seed: int) -> list[RunConfig]:
        return [_run_config(seed, self.spec["overrides"])]     # the checkpoint run

    def setup(self, seed: int):
        (cfg, small), = super().setup(seed)
        return cfg, small, data.generate(GeneratorConfig(seed=seed, **self.spec["dataset"]))

    def rep(self, state, ledger: Ledger) -> Outcome:
        cfg, small, large = state
        fusion = FusionConfig(phi=cfg.fusion_phi, mode=cfg.fusion_mode)
        ckpt = os.path.join(self.workdir, "checkpoint.igck")
        out = Outcome()
        result = None
        with ledger.op("train and save the checkpoint"):
            result = harness.train(cfg, small)
            check_records(result.metrics)
            harness.save_checkpoint(ckpt, result)
        loaded = round_trip(large, self.workdir, ledger, out, self.speed)
        with ledger.op("evaluate_checkpoint"):
            check(result is not None and loaded is not None, "nothing to evaluate")
            rec = harness.evaluate_checkpoint(ckpt, loaded, fusion)
            got = canonical_json(rec.aggregates())
            expected = harness.evaluate_model(result.model, loaded, fusion).aggregates()
            check(got == canonical_json(expected),
                  "evaluate_checkpoint differs from the in-memory model")
            out.signature = got
            out.acc_joint = [rec.acc_joint]
            out.c_err = [rec.c_err]
        return out


KINDS = {"train": Workload, "ablation": AblationGrid, "persist": PersistLarge}


class Runner:
    """Set-up rounds, warm-up and timed repetitions of one workload.

    A repetition's signature is the workload's own plus the metrics log of
    every epoch it trained; every timed repetition must match the first
    one's, so reruns, and traced against untraced runs, are byte-identical.
    The warm-up runs the inputs of WARM_UP_SEED: its accuracy is the same
    on every run of one build, whatever the seed.
    """

    def __init__(self, workload: Workload, seed: int, ledger: Ledger, clock: EpochClock):
        self.workload = workload
        self.seed = seed
        self.ledger = ledger
        self.clock = clock
        self.reference = None           # the warm-up's Outcome
        self.first_signature = None     # the first timed repetition's

    def _take(self, outcome: Outcome):
        epochs, records = self.clock.take()
        return epochs, outcome.signature + "\n".join(harness.metrics_log_lines(records))

    def setup_round(self, min_seconds: float = 0.0):
        """Set-up passes until `min_seconds` have passed (at least one).

        Returns the last pass's state and (end, seconds per pass).
        """
        self.workload.speed.tick()
        passes = 0
        start = perf_counter()
        while True:
            state = self.workload.setup(self.seed)
            passes += 1
            end = perf_counter()
            if end - start >= min_seconds:
                break
        self.workload.speed.tick()
        return state, (end, (end - start) / passes)

    def warm_up(self) -> None:
        self.reference = self.workload.rep(self.workload.setup(WARM_UP_SEED), self.ledger)
        self._take(self.reference)

    def repetitions(self, state, seconds: float, min_reps: int, tracer=None) -> list:
        reps = []
        deadline = perf_counter() + seconds
        while len(reps) < min_reps or perf_counter() < deadline:
            if tracer is not None:
                tracer.run = f"rep-{len(reps)}"
            self.workload.speed.tick()
            start = perf_counter()
            outcome = self.workload.rep(state, self.ledger)
            end = perf_counter()
            epochs, signature = self._take(outcome)
            if self.first_signature is None:
                self.first_signature = signature
            else:
                with self.ledger.op("repetition reproduces the first"):
                    check(signature == self.first_signature,
                          "repetition outputs differ from the first repetition's")
            reps.append(((end, end - start), outcome, epochs))
        return reps
