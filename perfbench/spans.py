"""Spans around calls into invgate's layers, recorded from outside the package.

`Tracer.install()` replaces each traced function where its callers look it
up (a module attribute or a class attribute) with a wrapper that records a
span: name, start, end, parent span and run id, plus a few counts taken at
the same boundary. Counting happens after the span has ended, and its time
is booked as excluded time on every enclosing span, so it never reads as
the program's own time. `uninstall()` puts the originals back. Spans stay in
memory until `write()`; `layer_metrics()` turns them into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

from invgate import data, harness, losses
from invgate import tensor as T
from invgate.encoders import ClassHead, ModalityEncoder
from invgate.optim import SGD

NAME, START, END, PARENT, RUN, ATTRS, EXCLUDED = range(7)


def _graph_nodes(loss) -> int:
    """Nodes the backward pass visits: `loss` and every requires-grad ancestor."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _dataset_mode(path: str) -> str:
    with open(path, "rb") as fh:
        return "binary" if fh.read(len(data.MAGIC)) == data.MAGIC else "text"


def _save_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[2] if len(args) > 2 else "binary")


# (owner, attribute, span name, attrs(args, kwargs, result) -> dict | None)
_TARGETS = [
    (harness, "fit_gmm2", "mining.gmm", lambda a, k, r: {"iters": r.iterations}),
    (harness, "select_joint_hard", "mining.select",
     lambda a, k, r: {"candidates": len(a[0]), "joint": int(r.d_joint.size)}),
    (harness, "cross_entropy", "losses.ce", None),
    (harness, "modality_irm_loss", "losses.inv",
     lambda a, k, r: {"pairs": [losses.contrastive_report(b).n_pairs for b in a[0].values()]}),
    (harness, "nt_xent_align", "losses.align", None),
    (harness, "augment_3d", "data.augment", None),
    (harness, "generate", "data.generate", lambda a, k, r: {"shots": r.config.shots}),
    (data, "generate", "data.generate", lambda a, k, r: {"shots": r.config.shots}),
    (data, "save_dataset", "data.save", lambda a, k, r: {"mode": _save_mode(a, k)}),
    (data, "load_dataset", "data.load", lambda a, k, r: {"mode": _dataset_mode(a[0])}),
    (harness, "evaluate_model", "harness.eval", None),
    (harness, "fuse", "fusion.fuse", None),
    (harness, "save_checkpoint", "checkpoint.save", None),
    (harness, "load_checkpoint", "checkpoint.load", None),
    (T, "backward", "tensor.backward", lambda a, k, r: {"nodes": _graph_nodes(a[0])}),
    (SGD, "step", "optim.step", None),
    (data.Dataset, "arrays", "data.arrays", None),
    (ModalityEncoder, "__call__", "encoders.forward", None),
    (ClassHead, "logits", "encoders.forward", None),
    (harness.Trainer, "total_objective", "harness.objective", None),
    (harness.Trainer, "run_epoch", "harness.epoch", lambda a, k, r: {"epoch": a[1]}),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = perf_counter()
                span[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
                counting = perf_counter() - span[END]
                for open_span in stack:
                    spans[open_span][EXCLUDED] += counting
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, attrs in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run, attrs, excluded) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "excluded": excluded, "parent": parent, "run": run,
                                     "attrs": attrs}) + "\n")

    # -- per-layer metrics ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over every recorded span.

        A `*_ms` metric is the median duration of one call, less the
        tracer's excluded time (one backward and one objective per
        optimizer step); `harness.objective_self_ms` leaves out the direct
        child spans. Counts are per optimizer step
        (`*_per_step`), per training run (`losses.inv_calls`,
        `data.augment_calls`), per repetition (`data.arrays_calls`), per
        fit (`mining.gmm_iters`), per selection (`mining.candidates`) or per
        environment of an invariance call (`losses.inv_pairs`).
        `data.generate_ms` times only the workload's largest datasets. A
        layer the workload never calls reads 0.
        """
        spans = self.spans
        by_name: dict[str, list[list]] = {}
        for s in spans:
            by_name.setdefault(s[NAME], []).append(s)

        def named(name):
            return by_name.get(name, [])

        def ok(name):
            return [s for s in named(name) if not (s[ATTRS] and "error" in s[ATTRS])]

        def took(selected):
            return [s[END] - s[START] - s[EXCLUDED] for s in selected]

        def p50_ms(durations):
            return 1e3 * statistics.median(durations) if durations else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        child_time = [0.0] * len(spans)
        in_objective = [False] * len(spans)
        for i, s in enumerate(spans):
            parent = s[PARENT]
            in_objective[i] = s[NAME] == "harness.objective" or (parent >= 0 and in_objective[parent])
            if parent >= 0:
                child_time[parent] += s[END] - s[START] - s[EXCLUDED]

        objectives = named("harness.objective")
        # self time: a span's duration minus its direct children's (calls nest, never overlap)
        objective_self = [s[END] - s[START] - s[EXCLUDED] - child_time[i]
                          for i, s in enumerate(spans)
                          if s[NAME] == "harness.objective"]
        encoder_in_step = sum(1 for i, s in enumerate(spans)
                              if s[NAME] == "encoders.forward" and in_objective[i])
        step_ce = [s for s in named("losses.ce")
                   if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "harness.objective"]
        backward = named("tensor.backward")
        training_runs = sum(1 for s in named("harness.epoch") if s[ATTRS] and s[ATTRS]["epoch"] == 0)
        reps = {s[RUN] for s in spans if s[RUN].startswith("rep")}
        rep_spans = [s for s in spans if s[RUN].startswith("rep")]
        fits, selects, inv = named("mining.gmm"), ok("mining.select"), ok("losses.inv")
        env_pairs = [p for s in inv for p in s[ATTRS]["pairs"]]
        candidates = sum(s[ATTRS]["candidates"] for s in selects)
        generates = ok("data.generate")
        largest = max((s[ATTRS]["shots"] for s in generates), default=0)

        def mode(name, m):
            return [s for s in ok(name) if s[ATTRS]["mode"] == m]

        return {
            "tensor.backward_ms": p50_ms(took(backward)),
            "tensor.nodes_per_step": ratio(sum(s[ATTRS]["nodes"] for s in ok("tensor.backward")),
                                           len(ok("tensor.backward"))),
            "harness.objective_ms": p50_ms(took(objectives)),
            "harness.objective_self_ms": p50_ms(objective_self),
            "harness.eval_ms": p50_ms(took(named("harness.eval"))),
            "encoders.forward_ms": p50_ms(took(named("encoders.forward"))),
            "encoders.calls_per_step": ratio(encoder_in_step, len(objectives)),
            "losses.ce_ms": p50_ms(took(step_ce)),
            "losses.inv_ms": p50_ms(took(named("losses.inv"))),
            "losses.align_ms": p50_ms(took(named("losses.align"))),
            "losses.inv_calls": ratio(len(named("losses.inv")), training_runs),
            "losses.inv_pairs": ratio(sum(env_pairs), len(env_pairs)),
            "optim.step_ms": p50_ms(took(named("optim.step"))),
            "mining.gmm_ms": p50_ms(took(fits)),
            "mining.gmm_iters": ratio(sum(s[ATTRS]["iters"] for s in ok("mining.gmm")),
                                      len(ok("mining.gmm"))),
            "mining.gmm_failed": ratio(len(fits) - len(ok("mining.gmm")), len(fits)),
            "mining.select_ms": p50_ms(took(named("mining.select"))),
            "mining.candidates": ratio(candidates, len(selects)),
            "mining.joint_yield": ratio(sum(s[ATTRS]["joint"] for s in selects), candidates),
            "data.generate_ms": p50_ms(took(s for s in generates if s[ATTRS]["shots"] == largest)),
            "data.arrays_ms": p50_ms(took(named("data.arrays"))),
            "data.arrays_calls": ratio(sum(1 for s in rep_spans if s[NAME] == "data.arrays"),
                                       len(reps)),
            "data.augment_calls": ratio(len(named("data.augment")), training_runs),
            "data.save_ms.binary": p50_ms(took(mode("data.save", "binary"))),
            "data.save_ms.text": p50_ms(took(mode("data.save", "text"))),
            "data.load_ms.binary": p50_ms(took(mode("data.load", "binary"))),
            "data.load_ms.text": p50_ms(took(mode("data.load", "text"))),
            "fusion.fuse_ms": p50_ms(took(named("fusion.fuse"))),
            "checkpoint.save_ms": p50_ms(took(named("checkpoint.save"))),
            "checkpoint.load_ms": p50_ms(took(named("checkpoint.load"))),
        }
