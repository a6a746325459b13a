"""End to end: a run with every fused node swapped for its composite
(`oracles.COMPOSITES`) trains the same bytes as the fused run: the same
metrics log and the same final parameters."""

import contextlib
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from invgate.config import RunConfig
from invgate.data import GeneratorConfig
from invgate.harness import Trainer, metrics_log_lines
from invgate.losses import IRM_VARIANTS

import oracles


@st.composite
def runs_with_step2(draw):
    """A small config on which step 2 acts: with mining, from epoch 1 and at a
    mining_rho that lets joint-hard rows through on these sizes."""
    gen = GeneratorConfig(num_classes=draw(st.integers(4, 5)), shots=draw(st.integers(6, 8)),
                          num_views=draw(st.sampled_from((2, 3))), seed=draw(st.integers(0, 9)))
    run = {"generator": gen, "epochs": 4, "batch_size": 8, "seed": gen.seed,
           "enable_step1": draw(st.booleans()), "enable_align": draw(st.booleans()),
           "irm_variant": draw(st.sampled_from(IRM_VARIANTS)),
           "include_25d": draw(st.booleans())}
    if run["enable_step1"]:
        run.update(mining_warmup=1, mining_rho=draw(st.sampled_from((0.5, 1.0))))
    if run["enable_align"]:
        run["use_view_attention"] = draw(st.booleans())
    if run["irm_variant"] == "mm_rex":
        run["rex_lambda_min"] = 0.2
    return RunConfig(**run)


def _train(cfg):
    """(metrics log, final parameter bytes, sum of inv_batches) of one run."""
    result = Trainer(cfg).run()
    params = {name: p.data.tobytes() for name, p in result.model.named_params().items()}
    return ("\n".join(metrics_log_lines(result.metrics)), params,
            sum(m["inv_batches"] for m in result.metrics))


@settings(max_examples=10, deadline=None)
# 35 train rows, so the last batch of 3 rounds the mean's 1/3, and 3 views
@example(cfg=RunConfig(generator=GeneratorConfig(num_classes=5, shots=7, num_views=3, seed=1),
                       epochs=4, batch_size=8, seed=1, mining_warmup=1, mining_rho=0.5,
                       irm_variant="irmv1", include_25d=True, use_view_attention=True))
@given(cfg=runs_with_step2())
def test_composites_train_the_same_bytes_as_the_fused_nodes(cfg):
    fused = _train(cfg)
    calls = dict.fromkeys((attr for _, attr, _ in oracles.COMPOSITES), 0)

    def counted(attr, composite):
        def call(*args, **kwargs):
            calls[attr] += 1
            return composite(*args, **kwargs)
        return call

    with contextlib.ExitStack() as stack:
        for owner, attr, composite in oracles.COMPOSITES:
            stack.enter_context(mock.patch.object(owner, attr, counted(attr, composite)))
        composite = _train(cfg)
    assert fused[2] > 0
    # the three nodes of the CE path, the variant's pool node and, with view
    # attention, its softmax ran as composites
    pool = "_irmv1_term" if cfg.irm_variant == "irmv1" else "sup_infonce"
    assert all(calls[name] for name in ("affine", "view_cosine", "cross_entropy", pool))
    assert bool(calls["softmax"]) == cfg.use_view_attention
    assert composite[0] == fused[0]
    assert composite[1] == fused[1]
