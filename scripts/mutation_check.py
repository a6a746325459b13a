#!/usr/bin/env python3
"""Check that the gates catch each of a fixed list of source mutations.

Each mutation edits one file of `src/invgate/` in a temporary copy of the
repository. Two gates run on the copy: Tier-1 (pytest over `tests/`), then,
if Tier-1 passes, `scripts/metrics_digest.py` against `DIGESTS.txt`. A
mutation that passes both survives. The unmutated copy must pass both
first. Prints the gate that caught each mutation and exits 1 if any
mutation survives:

    python scripts/mutation_check.py

It takes a few minutes: up to one Tier-1 run and one digest run per mutation.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# what Tier-1 and the digest script read
COPIED = ("src", "tests", "scripts", "perfbench", "configs", "pyproject.toml", "BENCHMARK.json",
          "DIGESTS.txt")

# (what the mutation does, file in src/invgate/, the text it replaces, the
# replacement); the text occurs exactly once in the file
MUTATIONS = (
    ("augment_3d draws a row's normals before its uniforms", "data.py",
     "        rng.random(out=u[i])\n"
     "        if jitter_sigma > 0:\n"
     "            rng.standard_normal(out=z[i])\n",
     "        if jitter_sigma > 0:\n"
     "            rng.standard_normal(out=z[i])\n"
     "        rng.random(out=u[i])\n"),
    ("augment_3d drops the `0.0 +` that turns -0.0 jitter into +0.0", "data.py",
     "    jitter = 0.0 + z ", "    jitter = z "),
    ("_pair_weights keeps each anchor as its own positive", "losses.py",
     "    pos[np.arange(own.size), own] = False", "    pass"),
    ("_pair_weights scores the non-anchor rows of a partial anchor mask", "losses.py",
     "    rows = slice(None) if mask is None or mask.all() else np.flatnonzero(mask)\n",
     "    rows = slice(None)\n"),
    ("contrastive_report counts each anchor as its own pair", "losses.py",
     "np.bincount(labels)[anchors] - 1", "np.bincount(labels)[anchors]"),
    # `ce3 + ce2` for the objective's `ce2 + ce3` is not listed: a sum of two
    # floats is the same either way round, and the two terms share no
    # parameter, so no gradient sum is reordered either (it passed both gates)
    ("v_rex's backward sums its three gradient parts in another order", "losses.py",
     "tuple(g_dev + T._spread(g_mean * scale, None, dev.shape)\n"
     "                     + T._spread(g, None, dev.shape))",
     "tuple(g_dev + (T._spread(g_mean * scale, None, dev.shape)\n"
     "                     + T._spread(g, None, dev.shape)))"),
    ("softmax_np multiplies by 1 / s", "fusion.py",
     "    return e / s\n", "    return e * (1.0 / s)\n"),
    ("save_checkpoint writes its arrays unsorted", "harness.py",
     "    names = sorted(arrays)\n", "    names = list(arrays)\n"),
    ("_upgrade_checkpoint skips the v1 optimizer block comparison", "harness.py",
     "        if block != derived:\n", "        if False:\n"),
    ("load_checkpoint skips the header version comparison", "harness.py",
     "    if said != str(version):\n", "    if False:\n"),
    ("load_dataset skips the header comparison", "data.py",
     "    if said != derived:\n", "    if False:\n"),
    ("generate drops the `0.0 +` that turns a drawn -0.0 into +0.0", "data.py",
     "            noise = 0.0 + z ", "            noise = z "),
    ("generate draws a row's normals before its conflict draw", "data.py",
     "                if rng.random() < cfg.p_conflict:\n"
     "                    i2 = int(rng.integers(len(others)))\n"
     "                    rest = others[:i2] + others[i2 + 1:]\n"
     "                    wrong[i] = others[i2], rest[int(rng.integers(len(rest)))]\n"
     "                rng.standard_normal(out=z_row)\n",
     "                rng.standard_normal(out=z_row)\n"
     "                if rng.random() < cfg.p_conflict:\n"
     "                    i2 = int(rng.integers(len(others)))\n"
     "                    rest = others[:i2] + others[i2 + 1:]\n"
     "                    wrong[i] = others[i2], rest[int(rng.integers(len(rest)))]\n"),
    ("generate draws the 3D target from every other class, not the remaining ones", "data.py",
     "rest = others[:i2] + others[i2 + 1:]", "rest = others"),
    ("load_dataset skips the planted range check", "data.py",
     "        if bad.size:\n", "        if False:\n"),
    ("SGD steps a parameter without a gradient as if its gradient were zero", "optim.py",
     "            if p.grad is not None:\n",
     "            p.grad = np.zeros_like(p.data) if p.grad is None else p.grad\n"
     "            if p.grad is not None:\n"),
    ("RunConfig accepts view attention without alignment", "config.py",
     '    "use_view_attention": {"enable_align": True},\n', ""),
    ("RunConfig drops the align_alpha overflow bound", "config.py",
     'worst = {"align_alpha": math.log(self.batch_size) + 2 * ALIGN_TAU,\n'
     '                 "irm_lambda"',
     'worst = {"irm_lambda"'),
    ("RunConfig skips the read-condition check", "config.py",
     "            if value != default and _unread(", "            if False and _unread("),
    ("RunConfig accepts alignment on batches of one row", "config.py",
     "        if self.enable_align and self.batch_size < 2:\n", "        if False:\n"),
    ("_upgrade_checkpoint skips the xattn equality check", "harness.py",
     '        elif shape != want.shape or raw != np.ascontiguousarray(want, "<f8").tobytes():\n',
     "        elif False:\n"),
    ("CrossAttention keeps draws 1 and 4 (the key projections) as its values", "encoders.py",
     "self.wv, self.wv2 = draws[2], draws[5]", "self.wv, self.wv2 = draws[1], draws[4]"),
    ("upgrade_config accepts the derived invariance_on_all at any value", "config.py",
     "        if name in data:\n",
     "        if name in data and name != \"invariance_on_all\":\n"),
    ("RunConfig accepts include_25d without step 2", "config.py",
     '    "include_25d": {"enable_step2": True},\n', ""),
    ("load_checkpoint skips the header key check", "harness.py",
     "    if unknown:\n", "    if False:\n"),
    ("ablate builds each cell's config only when it reaches the cell", "harness.py",
     "cfgs = [RunConfig.from_dict(upgrade_config(merge_overrides(base_cfg.to_dict(), cell)))\n"
     "            for cell in cells]",
     "cfgs = (RunConfig.from_dict(upgrade_config(merge_overrides(base_cfg.to_dict(), cell)))\n"
     "            for cell in cells)"),
    ("upgrade_config accepts a retired key at any value of its type", "config.py",
     "            if value != want:\n", "            if False:\n"),
    ("upgrade_config compares a retired value by canonical JSON, so 2 is not 2.0", "config.py",
     "            if value != want:\n",
     "            if canonical_json(value) != canonical_json(want):\n"),
    ("upgrade_config reads a retired value as given, so a tuple is not a list", "config.py",
     "json.loads(canonical_json(data[name]))", "data[name]"),
    ("RunConfig accepts step 1 in a run that ends before mining_warmup", "config.py",
     "        if self.enable_step1 and self.mining_warmup >= self.epochs:\n",
     "        if False:\n"),
    ("READ_WHEN omits mining_warmup", "config.py",
     '("mining_rho", "posterior_p2", "posterior_p3", "mining_warmup")',
     '("mining_rho", "posterior_p2", "posterior_p3")'),
    ("upgrade_config lets a value no file can hold escape as a TypeError", "config.py",
     "            except TypeError:", "            except ValueError:"),
    ("a step-off override keeps the fields it leaves unread", "config.py",
     "        if name not in overrides and _unread(merged, name):\n", "        if False:\n"),
    ("the reset also drops a field the overrides name", "config.py",
     "if name not in overrides and _unread(merged, name):", "if _unread(merged, name):"),
    ("READ_WHEN omits irm_variant", "config.py",
     '    "irm_variant": {"enable_step2": True},\n', ""),
    ("the 2D head node takes its view mean by np.mean", "tensor.py",
     "    data = np.add.reduce(per_view, axis=1) * scale\n",
     "    data = np.mean(per_view, axis=1)\n"),
    ("cross_entropy divides its sum by n instead of multiplying by 1 / n", "losses.py",
     "np.add.reduce(-log_probs[np.arange(n), labels], axis=None) * scale",
     "np.add.reduce(-log_probs[np.arange(n), labels], axis=None) / n"),
    ("affine hands b the output gradient without _unbroadcast", "tensor.py",
     "gb = (_unbroadcast(g, b.data.shape) if b_bc else g) if b.requires_grad else None",
     "gb = g if b.requires_grad else None"),
    ("backward keeps a leaf's first gradient as handed, not as a fresh 0.0 + g", "tensor.py",
     "                node.grad = g + 0.0\n", "                node.grad = g\n"),
    ("softmax's VJP drops the normalizer's share", "tensor.py",
     "(g / s + _spread(_unbroadcast(-g * e / (s * s), s.shape), None, e.shape)) * e",
     "g / s * e"),
    ("alignment multiplies by the learnable mask", "harness.py",
     "mask = T.constant(self.model.gate.values())",
     "mask = T.sigmoid(self.model.gate.mask_logits)"),
    ("RETIRED['momentum'] returns WEIGHT_DECAY", "config.py",
     '    "momentum": lambda cfg: MOMENTUM,\n', '    "momentum": lambda cfg: WEIGHT_DECAY,\n'),
    ("the 2.5D view mean is built on the live tape", "harness.py",
     "                with T.no_grad():\n                    agg2 = ",
     "                if True:\n                    agg2 = "),
    ("RunConfig keeps a fusion alias as given", "config.py",
     "self.fusion_mode = self.fusion.mode", "self.fusion.mode"),
    ("the trainer evaluates with the default FusionConfig", "harness.py",
     "evaluate_model(self.model, self.dataset, cfg.fusion)",
     "evaluate_model(self.model, self.dataset, FusionConfig())"),
    ("cosine_lr anneals from epoch + 1", "optim.py",
     "math.pi * (epoch / epochs)", "math.pi * ((epoch + 1) / epochs)"),
    ("modality_irm_loss passes INV_THETA as V-REx's beta", "losses.py",
     "    return v_rex(risks, REX_BETA)\n", "    return v_rex(risks, INV_THETA)\n"),
)


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True)


def tier1(root: Path) -> str | None:
    """None if Tier-1 passes in `root`; otherwise the first failure it names."""
    out = _run(root, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors")
    if out.returncode == 0:
        return None
    failures = [line for line in out.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failures[0] if failures else f"pytest exited {out.returncode}"


def digests(root: Path) -> str | None:
    """None if the digest script in `root` prints DIGESTS.txt; otherwise the
    lines that changed."""
    out = _run(root, "scripts/metrics_digest.py")
    if out.returncode != 0:
        return f"metrics_digest.py exited {out.returncode}"
    want, got = (root / "DIGESTS.txt").read_text().splitlines(), out.stdout.splitlines()
    if got == want:
        return None
    changed = [line.rsplit(" ", 1)[0] for line in want if line not in got]
    return "changed: " + ("; ".join(changed) or f"{len(got)} lines, not {len(want)}")


GATES = {"tier-1": tier1, "digests": digests}


def first_catch(root: Path) -> tuple[str, str] | None:
    """(gate, why) for the first gate that fails in `root`, or None."""
    for gate, check in GATES.items():
        why = check(root)
        if why is not None:
            return gate, why
    return None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="invgate-mutation-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, root / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            else:
                shutil.copy2(src, root / name)
        for what, file, old, _ in MUTATIONS:
            count = (root / "src" / "invgate" / file).read_text().count(old)
            if count != 1:
                print(f"{what}: its text occurs {count} times in {file}")
                return 2
        caught = first_catch(root)
        if caught is not None:
            print(f"the unmutated copy fails {caught[0]}: {caught[1]}")
            return 2
        survivors = []
        for what, file, old, new in MUTATIONS:
            path = root / "src" / "invgate" / file
            original = path.read_text()
            path.write_text(original.replace(old, new))
            caught = first_catch(root)
            path.write_text(original)
            if caught is None:
                survivors.append(what)
                print(f"SURVIVED  {what}", flush=True)
            else:
                print(f"caught by {caught[0]}  {what}\n    {caught[1]}", flush=True)
    print(f"{len(MUTATIONS) - len(survivors)}/{len(MUTATIONS)} mutations caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
