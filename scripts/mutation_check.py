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
    ("_pair_weights keeps the positives of non-anchor rows", "losses.py",
     "        pos[~mask] = False\n", "        pass\n"),
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
    ("load_checkpoint skips the v1 optimizer block comparison", "harness.py",
     "            if block != derived:\n", "            if False:\n"),
    ("load_checkpoint skips the header version comparison", "harness.py",
     "        if said != str(version):\n", "        if False:\n"),
    ("load_dataset skips the header comparison", "data.py",
     "    if said != derived:\n", "    if False:\n"),
    ("SGD steps a parameter without a gradient as if its gradient were zero", "optim.py",
     "            if p.grad is not None:\n",
     "            p.grad = np.zeros_like(p.data) if p.grad is None else p.grad\n"
     "            if p.grad is not None:\n"),
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
