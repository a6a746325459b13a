"""The byte-identical gate: a subset of scripts/metrics_digest.py's lines,
recomputed and compared with the committed DIGESTS.txt.

A change that alters a digest on purpose rewrites the file with
`PYTHONPATH=src python scripts/metrics_digest.py > DIGESTS.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import metrics_digest  # noqa: E402

from invgate.data import GeneratorConfig, generate  # noqa: E402
from invgate.harness import Trainer  # noqa: E402

# (RUNS name, seed): about 3 s of training together
SUBSET = (("train_full", 0), ("train_ce", 0), ("inv_all", 0), ("irmv1", 0),
          ("25d_view_attention", 0))


def subset_lines() -> list[str]:
    """The SUBSET's lines, the CE-only checkpoint's and the seed-0 dataset files'."""
    runs = {name: overrides for name, _, overrides in metrics_digest.RUNS}
    lines = list(metrics_digest.run_lines([(name, [seed], runs[name]) for name, seed in SUBSET]))
    ce_only = metrics_digest._config(0, **metrics_digest.CE_ONLY)
    lines.append(metrics_digest.checkpoint_line(Trainer(ce_only).run()))
    lines += metrics_digest.dataset_lines(generate(GeneratorConfig(seed=0)))
    return lines


@pytest.fixture(scope="module")
def committed() -> dict[str, str]:
    """DIGESTS.txt's lines keyed by everything before the digest."""
    header, *lines = (ROOT / "DIGESTS.txt").read_text().splitlines()
    here = metrics_digest.environment()
    if header != f"# {here}":
        pytest.fail(f"DIGESTS.txt was written in another environment:\n"
                    f"  file: {header.removeprefix('# ')}\n  here: {here}")
    return dict(line.rsplit(" ", 1) for line in lines)


def test_file_holds_every_line_once(committed):
    assert len(committed) == 43


def test_subset_matches_committed_digests(committed):
    # a child process reads the script's BLAS thread settings when it imports numpy
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **metrics_digest.ONE_BLAS_THREAD, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert len(lines) == len(SUBSET) + 3
    for line in lines:
        key, digest = line.rsplit(" ", 1)
        assert committed[key] == digest, f"{key}: digest changed"


if __name__ == "__main__":
    print("\n".join(subset_lines()))
