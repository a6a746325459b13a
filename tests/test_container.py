import os

import numpy as np
import pytest

from invgate import container
from invgate.config import RunConfig, canonical_json
from invgate.data import GeneratorConfig, save_dataset, write_manifest
from invgate.errors import CheckpointError
from invgate.fusion import FusionConfig
from invgate.harness import Trainer, evaluate_model, save_checkpoint, write_eval_artifacts

MAGIC, FMT = b"TEST", "test-container"


def _write(path, blocks=(b"abcd", b"efgh"), version=3, header=None):
    container.write(str(path), MAGIC, version, header or {"format": FMT, "n": 2}, blocks)


def _read_all(path, sizes=(4, 4), versions=(3,)):
    with container.read(str(path), MAGIC, versions, FMT) as (version, header, take):
        return version, header, [take(n, f"block {i}") for i, n in enumerate(sizes)]


def test_round_trip_streams_blocks_in_order(tmp_path):
    p = tmp_path / "c"
    _write(p, blocks=iter([b"abcd", b"efgh"]))
    assert _read_all(p) == (3, {"format": FMT, "n": 2}, [b"abcd", b"efgh"])
    blob = canonical_json({"format": FMT, "n": 2}).encode()
    assert p.read_bytes()[:16] == MAGIC + np.uint32(3).tobytes() + np.uint64(len(blob)).tobytes()


def test_config_canonical_json_is_the_container_one():
    assert canonical_json is container.canonical_json
    assert canonical_json({"b": [1, 2], "a": None}) == '{"a":null,"b":[1,2]}'


@pytest.mark.parametrize("damage,message", [
    (lambda b: b"XXXX" + b[4:], "not a test-container file"),
    (lambda b: b[:4] + np.uint32(4).tobytes() + b[8:], "unsupported test-container version 4"),
    (lambda b: b[:2], "truncated while reading magic"),
    (lambda b: b[:6], "truncated while reading version"),
    (lambda b: b[:12], "truncated while reading header length"),
    (lambda b: b[:20], "truncated while reading header"),
    (lambda b: b[:-2], "truncated while reading block 1"),
    (lambda b: b + b"!", "1 bytes after the last block"),
    (lambda b: b.replace(b'"format"', b'"formal"'), "malformed header"),
], ids=["magic", "version", "cut_magic", "cut_version", "cut_length", "cut_header",
        "cut_block", "trailing", "no_format"])
def test_reader_rejects_damage(tmp_path, damage, message):
    p = tmp_path / "c"
    _write(p)
    p.write_bytes(damage(p.read_bytes()))
    with pytest.raises(CheckpointError, match=message):
        _read_all(p)


def test_reader_yields_whichever_accepted_version_it_found(tmp_path):
    p = tmp_path / "c"
    for version in (1, 3):
        _write(p, version=version)
        assert _read_all(p, versions=(1, 3))[0] == version
    _write(p, version=2)
    with pytest.raises(CheckpointError, match="unsupported test-container version 2"):
        _read_all(p, versions=(1, 3))


def test_header_must_name_the_format(tmp_path):
    p = tmp_path / "c"
    _write(p, header={"format": "other"})
    with pytest.raises(CheckpointError, match="not a test-container file"):
        _read_all(p)


# -- atomic writes -----------------------------------------------------------------


@pytest.fixture(scope="module")
def run():
    gen = GeneratorConfig(num_classes=4, shots=4, invariant_dim=6, confound_dim=4,
                          num_views=2, seed=0)
    cfg = RunConfig(generator=gen, output_dim=10, epochs=2, batch_size=8, mining_warmup=1)
    trainer = Trainer(cfg)
    return trainer.dataset, trainer.run()


# writer name -> (file names it writes, how to call it on a target directory)
WRITERS = {
    "dataset_binary": (["data"], lambda d, ds, r: save_dataset(ds, str(d / "data"))),
    "dataset_text": (["data"], lambda d, ds, r: save_dataset(ds, str(d / "data"), mode="text")),
    "checkpoint": (["ckpt"], lambda d, ds, r: save_checkpoint(str(d / "ckpt"), r)),
    "manifest": (["manifest"], lambda d, ds, r: write_manifest(ds, str(d / "manifest"))),
    "eval_artifacts": (["per_sample.csv", "confusion_2d.csv", "confusion_3d.csv",
                        "confusion_joint.csv", "aggregates.json"],
                       lambda d, ds, r: write_eval_artifacts(
                           evaluate_model(r.model, ds, FusionConfig()), str(d))),
}


class FailingFile:
    """A file whose first `write` lands and then raises, as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data)
        raise OSError("disk full")


def _snapshot(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_the_older_file(run, tmp_path, monkeypatch, writer):
    names, write = WRITERS[writer]
    for name in names:
        (tmp_path / name).write_bytes(b"an older artefact\n")
    before = _snapshot(tmp_path)
    monkeypatch.setattr(container, "open", lambda path, mode: FailingFile(open(path, mode)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path, *run)
    assert _snapshot(tmp_path) == before     # a leftover temp file would be an extra name
    monkeypatch.undo()
    write(tmp_path, *run)
    after = _snapshot(tmp_path)
    assert sorted(after) == sorted(names)
    assert all(after[name] != before[name] for name in names)


@pytest.mark.parametrize("writer", WRITERS)
def test_fresh_write_has_plain_open_mode_bits(run, tmp_path, writer):
    names, write = WRITERS[writer]
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        write(tmp_path, *run)
    finally:
        os.umask(old_umask)
    plain = os.stat(tmp_path / "plain").st_mode
    assert plain & 0o777 == 0o640
    assert all(os.stat(tmp_path / name).st_mode == plain for name in names)


def test_failed_write_into_missing_directory_leaves_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        with container.atomic_open(str(tmp_path / "missing" / "f")) as fh:
            fh.write("x")
    assert os.listdir(tmp_path) == []
