"""Versioned binary checkpoint container.

Layout: magic, u32 version, u64 header length, canonical-JSON header, then
raw little-endian float64 array data in the header's order. Arrays are
listed sorted by name, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import CheckpointError

MAGIC = b"IGCK"
FORMAT_NAME = "invgate-checkpoint"
FORMAT_VERSION = 1


def write_checkpoint(
    path: str,
    config: dict,
    epoch: int,
    optimizer: dict,
    arrays: dict[str, np.ndarray],
) -> None:
    names = sorted(arrays)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": config,
        "epoch": int(epoch),
        "optimizer": optimizer,
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(FORMAT_VERSION).tobytes())
        fh.write(np.uint64(len(blob)).tobytes())
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())


def read_checkpoint(path: str) -> tuple[dict, int, dict, dict[str, np.ndarray]]:
    """(config, epoch, optimizer, arrays); a truncated or malformed file, or
    one with bytes after its last array, raises CheckpointError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a {FORMAT_NAME} file")
        version_raw = fh.read(4)
        if len(version_raw) < 4:
            raise CheckpointError(f"{path}: truncated before version")
        version = int(np.frombuffer(version_raw, dtype="<u4")[0])
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        len_raw = fh.read(8)
        if len(len_raw) < 8:
            raise CheckpointError(f"{path}: truncated before header")
        header_len = int(np.frombuffer(len_raw, dtype="<u8")[0])
        if fh.tell() + header_len > size:
            raise CheckpointError(f"{path}: truncated inside header")
        try:
            header = json.loads(fh.read(header_len).decode())
            if header["format"] != FORMAT_NAME:
                raise CheckpointError(f"{path}: bad header format tag")
            arrays: dict[str, np.ndarray] = {}
            for entry in header["arrays"]:
                name, shape = entry["name"], tuple(entry["shape"])
                nbytes = 8 * math.prod(shape)
                if fh.tell() + nbytes > size:
                    raise CheckpointError(f"{path}: truncated while reading array '{name}'")
                arrays[name] = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(shape).copy()
            fields = header["config"], header["epoch"], header["optimizer"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed header: {exc!r}") from exc
        if fh.tell() != size:
            raise CheckpointError(f"{path}: {size - fh.tell()} bytes after the last array")
        return (*fields, arrays)
