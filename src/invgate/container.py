"""The one binary layout of every artefact, and the one way to write a file.

Layout: magic, u32 version, u64 header length, a canonical-JSON header whose
"format" names the artefact, then little-endian payload blocks in the order
the header describes them. Every writer goes through `atomic_open`, so a
write that fails part-way leaves the previous file as it was.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .errors import CheckpointError


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """`open(path, mode)` for writing, through `<path>.<pid>.tmp` in the same
    directory: `os.replace` moves it onto `path` when the block completes,
    and it is removed when the block raises."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write(path: str, magic: bytes, version: int, header: dict, blocks) -> None:
    """Stream `blocks` (bytes or C-contiguous arrays, written in order) after
    the preamble and header."""
    blob = canonical_json(header).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(magic + np.array(version, dtype="<u4").tobytes()
                 + np.array(len(blob), dtype="<u8").tobytes() + blob)
        for block in blocks:
            fh.write(block)


@contextlib.contextmanager
def malformed(path: str):
    """Turn a missing, mistyped or invalid header field into CheckpointError."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from exc


def parse_header(raw, path: str, fmt: str) -> dict:
    """The JSON object in `raw`, which must name `fmt` as its format."""
    with malformed(path):
        header = json.loads(raw)
        if header["format"] == fmt:
            return header
    raise CheckpointError(f"{path}: not a {fmt} file")


@contextlib.contextmanager
def read(path: str, magic: bytes, versions: tuple[int, ...], fmt: str):
    """Yield (version, header, take) for the file at `path`, of one of
    `versions`. `take(nbytes, what)` returns the next payload bytes; a file
    that ends first raises CheckpointError naming `what`, and so do bytes
    left after the block."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def take(nbytes: int, what: str) -> bytes:
            nonlocal left
            if not 0 <= nbytes <= left:
                raise CheckpointError(f"{path}: truncated while reading {what}")
            left -= nbytes
            return fh.read(nbytes)

        if take(len(magic), "magic") != magic:
            raise CheckpointError(f"{path}: not a {fmt} file")
        found = int(np.frombuffer(take(4, "version"), dtype="<u4")[0])
        if found not in versions:
            raise CheckpointError(f"{path}: unsupported {fmt} version {found}")
        header_len = int(np.frombuffer(take(8, "header length"), dtype="<u8")[0])
        yield found, parse_header(take(header_len, "header"), path, fmt), take
        if left:
            raise CheckpointError(f"{path}: {left} bytes after the last block")
