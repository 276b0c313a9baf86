"""Versioned binary model container.

Layout: 8-byte magic, uint32 format version, uint32 header length, UTF-8
JSON header, then a contiguous little-endian float64 payload holding the
parameter arrays in the order listed by the header's ``arrays`` field
(name, shape pairs; a shape is a list of non-negative ints).
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"FSCKPT\x00\x00"
VERSION = 1


class CheckpointError(ValueError):
    pass


def write_container(path: Path | str, kind: str, header: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    header = dict(header)
    header["kind"] = kind
    header["arrays"] = [[name, list(a.shape)] for name, a in arrays.items()]
    header_bytes = json.dumps(header).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for a in arrays.values())
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def read_container(path: Path | str,
                   kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 8 or blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path.name}: not a model container")
    version, header_len = struct.unpack_from("<II", blob, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(
            f"{path.name}: unsupported container version {version}")
    start = len(MAGIC) + 8
    if len(blob) < start + header_len:
        raise CheckpointError(f"{path.name}: truncated header")
    try:
        header = json.loads(blob[start:start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path.name}: corrupt header: {exc}") from None
    if header.get("kind") != kind:
        raise CheckpointError(
            f"{path.name}: expected a {kind!r} container, "
            f"got {header.get('kind')!r}")

    offset = start + header_len
    arrays: dict[str, np.ndarray] = {}
    for name, shape in header.get("arrays", []):
        if not isinstance(shape, list) or not all(
                type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(
                f"{path.name}: array {name!r} has a malformed shape {shape!r}")
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path.name}: truncated payload at {name}")
        arrays[name] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset
        ).reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path.name}: trailing bytes after payload")
    return header, arrays
