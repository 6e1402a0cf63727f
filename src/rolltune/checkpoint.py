"""Binary checkpoint files for model parameters.

Layout, all little-endian:

  magic     4 bytes, b"B2B1"
  version   uint32 (currently 1)
  metadata  uint32 byte length, then canonical JSON (sorted keys,
            compact separators, ASCII)
  sections  uint32 count, then per section, sorted by name:
              uint16 name length + UTF-8 name
              uint8 ndim + one uint32 per extent
              row-major float64 values

Every value is float64, so a section's payload is exactly
8 * product(shape) bytes. Reading is bitwise faithful, and rewriting
what was read reproduces the original file byte for byte: reading
refuses section names that are empty, not valid UTF-8 or not strictly
increasing, as a repeated name would replace the first array, and
metadata that is not canonical JSON (spaces, unsorted keys). With
sorted sections and canonical JSON the bytes do not depend on dict
insertion order either. write_atomic, which every artifact the CLI
writes goes through, replaces a file only once its new bytes are
complete.
"""

import json
import math
import os
import struct

import numpy as np

MAGIC = b"B2B1"
VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed: bad magic, version, or shape."""


def _metadata_bytes(metadata: dict) -> bytes:
    """Canonical JSON: sorted keys, compact separators, ASCII."""
    return json.dumps(metadata, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def checkpoint_bytes(arrays: dict, metadata: dict | None = None) -> bytes:
    """Serialize named float64 arrays plus a JSON metadata block."""
    meta_blob = _metadata_bytes(metadata or {})
    parts = [MAGIC, struct.pack("<I", VERSION),
             struct.pack("<I", len(meta_blob)), meta_blob,
             struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        encoded = name.encode("utf-8")
        if not 0 < len(encoded) <= 0xFFFF:
            raise ValueError(f"section name {name!r} is empty or too long")
        # asarray keeps 0-d shapes; tobytes() below emits row-major
        # bytes regardless of the source layout.
        values = np.asarray(arrays[name], dtype="<f8")
        if values.ndim > 0xFF:
            raise ValueError(f"section {name!r} has too many dimensions")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", values.ndim))
        parts.append(struct.pack(f"<{values.ndim}I", *values.shape))
        parts.append(values.tobytes())
    return b"".join(parts)


def parse_checkpoint(data: bytes):
    """Inverse of checkpoint_bytes; returns (arrays, metadata)."""
    view = memoryview(data)
    offset = 0

    def take(n, what):
        nonlocal offset
        if offset + n > len(view):
            raise CheckpointError(f"truncated checkpoint: ran out of bytes "
                                  f"reading {what}")
        chunk = view[offset:offset + n]
        offset += n
        return chunk

    if bytes(take(4, "magic")) != MAGIC:
        raise CheckpointError(f"bad magic: expected {MAGIC!r}")
    version, = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    meta_len, = struct.unpack("<I", take(4, "metadata length"))
    meta_blob = bytes(take(meta_len, "metadata"))
    try:
        metadata = json.loads(meta_blob)
    except ValueError as exc:
        raise CheckpointError(f"corrupt metadata block: {exc}") from exc
    if not isinstance(metadata, dict):
        raise CheckpointError("corrupt metadata block: expected a JSON "
                              f"object, got {type(metadata).__name__}")
    if _metadata_bytes(metadata) != meta_blob:
        raise CheckpointError("metadata block is not canonical JSON (sorted"
                              " unique keys, compact separators, ASCII)")
    n_sections, = struct.unpack("<I", take(4, "section count"))
    arrays, last = {}, ""
    for _ in range(n_sections):
        name_len, = struct.unpack("<H", take(2, "section name length"))
        raw = bytes(take(name_len, "section name"))
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"section name {raw!r} is not valid "
                                  "UTF-8") from exc
        if name <= last:    # the writer sorts names and never repeats one
            raise CheckpointError(f"section {name!r} is not after {last!r}:"
                                  " names must be non-empty and increasing")
        last = name
        ndim, = struct.unpack("<B", take(1, f"ndim of {name!r}"))
        shape = struct.unpack(f"<{ndim}I",
                              take(4 * ndim, f"shape of {name!r}"))
        blob = take(8 * math.prod(shape),
                    f"values of {name!r} (shape {shape})")
        arrays[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
    if offset != len(view):
        raise CheckpointError(f"{len(view) - offset} trailing bytes after "
                              "the last section")
    return arrays, metadata


def write_atomic(path, data: bytes):
    """Write data to path through a temporary sibling and os.replace, so
    path holds either its old contents or all of data, never a part."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_checkpoint(path, arrays: dict, metadata: dict | None = None):
    write_atomic(path, checkpoint_bytes(arrays, metadata))


def read_checkpoint(path):
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read())
