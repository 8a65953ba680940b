"""Deterministic binary container for model artifacts.

Layout: 4-byte magic, u16 format version, u16 reserved, u32 header length,
UTF-8 JSON header, then raw C-order array bytes in the order the header
lists them. The JSON header is rendered with sorted keys and no whitespace,
and arrays are stored sorted by name, so identical inputs produce identical
bytes (no timestamps, no dict-order dependence).
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

_MAGIC = b"SSMC"
_VERSION = 1
_PREFIX = struct.Struct("<4sHHI")


def save_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    specs = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        specs.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps(
        {"meta": meta, "arrays": specs}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, 0, len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def _read_exact(fh, size: int, what: str) -> bytes:
    """Read size bytes, checking first that the file still holds them, so a
    lying length never allocates."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ValueError(f"truncated container: {what} needs {size} bytes, got {left}")
    return fh.read(size)


def load_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of save_container; any malformed file raises ValueError."""
    with open(path, "rb") as fh:
        magic, version, _, header_len = _PREFIX.unpack(_read_exact(fh, _PREFIX.size, "prefix"))
        if magic != _MAGIC:
            raise ValueError("not a model container (bad magic)")
        if version != _VERSION:
            raise ValueError(f"unsupported container version {version}")
        try:
            header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
        except RecursionError:
            raise ValueError("container header is nested too deeply") from None
        if not isinstance(header, dict) or "meta" not in header or "arrays" not in header:
            raise ValueError("container header needs 'meta' and 'arrays'")
        if not isinstance(header["arrays"], list):
            raise ValueError("container header 'arrays' must be a list")
        arrays = {}
        for spec in header["arrays"]:
            try:
                name = spec["name"]
                dtype = np.dtype(spec["dtype"])
                shape = tuple(spec["shape"])
            except (KeyError, TypeError, SyntaxError) as exc:
                # numpy parses a dtype string such as "08f8" with ast.literal_eval
                raise ValueError(f"bad array entry in container header: {spec!r}") from exc
            if (
                not isinstance(name, str)
                or dtype.kind not in "biufc"
                or not all(type(n) is int and n >= 0 for n in shape)
            ):
                raise ValueError(f"bad array entry in container header: {spec!r}")
            nbytes = math.prod(shape) * dtype.itemsize
            raw = _read_exact(fh, nbytes, f"array {name!r}")
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return header["meta"], arrays
