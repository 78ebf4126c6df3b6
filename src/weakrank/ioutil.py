"""Deterministic hashing, seed derivation, and binary array containers.

Everything written through this module is byte-reproducible: no timestamps,
sorted JSON keys, fixed-endian raw array payloads. Run outputs can therefore
be compared by file hash.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

CONTAINER_MAGIC = b"WRANK1\n"


def canonical_json(obj) -> str:
    """JSON with sorted keys and no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def stable_hash(obj) -> str:
    """sha256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def derive_seed(master_seed: int, *labels) -> int:
    """Derive an independent 63-bit seed from a master seed and a label path.

    Distinct label paths give statistically independent streams; the same
    path always gives the same seed.
    """
    payload = canonical_json([int(master_seed), *[str(x) for x in labels]])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named float64/int64 arrays plus a JSON meta block.

    Layout: magic, u32 header length, header JSON (sorted keys), then the raw
    little-endian array payloads in header order. Unlike ``np.savez`` there
    is no zip wrapper, so identical content yields identical bytes.
    """
    header = {"meta": meta or {}, "arrays": []}
    payloads = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.kind == "f":
            arr = arr.astype("<f8")
        elif arr.dtype.kind in "iu":
            arr = arr.astype("<i8")
        else:
            raise ValueError(f"unsupported dtype {arr.dtype} for array {name!r}")
        header["arrays"].append({"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)})
        payloads.append(arr.tobytes())
    header_bytes = canonical_json(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for blob in payloads:
            fh.write(blob)


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`save_arrays`. Returns (arrays, meta).

    A torn container (a header cut short or not JSON, a payload shorter
    than its header declares, bytes after the last payload) raises a
    ValueError naming the file."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CONTAINER_MAGIC))
        if magic != CONTAINER_MAGIC:
            raise ValueError(f"{path}: not a weakrank array container")
        length = fh.read(4)
        if len(length) != 4:
            raise ValueError(f"{path}: truncated container: the header length is cut short")
        (hlen,) = struct.unpack("<I", length)
        raw_header = fh.read(hlen)
        if len(raw_header) != hlen:
            raise ValueError(f"{path}: truncated container: the header holds "
                             f"{len(raw_header)} of its {hlen} bytes")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both are
            raise ValueError(f"{path}: unreadable container header: {exc}") from exc
        arrays = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            dtype = np.dtype(entry["dtype"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * dtype.itemsize)
            if len(raw) != count * dtype.itemsize:
                raise ValueError(f"{path}: truncated container: array {entry['name']!r} holds "
                                 f"{len(raw)} of its {count * dtype.itemsize} bytes")
            arrays[entry["name"]] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: bytes follow the last array of the container")
    return arrays, header["meta"]


def write_json(path: str | Path, obj) -> None:
    """Pretty, key-sorted JSON with a trailing newline (stable bytes)."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
