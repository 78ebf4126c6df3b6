"""Deterministic hashing, seed derivation, and binary array containers.

Everything written through this module is byte-reproducible: no timestamps,
sorted JSON keys, fixed-endian raw array payloads. Run outputs can therefore
be compared by file hash. Every file is written whole or not at all
(``atomic_write``), so a command killed mid-write leaves no torn file
under a final name.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
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


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """A file opened for writing beside ``path`` (same directory, a
    ``.tmp`` name holding this process's id) and moved onto it with
    ``os.replace`` once the block completes. A reader sees the old file,
    the new one, or none; a block that raises leaves neither the final path
    nor the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **({} if "b" in mode else {"encoding": "utf-8"})) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _octets(arr: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous array, as a view of its own buffer."""
    return arr.reshape(-1).view(np.uint8)


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named float64/int64 arrays plus a JSON meta block.

    Layout: magic, u32 header length, header JSON (sorted keys), then the raw
    little-endian array payloads in header order. Unlike ``np.savez`` there
    is no zip wrapper, so identical content yields identical bytes. A
    contiguous little-endian float64/int64 array is written from its own
    buffer, without a copy.
    """
    header = {"meta": meta or {}, "arrays": []}
    payloads = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], order="C")  # keeps a 0-d array's shape
        if arr.dtype.kind == "f":
            arr = arr.astype("<f8", copy=False)
        elif arr.dtype.kind in "iu":
            arr = arr.astype("<i8", copy=False)
        else:
            raise ValueError(f"unsupported dtype {arr.dtype} for array {name!r}")
        header["arrays"].append({"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)})
        payloads.append(arr)
    header_bytes = canonical_json(header).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for arr in payloads:
            fh.write(_octets(arr))


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`save_arrays`. Returns (arrays, meta).

    A torn container (a header cut short or not JSON, a payload shorter
    than its header declares, bytes after the last payload) raises a
    ValueError naming the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
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
            nbytes = math.prod(shape) * dtype.itemsize
            held = min(nbytes, size - fh.tell())  # checked first: a torn header may declare any shape
            if held == nbytes:
                arr = np.empty(shape, dtype)
                held = fh.readinto(_octets(arr))  # straight into the array: no second copy
            if held != nbytes:
                raise ValueError(f"{path}: truncated container: array {entry['name']!r} holds "
                                 f"{held} of its {nbytes} bytes")
            arrays[entry["name"]] = arr
        if fh.read(1):
            raise ValueError(f"{path}: bytes follow the last array of the container")
    return arrays, header["meta"]


def write_json(path: str | Path, obj) -> None:
    """Pretty, key-sorted JSON with a trailing newline (stable bytes)."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with atomic_write(path) as fh:
        fh.write(text + "\n")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
