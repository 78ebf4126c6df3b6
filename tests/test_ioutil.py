"""A torn array container is refused with an error that names its file; every
file is written whole or not at all, copy-free, in the same bytes."""

import json
import re
import struct

import numpy as np
import pytest

import weakrank.ioutil as ioutil
from weakrank.ioutil import (
    CONTAINER_MAGIC,
    atomic_write,
    canonical_json,
    load_arrays,
    save_arrays,
    write_json,
)
from weakrank.scores import ScoreMatrix


@pytest.fixture
def container(tmp_path):
    path = tmp_path / "table.bin"
    save_arrays(path, {"vectors": np.arange(12.0).reshape(4, 3), "ids": np.arange(4)},
                meta={"note": "x"})
    return path


def _refused(path, message):
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": " + message):
        load_arrays(path)


@pytest.mark.parametrize("cut", [2, 9, 20])  # inside the length, inside the header JSON
def test_a_cut_header_names_the_file(container, cut):
    container.write_bytes(container.read_bytes()[:len(CONTAINER_MAGIC) + cut])
    _refused(container, "truncated container: the header")


def test_a_cut_payload_names_the_file_and_the_array(container):
    data = container.read_bytes()
    container.write_bytes(data[:len(data) - 40])  # the last array, 'vectors', loses 5 values
    _refused(container, "truncated container: array 'vectors' holds 56 of its 96 bytes")


def test_trailing_bytes_name_the_file(container):
    container.write_bytes(container.read_bytes() + b"\x00")
    _refused(container, "bytes follow the last array of the container")


def test_a_header_that_is_not_json_names_the_file(container):
    data = bytearray(container.read_bytes())
    data[len(CONTAINER_MAGIC) + 4] = ord("!")
    container.write_bytes(bytes(data))
    _refused(container, "unreadable container header")


def _reference_container(arrays, meta):
    """The container's bytes as a plain ``tobytes()`` writer lays them out."""
    header = {"meta": meta, "arrays": []}
    payloads = b""
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        arr = arr.astype("<f8" if arr.dtype.kind == "f" else "<i8")
        header["arrays"].append({"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)})
        payloads += arr.tobytes()
    text = canonical_json(header).encode("utf-8")
    return CONTAINER_MAGIC + struct.pack("<I", len(text)) + text + payloads


ODD_ARRAYS = {
    "f32": np.linspace(0, 1, 7, dtype=np.float32),
    "big": np.arange(6, dtype=">f8").reshape(2, 3),
    "strided": np.arange(20.0).reshape(4, 5)[:, ::2],
    "transposed": np.arange(12.0).reshape(3, 4).T,
    "u8": np.arange(5, dtype=np.uint8),
    "i32": -np.arange(4, dtype=np.int32),
    "empty": np.zeros((0, 3)),
}


def test_written_bytes_are_the_plain_layout_and_read_back(tmp_path):
    path = tmp_path / "odd.bin"
    save_arrays(path, ODD_ARRAYS, meta={"k": [1, 2]})
    assert path.read_bytes() == _reference_container(ODD_ARRAYS, {"k": [1, 2]})
    arrays, meta = load_arrays(path)
    assert meta == {"k": [1, 2]}
    for name, arr in ODD_ARRAYS.items():
        got = arrays[name]
        assert got.shape == arr.shape and np.array_equal(got, arr)
        assert got.flags.owndata and got.flags.writeable and got.flags.c_contiguous


def test_zero_d_arrays_keep_their_shape(tmp_path):
    path = tmp_path / "scalars.bin"
    save_arrays(path, {"f": np.array(2.5), "i": np.int64(3)})
    arrays, _ = load_arrays(path)
    assert arrays["f"].shape == () and arrays["f"].dtype == np.dtype("<f8") and arrays["f"] == 2.5
    assert arrays["i"].shape == () and arrays["i"].dtype == np.dtype("<i8") and arrays["i"] == 3


def test_a_write_that_raises_mid_payload_leaves_nothing(tmp_path, monkeypatch):
    calls = []

    def failing(arr):
        calls.append(arr)
        if len(calls) == 2:
            raise OSError("disk gone")
        return arr.reshape(-1).view(np.uint8)

    monkeypatch.setattr(ioutil, "_octets", failing)
    with pytest.raises(OSError, match="disk gone"):
        save_arrays(tmp_path / "new.bin", {"a": np.ones(3), "b": np.ones(4)})
    assert len(calls) == 2  # the header and the first payload were written
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_keeps_the_old_file(tmp_path, container):
    old = container.read_bytes()
    with pytest.raises(ValueError, match="unsupported dtype"):
        save_arrays(container, {"a": np.ones(3), "s": np.array(["x"])})
    with pytest.raises(ValueError, match="Out of range float"):
        write_json(container, {"x": float("nan")})
    assert container.read_bytes() == old
    assert [p.name for p in container.parent.iterdir()] == [container.name]


def test_atomic_write_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half")
            raise RuntimeError("killed")
    assert path.read_text() == "old\n"
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_json_and_csv_writers_keep_their_bytes(tmp_path):
    obj = {"b": [1, 2.5], "a": {"z": None, "y": "t"}}
    write_json(tmp_path / "x.json", obj)
    assert (tmp_path / "x.json").read_bytes() == (
        json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")
    ScoreMatrix("m", ("q1", "q2"), ("c1", "c2"), [[0.1, 1.0], [2.0, -3.5]]).save_csv(
        tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == b",c1,c2\nq1,0.1,1.0\nq2,2.0,-3.5\n"


def test_a_header_declaring_a_huge_array_is_refused_before_allocating(tmp_path):
    path = tmp_path / "huge.bin"
    text = canonical_json({"meta": {}, "arrays": [
        {"name": "x", "shape": [1 << 40, 1 << 20], "dtype": "float64"}]}).encode("utf-8")
    path.write_bytes(CONTAINER_MAGIC + struct.pack("<I", len(text)) + text + bytes(16))
    _refused(path, f"truncated container: array 'x' holds 16 of its {(1 << 63)} bytes")


class _TornFile:
    """A file whose every write stores half its text, then raises, as a kill
    partway through a write would leave it."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError("killed partway through a write")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def tear_every_write(monkeypatch):
    """Make every file ``atomic_write`` opens tear on its first write; a writer
    that opens its file elsewhere raises nothing."""
    def torn_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        return _TornFile(fh) if "w" in mode else fh

    monkeypatch.setattr(ioutil, "open", torn_open, raising=False)


def assert_old_file_only(path, old: bytes):
    assert path.read_bytes() == old
    assert not [p.name for p in path.parent.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("writer", ["config", "documents", "annotations"])
def test_a_writer_that_raises_partway_keeps_the_old_file(tmp_path, monkeypatch, writer):
    from weakrank.config import ExperimentConfig
    from weakrank.corpus import AnnotationSet, save_annotations_tsv, save_documents_jsonl

    path = tmp_path / "out"
    path.write_bytes(b"old\n")
    tear_every_write(monkeypatch)
    with pytest.raises(OSError, match="partway"):
        if writer == "config":
            ExperimentConfig().save(path)
        elif writer == "documents":
            save_documents_jsonl(path, [{"id": "q1", "role": "query", "text": "a b"}])
        else:
            save_annotations_tsv(path, AnnotationSet((("q1", "c1", 1),), "all"))
    assert_old_file_only(path, b"old\n")
