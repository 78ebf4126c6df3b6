"""A torn array container is refused with an error that names its file."""

import re

import numpy as np
import pytest

from weakrank.ioutil import CONTAINER_MAGIC, load_arrays, save_arrays


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
