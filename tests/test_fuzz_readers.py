"""Fuzzed inputs for the DFM1, DLB1 and tensor-file readers.

Every malformed file (truncated, with bytes after its last block, with a
bad magic or header) must raise FormatError and nothing else. The examples
are derandomized (conftest.py's hypothesis profile), so every run checks
the same inputs. Header dimensions of label files stay at most 2**12, so a
reader that allocated what a header claims would still ask for little
memory (the unbounded header has its own test in test_data.py).
"""

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from priorcast.data import (
    FEATURE_MAGIC,
    LABEL_MAGIC,
    read_features,
    read_labels,
    read_tensor_file,
    write_features_to,
)
from priorcast.errors import FormatError

FUZZ = settings(max_examples=50)

SMALL = st.integers(1, 6)
# DFM1 dims may be huge: the element cap and the file-size check refuse
# them before any payload is read
DIM = st.one_of(st.integers(0, 64), st.sampled_from([2**16, 2**31, 2**32 - 1]))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.bin"


def _dfm(rows, cols) -> bytes:
    buf = io.BytesIO()
    write_features_to(buf, np.arange(rows * cols, dtype=np.float64).reshape(rows, cols))
    return buf.getvalue()


def _dlb(labels, num_classes) -> bytes:
    return (LABEL_MAGIC + struct.pack("<II", len(labels), num_classes)
            + np.asarray(labels, dtype="<u4").tobytes())


def _tensor_file(header: bytes, blocks) -> bytes:
    return header + b"\n" + b"".join(_dfm(r, c) for r, c in blocks)


@st.composite
def valid_files(draw):
    """(reader, bytes of a well-formed file it accepts)."""
    kind = draw(st.sampled_from(["dfm", "dlb", "tensor"]))
    if kind == "dfm":
        return read_features, _dfm(draw(SMALL), draw(SMALL))
    if kind == "dlb":
        num_classes = draw(SMALL)
        labels = draw(st.lists(st.integers(0, num_classes - 1), max_size=6))
        return read_labels, _dlb(labels, num_classes)
    blocks = draw(st.lists(st.tuples(SMALL, SMALL), min_size=1, max_size=3))
    header = json.dumps({"name": draw(st.text(max_size=4))}).encode("utf-8")
    return (lambda path: read_tensor_file(path, len(blocks))), _tensor_file(header, blocks)


def _rejects(scratch, reader, data: bytes) -> None:
    scratch.write_bytes(data)
    with pytest.raises(FormatError):
        reader(scratch)


@FUZZ
@given(valid_files(), st.data())
def test_truncated_files_raise_format_error(scratch, case, data):
    reader, blob = case
    scratch.write_bytes(blob)
    reader(scratch)  # the whole file reads
    cut = data.draw(st.integers(0, len(blob) - 1))
    _rejects(scratch, reader, blob[:cut])


@FUZZ
@given(valid_files(), st.binary(min_size=1, max_size=16))
def test_trailing_bytes_raise_format_error(scratch, case, extra):
    reader, blob = case
    _rejects(scratch, reader, blob + extra)


@FUZZ
@given(valid_files(), st.binary(min_size=4, max_size=4))
def test_bad_magic_raises_format_error(scratch, case, magic):
    reader, blob = case
    assume(magic not in (FEATURE_MAGIC, LABEL_MAGIC) and b"\n" not in magic)
    if reader in (read_features, read_labels):
        blob = magic + blob[4:]
    else:  # the first block after the header line
        header, rest = blob.split(b"\n", 1)
        blob = header + b"\n" + magic + rest[4:]
    _rejects(scratch, reader, blob)


@FUZZ
@given(DIM, DIM, st.binary(max_size=64))
def test_bad_feature_header_dims_raise_format_error(scratch, rows, cols, payload):
    assume(rows == 0 or cols == 0 or rows * cols * 4 > len(payload))
    _rejects(scratch, read_features, FEATURE_MAGIC + struct.pack("<III", rows, cols, 0) + payload)


@FUZZ
@given(st.integers(0, 2**12), st.integers(0, 8),
       st.lists(st.integers(0, 2**32 - 1), max_size=8))
def test_bad_label_header_dims_raise_format_error(scratch, rows, num_classes, labels):
    # short of the rows claimed, or a claimed row outside [0, num_classes)
    assume(rows > len(labels) or any(v >= num_classes for v in labels[:rows]))
    blob = _dlb(labels, num_classes)
    _rejects(scratch, read_labels, blob[:4] + struct.pack("<I", rows) + blob[8:])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@FUZZ
@given(st.one_of(JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8")),
                 st.binary(max_size=16).filter(lambda b: b"\n" not in b)))
def test_tensor_header_not_an_object_raises_format_error(scratch, header):
    try:
        assume(not isinstance(json.loads(header), dict))
    except ValueError:
        pass  # not JSON, or not UTF-8: equally malformed
    _rejects(scratch, lambda path: read_tensor_file(path, 1), _tensor_file(header, [(2, 3)]))
