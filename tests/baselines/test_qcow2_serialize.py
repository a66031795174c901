"""Property tests for qcow2 file (de)serialization — snapshot copy fidelity."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.qcow2 import HEADER_BYTES, Qcow2Image
from repro.common.payload import Payload

CL = 64
IMG = 8 * CL


def pattern(n, seed=1):
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


def backing():
    data = pattern(IMG)
    payload = Payload.from_bytes(data)
    return data, lambda off, n: payload.slice(off, off + n)


write_op = st.tuples(st.integers(0, IMG - 1), st.integers(1, 2 * CL), st.integers(0, 1000))


@settings(max_examples=120)
@given(st.lists(write_op, max_size=10))
def test_serialize_deserialize_preserves_guest_view(writes):
    data, backing_read = backing()
    img = Qcow2Image(IMG, backing_read, cluster_size=CL)
    for off, ln, seed in writes:
        ln = min(ln, IMG - off)
        img.write(off, Payload.from_bytes(pattern(ln, seed)))
    file_payload, index = img.serialize()
    # the file holds exactly header + allocated clusters
    assert file_payload.size == HEADER_BYTES + len(index) * CL
    assert sorted(index) == index  # canonical order
    reopened = Qcow2Image.deserialize(file_payload, index, IMG, backing_read, cluster_size=CL)
    assert reopened.read(0, IMG)[0] == img.read(0, IMG)[0]
    assert reopened.serialize() == (file_payload, index)


@settings(max_examples=60)
@given(st.lists(write_op, max_size=8))
def test_deserialized_copy_diverges_independently(writes):
    data, backing_read = backing()
    img = Qcow2Image(IMG, backing_read, cluster_size=CL)
    for off, ln, seed in writes:
        ln = min(ln, IMG - off)
        img.write(off, Payload.from_bytes(pattern(ln, seed)))
    file_payload, index = img.serialize()
    copy = Qcow2Image.deserialize(file_payload, index, IMG, backing_read, cluster_size=CL)
    snapshot_view, _ = img.read(0, IMG)
    copy.write(0, Payload.from_bytes(b"DIVERGED"))
    # the original is untouched by writes to the copy
    assert img.read(0, IMG)[0] == snapshot_view


def test_empty_image_serializes_to_header_only():
    _, backing_read = backing()
    img = Qcow2Image(IMG, backing_read, cluster_size=CL)
    file_payload, index = img.serialize()
    assert file_payload.size == HEADER_BYTES
    assert index == []
