"""Unit and property tests for the payload algebra and sparse files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import OutOfRangeError
from repro.common.payload import (
    EMPTY,
    BytesAtom,
    OpaqueAtom,
    Payload,
    SparseFile,
    ZeroAtom,
)


class TestConstruction:
    def test_from_bytes(self):
        p = Payload.from_bytes(b"hello")
        assert p.size == 5
        assert p.to_bytes() == b"hello"

    def test_zeros(self):
        p = Payload.zeros(4)
        assert p.size == 4
        assert p.to_bytes() == b"\x00" * 4

    def test_opaque(self):
        p = Payload.opaque("img", 100, offset=10)
        assert p.size == 100
        assert not p.is_materialized()

    def test_empty(self):
        assert EMPTY.size == 0
        assert EMPTY.to_bytes() == b""

    def test_opaque_to_bytes_raises(self):
        with pytest.raises(ValueError):
            Payload.opaque("img", 10).to_bytes()

    def test_zero_sized_atoms_dropped(self):
        p = Payload.concat([Payload.from_bytes(b""), Payload.zeros(0)])
        assert p == EMPTY

    def test_zero_size_is_the_empty_payload(self):
        for p in (Payload.zeros(0), Payload.opaque("img", 0, offset=7), Payload.from_bytes(b"")):
            assert p == EMPTY and p._atoms == ()

    def test_negative_size_rejected(self):
        with pytest.raises(OutOfRangeError):
            Payload.zeros(-5)
        with pytest.raises(OutOfRangeError):
            Payload.opaque("x", -3)
        # the parent accepted both: (b"abcdef" + opaque("x", -3)).size was 3


class TestAtoms:
    ATOMS = (BytesAtom(b"\x01"), ZeroAtom(1), OpaqueAtom("img", 5, 10))

    def test_immutable(self):
        for atom in self.ATOMS:
            field = atom._fields[0]
            with pytest.raises(AttributeError):
                setattr(atom, field, getattr(atom, field))
            with pytest.raises(AttributeError):
                atom.extra = 1

    def test_hashable_without_a_dict(self):
        for atom in self.ATOMS:
            assert not hasattr(atom, "__dict__")
            assert hash(atom) == hash(type(atom)(*atom))
            assert atom == type(atom)(*atom)

    def test_kinds_never_compare_equal(self):
        assert ZeroAtom(1) != BytesAtom(b"\x01")
        assert OpaqueAtom("img", 0, 1) != ZeroAtom(1)
        assert Payload.zeros(1) != Payload.from_bytes(b"\x00")  # identity, not content

    def test_sizes(self):
        assert [atom.size for atom in self.ATOMS] == [1, 1, 10]

    def test_opaque_window_keeps_window_arithmetic(self):
        assert OpaqueAtom("img", 5, 10).window(2, 6) == OpaqueAtom("img", 7, 4)
        assert ZeroAtom(9).window(2, 6) == ZeroAtom(4)
        whole = BytesAtom(b"abc")
        assert whole.window(0, 3) is whole and whole.window(1, 2) == BytesAtom(b"b")


class TestSliceConcat:
    def test_slice_bytes(self):
        p = Payload.from_bytes(b"abcdef")
        assert p.slice(1, 4).to_bytes() == b"bcd"

    def test_slice_across_atoms(self):
        p = Payload.from_bytes(b"abc") + Payload.zeros(3) + Payload.from_bytes(b"xyz")
        assert p.slice(2, 8).to_bytes() == b"c\x00\x00\x00xy"

    def test_slice_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            Payload.from_bytes(b"abc").slice(0, 4)

    def test_empty_slice_is_the_empty_payload(self):
        # the single-atom shortcut used to keep a zero-sized atom here
        assert Payload.from_bytes(b"abc").slice(1, 1) == EMPTY
        assert SparseFile(4, base=Payload.opaque("img", 4)).read(2, 0) == EMPTY

    def test_opaque_slice_window_arithmetic(self):
        p = Payload.opaque("img", 100, offset=50)
        sub = p.slice(10, 30)
        (atom,) = sub._atoms
        assert (atom.tag, atom.offset, atom.nbytes) == ("img", 60, 20)

    def test_adjacent_opaque_windows_merge(self):
        a = Payload.opaque("img", 10, offset=0)
        b = Payload.opaque("img", 10, offset=10)
        assert len((a + b)._atoms) == 1
        assert (a + b).size == 20

    def test_nonadjacent_opaque_do_not_merge(self):
        a = Payload.opaque("img", 10, offset=0)
        b = Payload.opaque("img", 10, offset=11)
        assert len((a + b)._atoms) == 2

    def test_different_tags_do_not_merge(self):
        a = Payload.opaque("img1", 10, offset=0)
        b = Payload.opaque("img2", 10, offset=10)
        assert len((a + b)._atoms) == 2

    def test_equality_normalized(self):
        a = Payload.from_bytes(b"ab") + Payload.from_bytes(b"cd")
        b = Payload.from_bytes(b"abcd")
        assert a == b
        assert hash(a) == hash(b)

    def test_opaque_identity_survives_split_rejoin(self):
        p = Payload.opaque("img", 1000)
        rejoined = Payload.concat([p.slice(0, 400), p.slice(400, 1000)])
        assert rejoined == p


@settings(max_examples=150)
@given(st.binary(max_size=64), st.data())
def test_slice_concat_roundtrip(data, draw):
    p = Payload.from_bytes(data)
    cut = draw.draw(st.integers(0, len(data)))
    assert (p.slice(0, cut) + p.slice(cut, p.size)).to_bytes() == data


@settings(max_examples=150)
@given(
    st.lists(
        st.one_of(
            st.binary(min_size=1, max_size=16).map(Payload.from_bytes),
            st.integers(1, 16).map(Payload.zeros),
        ),
        max_size=8,
    ),
    st.data(),
)
def test_any_window_matches_bytes(parts, draw):
    p = Payload.concat(parts)
    ref = p.to_bytes()
    lo = draw.draw(st.integers(0, p.size))
    hi = draw.draw(st.integers(lo, p.size))
    assert p.slice(lo, hi).to_bytes() == ref[lo:hi]


class TestSparseFile:
    def test_reads_zero_when_fresh(self):
        f = SparseFile(10)
        assert f.read(0, 10).to_bytes() == b"\x00" * 10

    def test_write_read_back(self):
        f = SparseFile(10)
        f.write(3, Payload.from_bytes(b"abc"))
        assert f.read(0, 10).to_bytes() == b"\x00" * 3 + b"abc" + b"\x00" * 4

    def test_overwrite_middle(self):
        f = SparseFile(10, base=Payload.from_bytes(b"0123456789"))
        f.write(4, Payload.from_bytes(b"XY"))
        assert f.read(0, 10).to_bytes() == b"0123XY6789"

    def test_write_spanning_segments(self):
        f = SparseFile(12)
        f.write(0, Payload.from_bytes(b"aaa"))
        f.write(9, Payload.from_bytes(b"bbb"))
        f.write(2, Payload.from_bytes(b"XXXXXXXX"))
        assert f.read(0, 12).to_bytes() == b"aaXXXXXXXXbb"

    def test_out_of_range(self):
        f = SparseFile(4)
        with pytest.raises(OutOfRangeError):
            f.write(2, Payload.from_bytes(b"abc"))
        with pytest.raises(OutOfRangeError):
            f.read(0, 5)

    def test_base_payload_must_match_size(self):
        with pytest.raises(OutOfRangeError):
            SparseFile(5, base=Payload.from_bytes(b"abc"))

    def test_opaque_base_with_byte_overlay(self):
        f = SparseFile(100, base=Payload.opaque("img", 100))
        f.write(10, Payload.from_bytes(b"mod"))
        got = f.read(5, 20)
        assert got.size == 20
        # window [5,10) opaque, [10,13) bytes, [13,25) opaque
        assert got._atoms[0].tag == "img" and got._atoms[0].offset == 5
        assert got._atoms[1].data == b"mod"
        assert got._atoms[2].offset == 13


def segments(f):
    """A file's segments as ``(lo, hi, payload)`` triples."""
    return list(zip(f._starts, f._ends, f._payloads))


def check_starts(f):
    """The three segment columns line up: sorted, disjoint, sized to their payloads."""
    assert len(f._starts) == len(f._ends) == len(f._payloads)
    segs = segments(f)
    assert all(a[1] <= b[0] for a, b in zip(segs, segs[1:]))
    assert all(lo < hi and pl.size == hi - lo for lo, hi, pl in segs)


class TestSparseFileWritePaths:
    """Each way a write can meet the segments, by hand."""

    def layout(self, f):
        return [(lo, hi) for lo, hi, _ in segments(f)]

    def test_append_hole_split_span(self):
        f = SparseFile(100)
        f.write(10, Payload.from_bytes(b"a" * 10))   # first segment
        f.write(20, Payload.from_bytes(b"b" * 10))   # append, adjacent
        f.write(60, Payload.from_bytes(b"c" * 10))   # append, past a hole
        check_starts(f)
        assert self.layout(f) == [(10, 20), (20, 30), (60, 70)]
        f.write(40, Payload.from_bytes(b"d" * 5))    # into the hole
        f.write(0, Payload.from_bytes(b"e" * 5))     # into the hole before everything
        check_starts(f)
        assert self.layout(f) == [(0, 5), (10, 20), (20, 30), (40, 45), (60, 70)]
        f.write(12, Payload.from_bytes(b"f" * 3))    # splits one segment in three
        check_starts(f)
        assert self.layout(f)[1:4] == [(10, 12), (12, 15), (15, 20)]
        f.write(18, Payload.from_bytes(b"g" * 45))   # spans many, trims both ends
        check_starts(f)
        assert self.layout(f) == [(0, 5), (10, 12), (12, 15), (15, 18), (18, 63), (63, 70)]
        want = bytearray(100)
        want[10:20], want[20:30], want[60:70] = b"a" * 10, b"b" * 10, b"c" * 10
        want[40:45], want[0:5], want[12:15], want[18:63] = b"d" * 5, b"e" * 5, b"f" * 3, b"g" * 45
        assert f.read(0, 100).to_bytes() == bytes(want)

    def test_single_segment_read_is_that_segments_window(self):
        f = SparseFile(100, base=Payload.opaque("img", 100))
        f.write(40, Payload.opaque("diff", 20))
        assert f.read(45, 10) == Payload.opaque("diff", 10, offset=5)
        assert f.read(40, 20) is f._payloads[1]  # whole segment: shared, not copied
        assert f.read(10, 20) == Payload.opaque("img", 20, offset=10)


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(st.integers(0, 63), st.binary(min_size=1, max_size=24)),
        max_size=16,
    ),
    st.data(),
)
def test_sparsefile_matches_bytearray_model(writes, draw):
    SIZE = 64
    f = SparseFile(SIZE)
    model = bytearray(SIZE)
    for off, data in writes:
        data = data[: SIZE - off]
        f.write(off, Payload.from_bytes(data))
        model[off : off + len(data)] = data
        check_starts(f)
        lo = draw.draw(st.integers(0, SIZE))
        hi = draw.draw(st.integers(lo, SIZE))
        assert f.read(lo, hi - lo).to_bytes() == bytes(model[lo:hi])
    assert f.read(0, SIZE).to_bytes() == bytes(model)
