"""Payload algebra: the content model for every byte moved by the system.

The reproduction moves both *real* data (unit and integration tests verify
end-to-end content equality on megabyte-scale images) and *virtual* data
(benchmarks deploy 2 GB images to a hundred simulated nodes — materializing
those would be pointless). A :class:`Payload` is a size-exact, sliceable,
concatenable description of byte content built from three kinds of atoms:

``BytesAtom``
    literal bytes (used by tests and by small VM writes),
``ZeroAtom``
    a run of zero bytes (sparse-file holes),
``OpaqueAtom``
    a window ``[offset, offset+size)`` into an abstract content source
    identified by a string tag (e.g. ``"debian-sid-image"``). Slicing keeps
    the window arithmetic exact, so content *identity* remains checkable
    without content *materialization*.

Two payloads compare equal iff their normalized atom sequences are equal.
Within one experiment a given opaque tag always denotes the same underlying
content, so this equality is sound; the test-suite additionally checks the
real-bytes path against flat reference buffers.

:class:`SparseFile` is a writable sparse byte space assembled from payloads.
It backs the local-mirror file, the simulated local file systems and the
chunk stores.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

from .errors import OutOfRangeError


# --------------------------------------------------------------------------- #
# atoms
# --------------------------------------------------------------------------- #
# Named tuples: immutable, hashable, compared field by field in C, built by
# one plain call and carrying no per-instance ``__dict__``. The three kinds
# never compare equal to one another (``bytes`` against ``int``, one field
# against three).
class BytesAtom(NamedTuple):
    data: bytes

    @property
    def size(self) -> int:
        return len(self.data)

    def window(self, lo: int, hi: int) -> "BytesAtom":
        if lo == 0 and hi == len(self.data):
            return self  # whole-atom window: no byte copy (atoms are immutable)
        return BytesAtom(self.data[lo:hi])


class ZeroAtom(NamedTuple):
    nbytes: int

    @property
    def size(self) -> int:
        return self.nbytes

    def window(self, lo: int, hi: int) -> "ZeroAtom":
        return ZeroAtom(hi - lo)


class OpaqueAtom(NamedTuple):
    tag: str
    offset: int
    nbytes: int

    @property
    def size(self) -> int:
        return self.nbytes

    def window(self, lo: int, hi: int) -> "OpaqueAtom":
        return OpaqueAtom(self.tag, self.offset + lo, hi - lo)


Atom = Union[BytesAtom, ZeroAtom, OpaqueAtom]


def _merge(a: Atom, b: Atom) -> Atom | None:
    """Coalesce two adjacent atoms into one when they form a contiguous run."""
    if isinstance(a, ZeroAtom) and isinstance(b, ZeroAtom):
        return ZeroAtom(a.nbytes + b.nbytes)
    if isinstance(a, BytesAtom) and isinstance(b, BytesAtom):
        return BytesAtom(a.data + b.data)
    if (
        isinstance(a, OpaqueAtom)
        and isinstance(b, OpaqueAtom)
        and a.tag == b.tag
        and a.offset + a.nbytes == b.offset
    ):
        return OpaqueAtom(a.tag, a.offset, a.nbytes + b.nbytes)
    return None


# --------------------------------------------------------------------------- #
# payload
# --------------------------------------------------------------------------- #
class Payload:
    """An immutable sequence of content atoms with exact size accounting."""

    __slots__ = ("_atoms", "_size")

    def __init__(self, atoms: Iterable[Atom] = ()):
        normalized: List[Atom] = []
        for atom in atoms:
            if atom.size == 0:
                continue
            if normalized:
                merged = _merge(normalized[-1], atom)
                if merged is not None:
                    normalized[-1] = merged
                    continue
            normalized.append(atom)
        self._atoms: Tuple[Atom, ...] = tuple(normalized)
        self._size = sum(a.size for a in self._atoms)

    # ---- constructors ---------------------------------------------------- #
    @classmethod
    def _from_normalized(cls, atoms: Iterable[Atom], size: int) -> "Payload":
        """Build a payload from an already-normalized atom run (no re-merge).

        Used by :meth:`slice`: windows of a normalized sequence stay
        normalized (trimming an atom cannot make it mergeable with an
        interior neighbour), so the O(atoms) normalization pass is skipped.
        """
        p = object.__new__(cls)
        p._atoms = tuple(atoms)
        p._size = size
        return p

    @classmethod
    def _single(cls, atom: Atom, size: int) -> "Payload":
        """The payload of one atom of ``size`` bytes; the empty one for 0."""
        if size <= 0:
            if size < 0:
                raise OutOfRangeError(f"payload of negative size {size}")
            return EMPTY
        return cls._from_normalized((atom,), size)

    @staticmethod
    def from_bytes(data: bytes) -> "Payload":
        data = bytes(data)
        return Payload._single(BytesAtom(data), len(data))

    @staticmethod
    def zeros(nbytes: int) -> "Payload":
        nbytes = int(nbytes)
        return Payload._single(ZeroAtom(nbytes), nbytes)

    @staticmethod
    def opaque(tag: str, nbytes: int, offset: int = 0) -> "Payload":
        nbytes = int(nbytes)
        return Payload._single(OpaqueAtom(tag, int(offset), nbytes), nbytes)

    @staticmethod
    def concat(parts: Sequence["Payload"]) -> "Payload":
        if len(parts) == 1:
            return parts[0]  # immutable, so share it
        atoms: List[Atom] = []
        for part in parts:
            atoms.extend(part._atoms)
        return Payload(atoms)

    # ---- queries --------------------------------------------------------- #
    @property
    def size(self) -> int:
        return self._size

    def is_materialized(self) -> bool:
        """True iff the payload contains no opaque atoms (bytes recoverable)."""
        return all(not isinstance(a, OpaqueAtom) for a in self._atoms)

    def to_bytes(self) -> bytes:
        """Materialize to real bytes; raises on opaque content."""
        chunks: List[bytes] = []
        for atom in self._atoms:
            if isinstance(atom, BytesAtom):
                chunks.append(atom.data)
            elif isinstance(atom, ZeroAtom):
                chunks.append(b"\x00" * atom.nbytes)
            else:
                raise ValueError(
                    f"cannot materialize opaque content {atom.tag!r}"
                    f"[{atom.offset}:{atom.offset + atom.nbytes}]"
                )
        return b"".join(chunks)

    def slice(self, lo: int, hi: int) -> "Payload":
        """Return the payload window ``[lo, hi)``; bounds must be in range."""
        if lo < 0 or hi > self._size or lo > hi:
            raise OutOfRangeError(f"slice [{lo},{hi}) of payload size {self._size}")
        if lo == 0 and hi == self._size:
            return self  # whole-payload slice: immutable, so share it
        if lo == hi:
            return EMPTY  # an empty window of an atom is not an atom
        atoms = self._atoms
        if len(atoms) == 1:
            # Single-atom payloads (one opaque chunk, one zero run) dominate
            # the fetch paths; window them without the scan below.
            return Payload._from_normalized((atoms[0].window(lo, hi),), hi - lo)
        out: List[Atom] = []
        cursor = 0
        for atom in self._atoms:
            a_lo, a_hi = cursor, cursor + atom.size
            w_lo, w_hi = max(lo, a_lo), min(hi, a_hi)
            if w_lo < w_hi:
                out.append(atom.window(w_lo - a_lo, w_hi - a_lo))
            cursor = a_hi
            if cursor >= hi:
                break
        return Payload._from_normalized(out, hi - lo)

    def __add__(self, other: "Payload") -> "Payload":
        return Payload.concat([self, other])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        return self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash(self._atoms)

    def __repr__(self) -> str:
        parts = []
        for atom in self._atoms[:4]:
            if isinstance(atom, BytesAtom):
                parts.append(f"bytes[{atom.size}]")
            elif isinstance(atom, ZeroAtom):
                parts.append(f"zero[{atom.size}]")
            else:
                parts.append(f"{atom.tag}@{atom.offset}+{atom.nbytes}")
        if len(self._atoms) > 4:
            parts.append("...")
        return f"Payload({', '.join(parts)}, size={self._size})"


#: The canonical empty payload.
EMPTY = Payload()


# --------------------------------------------------------------------------- #
# sparse writable byte space
# --------------------------------------------------------------------------- #
class SparseFile:
    """A fixed-size sparse byte space; unwritten regions read as zeros.

    The written segments are sorted and disjoint, and kept as three parallel
    columns rather than a tuple each: start offsets (a list, which the two
    bisects of every access run on), end offsets (an ``array('q')``, no boxed
    integer per segment) and payloads. Writes splice, reads stitch payload
    windows together with zero-fill for holes. Used for local-disk files,
    chunk stores, and the mirror file.
    """

    __slots__ = ("size", "_starts", "_ends", "_payloads")

    def __init__(self, size: int, base: Payload | None = None):
        self.size = int(size)
        self._starts: List[int] = []
        self._ends = array("q")
        self._payloads: List[Payload] = []
        if base is not None:
            if base.size != size:
                raise OutOfRangeError("base payload size mismatch")
            self._starts.append(0)
            self._ends.append(self.size)
            self._payloads.append(base)

    def _overlap_window(self, lo: int, hi: int) -> Tuple[int, int]:
        """Index range ``[i, j)`` of segments overlapping ``[lo, hi)``."""
        starts = self._starts
        k = bisect_left(starts, lo)
        i = k - 1 if k > 0 and self._ends[k - 1] > lo else k
        j = bisect_left(starts, hi, i)
        return i, j

    def write(self, offset: int, payload: Payload) -> None:
        lo, hi = offset, offset + payload.size
        if lo < 0 or hi > self.size:
            raise OutOfRangeError(f"write [{lo},{hi}) beyond size {self.size}")
        if lo == hi:
            return
        starts, ends, payloads = self._starts, self._ends, self._payloads
        if not starts or ends[-1] <= lo:
            # past the last segment: what a log-style writer always does
            starts.append(lo)
            ends.append(hi)
            payloads.append(payload)
            return
        i, j = self._overlap_window(lo, hi)
        if i == j:
            # into a hole
            starts.insert(i, lo)
            ends.insert(i, hi)
            payloads.insert(i, payload)
            return
        # Splice over the overlapped window in place, keeping what sticks out
        # of the first and last overlapped segments.
        new_starts: List[int] = []
        new_ends = array("q")
        new_payloads: List[Payload] = []
        s_lo = starts[i]
        if s_lo < lo:
            new_starts.append(s_lo)
            new_ends.append(lo)
            new_payloads.append(payloads[i].slice(0, lo - s_lo))
        new_starts.append(lo)
        new_ends.append(hi)
        new_payloads.append(payload)
        s_lo, s_hi = starts[j - 1], ends[j - 1]
        if s_hi > hi:
            new_starts.append(hi)
            new_ends.append(s_hi)
            new_payloads.append(payloads[j - 1].slice(hi - s_lo, s_hi - s_lo))
        starts[i:j] = new_starts
        ends[i:j] = new_ends
        payloads[i:j] = new_payloads

    def read(self, offset: int, nbytes: int) -> Payload:
        lo, hi = offset, offset + nbytes
        if lo < 0 or hi > self.size:
            raise OutOfRangeError(f"read [{lo},{hi}) beyond size {self.size}")
        i, j = self._overlap_window(lo, hi)
        if i == j:
            return Payload.zeros(hi - lo) if hi > lo else EMPTY
        starts, ends, payloads = self._starts, self._ends, self._payloads
        if j == i + 1:
            s_lo = starts[i]
            if s_lo <= lo and hi <= ends[i]:
                return payloads[i].slice(lo - s_lo, hi - s_lo)  # one covering segment
        parts: List[Payload] = []
        cursor = lo
        for k in range(i, j):
            s_lo = starts[k]
            if s_lo > cursor:
                parts.append(Payload.zeros(s_lo - cursor))
                cursor = s_lo
            w_hi = min(ends[k], hi)
            parts.append(payloads[k].slice(cursor - s_lo, w_hi - s_lo))
            cursor = w_hi
        if cursor < hi:
            parts.append(Payload.zeros(hi - cursor))
        return Payload.concat(parts)

    def snapshot_payload(self) -> Payload:
        """The whole file content as one payload (zero-filled holes)."""
        return self.read(0, self.size)
