"""Permutations of {0..n-1} as immutable image arrays.

Composition is "left then right": ``compose(p, q)`` maps i to q(p(i)).
Points are 0-indexed everywhere in memory; cycle notation at the text
boundary is 1-indexed, matching the convention of printed generator
tables.
"""
from __future__ import annotations

import math
import re

import numpy as np

from .errors import InputError

_CYCLES_RE = re.compile(r"\s*(?:\((?:\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*|\s*)\)\s*)*")


class Permutation:
    """An immutable permutation given by its image array."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        arr = np.asarray(images)
        if arr.ndim != 1:
            raise InputError("images must be a flat sequence")
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            raise InputError(f"images must be integers within int64, not {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        n = arr.shape[0]
        seen = np.zeros(n, dtype=bool)
        if n and (arr.min() < 0 or arr.max() >= n):
            raise InputError("image out of range; not a permutation")
        seen[arr] = True
        if not seen.all():
            raise InputError("images are not a bijection")
        self.images = arr
        self.images.setflags(write=False)
        self._hash = None

    @classmethod
    def _wrap(cls, arr):
        """Wrap a trusted image array without re-validating."""
        p = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(p, "images", arr)
        object.__setattr__(p, "_hash", None)
        return p

    @property
    def degree(self):
        return int(self.images.shape[0])

    def __call__(self, point):
        return int(self.images[point])

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images.shape == other.images.shape and bool(
            np.array_equal(self.images, other.images)
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.images.tobytes()))
        return self._hash

    def __mul__(self, other):
        return compose(self, other)

    def __pow__(self, k):
        return power(self, k)

    def is_identity(self):
        return bool(np.array_equal(self.images, np.arange(self.degree)))

    def smallest_moved(self):
        diff = np.flatnonzero(self.images != np.arange(self.degree))
        return int(diff[0]) if diff.size else None

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its smallest point.
        InputError, after at most one step per point, if the images (of a
        `_wrap`ped array) are not a bijection: a walk from i that comes to
        a point already seen before it is back at i."""
        n = self.degree
        seen = [False] * n
        out = []
        for i in range(n):
            if seen[i] or self.images[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = int(self.images[i])
            while j != i:
                if seen[j]:
                    raise InputError("images are not a bijection")
                cyc.append(j)
                seen[j] = True
                j = int(self.images[j])
            out.append(tuple(cyc))
        return out

    def order(self):
        return math.lcm(*map(len, self.cycles()))

    def __repr__(self):
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def point_dtype(n):
    """Narrowest unsigned dtype that holds the points 0..n-1."""
    return np.min_scalar_type(max(n - 1, 0))


def row_keys(rows):
    """One key per row of a 2-D array; equal keys mean equal rows.  The
    keys sort in the byte order of the rows, which is not their
    lexicographic order unless the dtype has one byte.  A row of at most
    8 bytes, padded on the right with zero bytes, is read as a big-endian
    uint64, which sorts in that order and about ten times faster than the
    `void` key that a wider row gets."""
    rows = np.ascontiguousarray(rows)
    width = rows.shape[1] * rows.itemsize
    if width > 8:
        return rows.view(np.dtype((np.void, width))).ravel()
    padded = np.zeros((len(rows), 8), dtype=np.uint8)
    padded[:, :width] = rows.view(np.uint8).reshape(len(rows), width)
    return padded.view(">u8").ravel().astype(np.uint64)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation mapping i to q(p(i))."""
    if p.degree != q.degree:
        raise InputError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation._wrap(q.images[p.images])


def inverse(p: Permutation) -> Permutation:
    inv = np.empty(p.degree, dtype=np.int64)
    inv[p.images] = np.arange(p.degree)
    return Permutation._wrap(inv)


def power(p: Permutation, k: int) -> Permutation:
    if k < 0:
        return power(inverse(p), -k)
    result = np.arange(p.degree, dtype=np.int64)
    base = p.images
    while k:
        if k & 1:
            result = base[result]
        base = base[base]
        k >>= 1
    return Permutation._wrap(result)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-indexed cycle notation like ``(1,2,3)(4,5)`` or ``()``.  A
    point is ASCII digits; whitespace may stand between cycles and around
    a point, not inside one.  Once the text is accepted, all its points
    are read by one numpy call, a point past int64 as int64's largest (C's
    `strtoll` saturates), and checked as one array; only text that fails
    is checked a cycle at a time, for the message of the first failure."""
    if not _CYCLES_RE.fullmatch(text):
        raise InputError(f"malformed cycle notation: {text!r}")
    bodies = [b for b in "".join(text.split())[1:-1].split(")(") if b]
    images = np.arange(degree, dtype=np.int64)
    if not bodies:
        return Permutation._wrap(images)
    pts = np.fromstring(",".join(bodies), dtype=np.int64, sep=",") - 1
    sizes = np.array([b.count(",") + 1 for b in bodies])
    ends = np.cumsum(sizes) - 1             # the place of each cycle's last point
    if ((pts < 0) | (pts >= degree)).any() or np.bincount(pts).max() > 1:
        raise _cycles_error(text, degree, np.split(pts, ends[:-1] + 1))
    after = np.arange(1, len(pts) + 1)
    after[ends] = ends - sizes + 1          # a cycle's last point goes to its first
    images[pts] = pts[after]
    return Permutation._wrap(images)


def _cycles_error(text, degree, cycles):
    """The InputError for 0-indexed cycles that are not a permutation: the
    first cycle with a point out of range, else the first with a repeated
    point, else cycles that are not disjoint."""
    for pts in cycles:
        if ((pts < 0) | (pts >= degree)).any():
            return InputError(f"cycle point out of range 1..{degree}: {text!r}")
        if len(np.unique(pts)) != len(pts):
            return InputError(f"repeated point in cycle: {text!r}")
    return InputError(f"cycles are not disjoint: {text!r}")


def format_cycles(p: Permutation) -> str:
    """1-indexed cycle notation, cycles sorted by smallest point."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in cyc) + ")" for cyc in cycles)
