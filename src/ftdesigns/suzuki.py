"""The Suzuki-Tits ovoid in PG(3,q), its plane-section circles, and the
Suzuki group acting on it, for q = 2^(2a+1).

Points of PG(3,q) are 4-tuples over GF(q) normalized so the first
nonzero coordinate is 1.  The ovoid is the point (0:0:0:1) together
with the graph points (1 : s : t : st + s^(sigma+2) + t^sigma) where
sigma is the square root of the Frobenius square, sigma(x) = x^(2^(a+1)).

Points are handled as rows of `(n, 4)` arrays: a matrix maps all of them
at once, and a point is looked up by its integer code
((a*q + b)*q + c)*q + d, whose order is the order of the sorted tuples.
Every imported construction detail is re-checked at build time: the
generator matrices must permute the ovoid, the permutation group they
induce must have order q^2 (q^2+1)(q-1), and the circle family must
satisfy the inversive-plane counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .actions import GroupAction
from .bsgs import bsgs_build
from .errors import ConstructionError, InputError
from .gfield import GF
from .perm import Permutation, point_dtype


def _check_q(q):
    m = q.bit_length() - 1
    if q < 8 or (1 << m) != q or m % 2 == 0:
        raise InputError(f"q={q} is not an odd power 2^(2a+1) >= 8")
    return m


def _field(q):
    """GF(q) and the exponent 2^(a+1) of the field automorphism sigma,
    for q = 2^(2a+1)."""
    m = _check_q(q)
    return GF(m), 1 << (m + 1) // 2


@dataclass
class Ovoid:
    q: int
    field: GF
    points: list[tuple[int, int, int, int]]


def ovoid_points(q: int) -> Ovoid:
    """The q^2+1 points of the Suzuki-Tits ovoid, sorted."""
    field, sig = _field(q)

    def f(s, t):
        return field.mul(s, t) ^ field.pow(s, sig + 2) ^ field.pow(t, sig)

    pts = sorted([(0, 0, 0, 1)] + [(1, s, t, f(s, t)) for s in range(q) for t in range(q)])
    if len(set(pts)) != q * q + 1:
        raise ConstructionError("ovoid points are not distinct")
    return Ovoid(q, field, pts)


def suzuki_matrices(q: int):
    """Generator matrices for Sz(q) preserving the ovoid: two unipotent
    translations, a torus generator, and the coordinate-reversing
    involution."""
    field, sig = _field(q)

    def trans(a, b):
        ab = field.mul(a, b)
        return [
            [1, a, b, ab ^ field.pow(a, sig + 2) ^ field.pow(b, sig)],
            [0, 1, field.pow(a, sig), b ^ field.pow(a, sig + 1)],
            [0, 0, 1, a],
            [0, 0, 0, 1],
        ]

    def diag(k):
        return [
            [1, 0, 0, 0],
            [0, k, 0, 0],
            [0, 0, field.pow(k, sig + 1), 0],
            [0, 0, 0, field.pow(k, sig + 2)],
        ]

    tau = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    return [trans(1, 0), trans(0, 1), diag(2), tau]


def _normalise_rows(field, rows):
    """Each row of an `(n, d)` array of nonzero projective points scaled
    by the inverse of its first nonzero coordinate."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    inv = field._exp[-field._log[lead] % (field.size - 1)]
    return field.mul_array(rows, inv[:, None])


def _projective_images(field, pts, mat):
    """The normalised images of the points in the rows of `pts` under the
    d x d matrix `mat`, each row a coordinate vector multiplied on the
    right."""
    img = np.zeros_like(pts)
    for i, row in enumerate(mat):
        img ^= field.mul_array(pts[:, i, None], np.array(row)[None, :])
    return _normalise_rows(field, img)


def _codes(q, pts):
    return ((pts[:, 0] * q + pts[:, 1]) * q + pts[:, 2]) * q + pts[:, 3]


def suzuki_action(q: int) -> GroupAction:
    """Permutation action of Sz(q) on the ovoid points (degree q^2+1)."""
    ov = ovoid_points(q)
    pts = np.array(ov.points, dtype=np.int64)
    codes = _codes(q, pts)
    gens = []
    for mat in suzuki_matrices(q):
        img = _codes(q, _projective_images(ov.field, pts, mat))
        pos = np.minimum(np.searchsorted(codes, img), len(codes) - 1)
        miss = np.flatnonzero(codes[pos] != img)
        if miss.size:
            raise ConstructionError(
                f"generator matrix does not preserve the ovoid at {ov.points[miss[0]]}")
        gens.append(Permutation(pos))

    chain = bsgs_build(gens, len(ov.points), base_hint=[0])
    expected = q * q * (q * q + 1) * (q - 1)
    if chain.order() != expected:
        raise ConstructionError(
            f"induced group has order {chain.order()}, expected {expected}")
    return GroupAction(f"Sz({q}) on ovoid", len(ov.points), gens, _chain=chain)


def circles(q: int, ov: Ovoid | None = None) -> np.ndarray:
    """All secant plane sections of the ovoid, as a `(q(q^2+1), q+1)`
    array of sorted point-index rows in lexicographic order, in the
    narrowest unsigned dtype that holds the points.  Every point pair
    lies in exactly q+1 of them.

    The planes are the dual points of PG(3,q), enumerated directly in
    normalized form and cut q^2 at a time: with the product tables
    T_j[c, x] = c * point_x[j], the plane (c_0:c_1:c_2:c_3) holds the
    points x where the XOR of T_j[c_j, x] is 0."""
    if ov is None:
        ov = ovoid_points(q)
    field = ov.field
    pts = np.array(ov.points, dtype=np.int64)
    n = len(pts)
    planes = np.array([(0,) * (3 - r) + (1,) + rest
                       for r in range(4) for rest in product(range(q), repeat=r)])
    if len(planes) != (q**4 - 1) // (q - 1):
        raise ConstructionError("wrong number of planes")

    elements = np.arange(q)[:, None]
    tables = [field.mul_array(elements, pts[None, :, j]).astype(point_dtype(q))
              for j in range(4)]
    sizes, out = [], []
    for s in range(0, len(planes), q * q):
        batch = planes[s:s + q * q]
        on = (tables[0][batch[:, 0]] ^ tables[1][batch[:, 1]]
              ^ tables[2][batch[:, 2]] ^ tables[3][batch[:, 3]]) == 0
        size = on.sum(axis=1)
        bad = np.flatnonzero((size != 1) & (size != q + 1))
        if bad.size:
            raise ConstructionError(f"plane section of size {size[bad[0]]}")
        sizes.append(size)
        out.append(np.nonzero(on[size == q + 1])[1].astype(point_dtype(n)).reshape(-1, q + 1))
    sizes = np.concatenate(sizes)
    if np.count_nonzero(sizes == q + 1) != q * (q * q + 1):
        values, first, counts = np.unique(sizes, return_index=True, return_counts=True)
        got = {int(values[i]): int(counts[i]) for i in np.argsort(first)}
        raise ConstructionError(f"expected {q*(q*q+1)} secant planes, got {got}")
    circ = np.concatenate(out)
    return circ[np.lexsort(circ.T[::-1])]
