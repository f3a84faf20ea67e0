"""The Suzuki-Tits ovoid in PG(3,q), its plane-section circles, and the
Suzuki group acting on it, for q = 2^(2a+1).

Points of PG(3,q) are 4-tuples over GF(q) normalized so the first
nonzero coordinate is 1.  The ovoid is the point (0:0:0:1) together
with the graph points (1 : s : t : st + s^(sigma+2) + t^sigma) where
sigma is the square root of the Frobenius square, sigma(x) = x^(2^(a+1)).

Every imported construction detail is re-checked at build time: the
generator matrices must permute the ovoid, the permutation group they
induce must have order q^2 (q^2+1)(q-1), and the circle family must
satisfy the inversive-plane counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import GroupAction
from .bsgs import bsgs_build
from .errors import ConstructionError, InputError
from .gfield import GF


def _check_q(q):
    m = q.bit_length() - 1
    if q < 8 or (1 << m) != q or m % 2 == 0:
        raise InputError(f"q={q} is not an odd power 2^(2a+1) >= 8")
    return m


@dataclass
class Ovoid:
    q: int
    field: GF
    points: list[tuple[int, int, int, int]]

    @property
    def index(self):
        return {p: i for i, p in enumerate(self.points)}


def normalize_point(field, coords):
    coords = tuple(coords)
    for c in coords:
        if c:
            inv = field.inv(c)
            return tuple(field.mul(inv, x) for x in coords)
    raise InputError("projective point must be nonzero")


def ovoid_points(q: int) -> Ovoid:
    """The q^2+1 points of the Suzuki-Tits ovoid, sorted."""
    m = _check_q(q)
    field = GF(m)
    a = (m - 1) // 2
    sig = 1 << (a + 1)

    def f(s, t):
        return field.mul(s, t) ^ field.pow(s, sig + 2) ^ field.pow(t, sig)

    pts = [(0, 0, 0, 1)] + [(1, s, t, f(s, t)) for s in range(q) for t in range(q)]
    pts = sorted(normalize_point(field, p) for p in pts)
    if len(set(pts)) != q * q + 1:
        raise ConstructionError("ovoid points are not distinct")
    return Ovoid(q, field, pts)


def _sigma_exp(q):
    m = q.bit_length() - 1
    return 1 << ((m - 1) // 2 + 1)


def suzuki_matrices(q: int):
    """Generator matrices for Sz(q) preserving the ovoid: two unipotent
    translations, a torus generator, and the coordinate-reversing
    involution."""
    field = GF(_check_q(q))
    sig = _sigma_exp(q)

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


def _apply(field, vec, mat):
    out = [0, 0, 0, 0]
    for i in range(4):
        vi = vec[i]
        if vi:
            row = mat[i]
            for j in range(4):
                if row[j]:
                    out[j] ^= field.mul(vi, row[j])
    return tuple(out)


def suzuki_action(q: int) -> GroupAction:
    """Permutation action of Sz(q) on the ovoid points (degree q^2+1)."""
    ov = ovoid_points(q)
    index = ov.index
    from .perm import Permutation

    gens = []
    for mat in suzuki_matrices(q):
        img = []
        for p in ov.points:
            w = normalize_point(ov.field, _apply(ov.field, p, mat))
            if w not in index:
                raise ConstructionError(
                    f"generator matrix does not preserve the ovoid at {p}")
            img.append(index[w])
        gens.append(Permutation(img))

    chain = bsgs_build(gens, len(ov.points), base_hint=[0])
    expected = q * q * (q * q + 1) * (q - 1)
    if chain.order() != expected:
        raise ConstructionError(
            f"induced group has order {chain.order()}, expected {expected}")
    return GroupAction(f"Sz({q}) on ovoid", len(ov.points), gens, _chain=chain)


def circles(q: int, ov: Ovoid | None = None) -> list[tuple[int, ...]]:
    """All secant plane sections of the ovoid, as sorted point-index
    tuples.  There are q(q^2+1) of them, each of size q+1, and every
    point pair lies in exactly q+1."""
    if ov is None:
        ov = ovoid_points(q)
    field = ov.field
    pts = np.array(ov.points, dtype=np.int64)
    n = len(ov.points)

    # dual points of PG(3,q), enumerated directly in normalized form
    planes = [(0, 0, 0, 1)]
    planes += [(0, 0, 1, c) for c in range(q)]
    planes += [(0, 1, c, d) for c in range(q) for d in range(q)]
    planes += [(1, c, d, e) for c in range(q) for d in range(q) for e in range(q)]
    out = []
    if len(planes) != (q**4 - 1) // (q - 1):
        raise ConstructionError("wrong number of planes")

    darr = np.array(planes, dtype=np.int64)
    sizes = {}
    for d in darr:
        prods = field.mul_array(pts, d[None, :])
        dots = prods[:, 0] ^ prods[:, 1] ^ prods[:, 2] ^ prods[:, 3]
        sec = np.flatnonzero(dots == 0)
        sizes[len(sec)] = sizes.get(len(sec), 0) + 1
        if len(sec) == q + 1:
            out.append(tuple(int(x) for x in sec))
        elif len(sec) not in (1, q + 1):
            raise ConstructionError(f"plane section of size {len(sec)}")
    if sizes.get(q + 1, 0) != q * (q * q + 1):
        raise ConstructionError(f"expected {q*(q*q+1)} secant planes, got {sizes}")
    return sorted(out)

