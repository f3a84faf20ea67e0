"""Transitive group actions: coset actions, primitivity, subdegrees.

A coset action is labelled by canonical coset representatives.  The
canonical representative of Hg is the element of Hg whose image tuple
is lexicographically minimal; it is found by descending a stabilizer
chain of H whose base is forced to the natural point order, so equality
of representative image tuples is equality of cosets.  The cosets are
the `row_orbit` of the identity under G with `_Canonicaliser` as
canonical form, and their labels are its row order.

Point 0 of a coset action is the coset H, and its stabilizer is the
image of H, so subdegrees need no chain of the image.  The chain of an
action, and so its order, is built and verified only on first use.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .bsgs import (StabilizerChain, _batch_rows, bfs_tree, bsgs_build, image_matrix,
                   orbit, orbits, row_orbit, stabilizer_gens)
from .errors import InputError, ResourceLimitError
from .perm import Permutation, compose, inverse, row_keys

COSET_INDEX_LIMIT = 100_000


@dataclass
class GroupAction:
    """A named generating set acting on {0..degree-1}.  The chain, and so
    `order`, is built on first use.  A coset action keeps the images of
    H's generators, which generate the stabilizer of its point 0, H."""

    name: str
    degree: int
    generators: list[Permutation]
    _hom: object = field(default=None, repr=False, compare=False)
    _chain: StabilizerChain = field(default=None, repr=False, compare=False)
    _stabilizer: list = field(default=None, repr=False, compare=False)

    @classmethod
    def natural(cls, name, gens, degree=None):
        gens = list(gens)
        if degree is None:
            if not gens:
                raise InputError("empty generator list needs an explicit degree")
            degree = gens[0].degree
        return cls(name, degree, gens)

    @property
    def chain(self):
        if self._chain is None:
            self._chain = bsgs_build(self.generators, self.degree)
        return self._chain

    @property
    def order(self) -> int:
        return self.chain.order()

    def base_stabilizer(self):
        """A point and generators of its stabilizer: 0 and the images of H
        for a coset action, else the first base point and its chain level."""
        if self._stabilizer is not None:
            return 0, self._stabilizer
        point = self.chain.base[0] if self.chain.base else 0
        return point, stabilizer_gens(self.chain, point)

    def image_of(self, g: Permutation) -> Permutation:
        """Image of a source-group element under this action."""
        if self._hom is not None:
            return self._hom(g)
        if g.degree != self.degree:
            raise InputError("no homomorphism data and degrees differ")
        return g


@dataclass
class SubdegreeProfile:
    """Multiset of point-stabilizer orbit lengths."""

    entries: list[tuple[int, int]]  # (length, multiplicity), ascending

    def total(self):
        return sum(l * m for l, m in self.entries)

    def lengths(self):
        return [l for l, m in self.entries for _ in range(m)]

    def __str__(self):
        return " ".join(f"{l}^{m}" for l, m in self.entries)

    @classmethod
    def parse(cls, text):
        entries = []
        for tok in text.split():
            l, m = tok.split("^")
            entries.append((int(l), int(m)))
        return cls(entries)


class _Canonicaliser:
    """Minimal-image representatives of right cosets of H, many at once.

    Reads, for each level of a chain of H with an orbit longer than 1, the
    orbit index array and the (|orbit|, degree) transversal matrix that
    the chain stores.  A row u stands for the coset H*u; at each level the
    orbit point x with the least u[x] is chosen and u becomes u[t_x],
    where t_x is the transversal element carrying the level's base point
    to x (Holt, Eick and O'Brien, Handbook of CGT, 2005, ch. 4)."""

    def __init__(self, hchain):
        self.dtype = hchain.dtype
        self.levels = [(lvl.orbit, lvl.trans) for lvl in hchain.levels if len(lvl.orbit) > 1]

    def __call__(self, rows):
        """The canonical representative of each row of an (m, degree)
        array of images, as an array of `self.dtype`."""
        rows = rows.astype(self.dtype, copy=False)
        starts = np.arange(0, rows.size, rows.shape[1])[:, None]
        for orb, trans in self.levels:
            pick = rows[:, orb].argmin(axis=1)
            # row i becomes rows[i, trans[pick[i]]], gathered from the flat array
            rows = np.take(rows, trans[pick] + starts)
        return rows


def coset_action(G: StabilizerChain, H_gens, name="coset action") -> GroupAction:
    """Action of G on the right cosets of H = <H_gens>; point 0 is H."""
    H_gens = list(H_gens)
    for h in H_gens:
        if h not in G:
            raise InputError("H is not a subgroup of G: generator outside G")
    degree = G.degree
    hchain = bsgs_build(H_gens, degree, base_hint=range(degree))
    index = G.order() // hchain.order()
    if index > COSET_INDEX_LIMIT:
        raise ResourceLimitError(f"coset index {index} exceeds limit {COSET_INDEX_LIMIT}")

    canon = _Canonicaliser(hchain)
    base = G.base or [0]   # a representative lies in G, so its images of G's base are a key
    try:
        reps, images = row_orbit(image_matrix(G.strong_generators(), degree), np.arange(degree),
                                 canon, index, lambda rows: row_keys(rows[:, base]))
    except ResourceLimitError:
        reps = None
    if reps is None or len(reps) != index:
        raise AssertionError("coset enumeration does not match the index")
    order = np.argsort(row_keys(reps[:, base]))
    keys = row_keys(reps[:, base])[order]

    def hom(g):
        if g not in G:
            raise InputError("element outside G has no image")
        img, step = g.images.astype(canon.dtype), _batch_rows(degree)
        return Permutation(np.concatenate([
            order[np.searchsorted(keys, row_keys(canon(img[reps[lo:lo + step]])[:, base]))]
            for lo in range(0, index, step)]))

    return GroupAction(name, index, [Permutation(img) for img in images], _hom=hom,
                       _stabilizer=[hom(h) for h in H_gens])


def is_transitive(A: GroupAction) -> bool:
    if A.degree < 1:
        raise InputError("degree must be at least 1")
    return len(orbit(A.generators, 0, A.degree)) == A.degree


def _minimal_block_size(gens, n, alpha, beta):
    """Size of the smallest block containing {alpha, beta} (union-find join)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return None
        parent[rb] = ra
        return (ra, rb)

    stack = [(alpha, beta)]
    union(alpha, beta)
    images = [g.images for g in gens]
    while stack:
        a, b = stack.pop()
        for img in images:
            merged = union(int(img[a]), int(img[b]))
            if merged:
                stack.append(merged)
    root = find(alpha)
    return sum(1 for x in range(n) if find(x) == root)


def is_primitive(A: GroupAction) -> bool:
    """No nontrivial proper block system: the smallest block through
    {alpha, beta} is the whole set for one beta in each orbit of the
    stabilizer of alpha, the point of `A.base_stabilizer()`.  The block
    through {alpha, beta^h}, h fixing alpha, is the h-image of the block
    through {alpha, beta}, so the other betas add nothing."""
    if A.degree < 2:
        raise InputError("primitivity needs degree >= 2")
    if not is_transitive(A):
        raise InputError("primitivity is defined for transitive actions only")
    alpha, stab = A.base_stabilizer()
    for orb in orbits(stab, A.degree):
        if orb[0] != alpha and _minimal_block_size(A.generators, A.degree, alpha,
                                                   orb[0]) < A.degree:
            return False
    return True


def point_stabilizer_gens(A: GroupAction, point: int):
    """Generators of the stabilizer of a point of a transitive A: the
    conjugates u^-1 s u of the generators s of `A.base_stabilizer()`,
    where u carries its point to the given one."""
    if not is_transitive(A):
        raise InputError("action is not transitive")
    if not 0 <= point < A.degree:
        raise InputError(f"point {point} out of range for degree {A.degree}")
    base, stab = A.base_stabilizer()
    images = image_matrix(A.generators, A.degree)
    rows, action = row_orbit(images, [base])
    (parent, via), u = bfs_tree(action), np.arange(A.degree)
    j = int(np.flatnonzero(rows[:, 0] == point)[0])
    while j:   # up the tree from the point, so u applies the generators root first
        u, j = u[images[via[j]]], parent[j]
    u = Permutation(u)
    return [compose(compose(inverse(u), s), u) for s in stab]


def subdegrees(A: GroupAction) -> SubdegreeProfile:
    """Orbit lengths of a point stabilizer, with multiplicities, at the
    point of `A.base_stabilizer()` (A is transitive: any point would do)."""
    if not is_transitive(A):
        raise InputError("subdegrees are defined for transitive actions only")
    _, stab = A.base_stabilizer()
    return SubdegreeProfile(sorted(Counter(map(len, orbits(stab, A.degree))).items()))
