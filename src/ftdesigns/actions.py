"""Transitive group actions: coset actions, primitivity, subdegrees.

A coset action is labelled by canonical coset representatives.  The
canonical representative of Hg is the element of Hg whose image tuple
is lexicographically minimal; it is found by descending a stabilizer
chain of H whose base is forced to the natural point order, so equality
of representative image tuples is equality of cosets.

Point 0 of a coset action is the coset H, and its stabilizer is the
image of H, so subdegrees need no chain of the image.  The chain of an
action, and so its order, is built and verified only on first use.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .bsgs import StabilizerChain, bsgs_build, orbit, orbit_lengths, stabilizer_gens
from .errors import InputError, ResourceLimitError
from .perm import Permutation

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


def _canonical_rep(hchain, images):
    """Minimal image-tuple representative of the coset H * (permutation
    with the given images)."""
    u = images
    for lvl in hchain.levels:
        if len(lvl.orbit) == 1:
            continue
        x_star = min(lvl.orbit, key=lambda x: u[x])
        if x_star != lvl.point:
            u = u[lvl.transversal[x_star].images]
    return u


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

    gens = G.strong_generators()
    ident = np.arange(degree, dtype=np.int64)
    reps = [_canonical_rep(hchain, ident)]
    keys = {reps[0].tobytes(): 0}
    images = [[] for _ in gens]
    q = 0
    while q < len(reps):
        r = reps[q]
        q += 1
        for gi, g in enumerate(gens):
            canon = _canonical_rep(hchain, g.images[r])
            key = canon.tobytes()
            if key not in keys:
                keys[key] = len(reps)
                reps.append(canon)
            images[gi].append(keys[key])
    if len(reps) != index:
        raise AssertionError("coset enumeration does not match the index")

    def hom(g, _reps=reps, _keys=keys, _hchain=hchain):
        if g not in G:
            raise InputError("element outside G has no image")
        return Permutation([_keys[_canonical_rep(_hchain, g.images[r]).tobytes()]
                            for r in _reps])

    return GroupAction(name, index, [Permutation(img) for img in images], _hom=hom,
                       _stabilizer=[hom(h) for h in H_gens])


def is_transitive(A: GroupAction) -> bool:
    if A.degree < 1:
        raise InputError("degree must be at least 1")
    return len(orbit(A.generators, 0, A.degree)) == A.degree


def _minimal_block_size(gens, n, beta):
    """Size of the smallest block containing {0, beta} (union-find join)."""
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

    stack = [(0, beta)]
    union(0, beta)
    images = [g.images for g in gens]
    while stack:
        a, b = stack.pop()
        for img in images:
            merged = union(int(img[a]), int(img[b]))
            if merged:
                stack.append(merged)
    root = find(0)
    return sum(1 for x in range(n) if find(x) == root)


def is_primitive(A: GroupAction) -> bool:
    """No nontrivial proper block system; minimal-block test from each pair."""
    if A.degree < 2:
        raise InputError("primitivity needs degree >= 2")
    if not is_transitive(A):
        raise InputError("primitivity is defined for transitive actions only")
    for beta in range(1, A.degree):
        if _minimal_block_size(A.generators, A.degree, beta) < A.degree:
            return False
    return True


def point_stabilizer_gens(A: GroupAction, point: int):
    """Strong generators of the stabilizer of a point of a transitive A."""
    if not is_transitive(A):
        raise InputError("action is not transitive")
    return stabilizer_gens(A.chain, point)


def subdegrees(A: GroupAction) -> SubdegreeProfile:
    """Orbit lengths of a point stabilizer, with multiplicities, at the
    point of `A.base_stabilizer()` (A is transitive: any point would do)."""
    if not is_transitive(A):
        raise InputError("subdegrees are defined for transitive actions only")
    _, stab = A.base_stabilizer()
    return SubdegreeProfile(sorted(Counter(orbit_lengths(stab, A.degree)).items()))
