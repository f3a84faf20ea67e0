"""Transitive group actions: coset actions, primitivity, subdegrees.

A coset action is one enumeration over an ordered list of coset keys,
and the first key whose G-orbit has |G:H| rows wins.  First come the
orbits O other than the whole set of H, smallest first and then by
least point: the coset Hu is keyed by the set O^u, read as sorted u[O].
H fixes O, so Stab_G(O) contains H, and |O^G| = |G:Stab_G(O)| = |G:H|
leaves Stab_G(O) = H, so Hu -> O^u is a bijection onto O^G.  Last (H
transitive, or every orbit stabilized by more than H) the coset is
keyed by a canonical representative, found by descending a stabilizer
chain of H in any base: each level keeps the elements of Hg with the
least image of its base point, a set that depends on the coset alone,
so one element of Hg is left whatever g is, and its images of G's base
are the key.  Either way the cosets are the `row_orbit` of H (the set O,
or the identity row) under G's strong generators, each held by the set
or the element that first reached it, and labels are the first-reach
order.  Hu -> O^u commutes with G (Hug -> O^ug), so every key reaches
the cosets in one order, from one start under one generator list, and
gives the same labels, which no base of H moves either.

Every element g of G maps as the generators do: the rows of the cosets,
moved by g and put through the key, are looked up among the sorted keys.

Point 0 of a coset action is the coset H, and its stabilizer is the
image of H, so subdegrees need no chain of the image.  The chain of an
action, and so its order, is built and verified only on first use; for
a coset action, verification ends once the chain reaches |G|.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .bsgs import (StabilizerChain, bsgs_build, image_matrix, orbit, orbits, point_orbit,
                   row_orbit, sorted_lookup, stabilizer_gens, tree_products, tree_word)
from .errors import InputError, ResourceLimitError
from .perm import Permutation, compose, inverse, row_keys

COSET_INDEX_LIMIT = 100_000


@dataclass
class GroupAction:
    """A named generating set acting on {0..degree-1}.  The chain, and so
    `order`, is built on first use.  A coset action keeps the images of
    H's generators, which generate the stabilizer of its point 0, H, and
    maps elements of G through the keys of its cosets.  It also keeps |G|,
    an upper bound on the order of the image of G, and its chain stops
    verifying once it reaches that order (`bsgs_build`'s ``order``)."""

    name: str
    degree: int
    generators: list[Permutation]
    _hom: object = field(default=None, repr=False, compare=False)
    _chain: StabilizerChain = field(default=None, repr=False, compare=False)
    _stabilizer: list = field(default=None, repr=False, compare=False)
    _bound: int = field(default=None, repr=False, compare=False)

    @property
    def chain(self):
        if self._chain is None:
            self._chain = bsgs_build(self.generators, self.degree, order=self._bound)
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
        """Image of a source-group element under this action; InputError
        for an element outside the group."""
        if self._hom is not None:
            return self._hom(g)
        if g not in self.chain:
            raise InputError("element outside G has no image")
        return g


@dataclass
class SubdegreeProfile:
    """Multiset of point-stabilizer orbit lengths."""

    entries: list[tuple[int, int]]  # (length, multiplicity), ascending

    def __str__(self):
        return " ".join(f"{l}^{m}" for l, m in self.entries)


class _Canonicaliser:
    """Right-coset representatives of H, many at once, read only where used:
    the coset key of `coset_action` where no orbit of H is stabilized by H
    alone.

    A row u stands for the coset H*u.  At each level of a chain of H, in
    any base, with an orbit longer than 1, the orbit point x with the
    least u[x] is picked and the representative becomes u[t_x], t_x the
    transversal row carrying the base point to x, formed along the
    level's Schreier tree (`tree_products`; Holt, Eick and O'Brien,
    Handbook of CGT, 2005, ch. 4).  The representative is never formed:
    after picks t_1..t_j, u is read through t_j..t_1, so level j costs
    j*|orbit| gathers per row, not the degree."""

    def __init__(self, hchain):
        self.levels = [(lvl.orbit, tree_products(lvl.gmat, lvl.parent, lvl.via))
                       for lvl in hchain.levels if len(lvl.orbit) > 1]

    def images_at(self, rows, points):
        """The (m, |points|) images of `points` under each row's representative."""
        m, n = rows.shape
        starts, picked = np.arange(0, m * n, n)[:, None], []   # per pick: (transversal, offsets)

        def read(at):
            for trans, offset in reversed(picked):   # flat gathers beat 2-D indexing
                at = trans.take(offset + at)
            return rows.take(starts + at)

        for orb, trans in self.levels:
            picked.append((trans, read(orb).argmin(axis=1)[:, None] * n))
        return read(points)


def _coset_keys(G, H):
    """The `row_orbit` (start, canon, key) of each coset key of G over the
    group of the chain H, in the order `coset_action` tries them: each
    orbit of H other than the whole set (none when H's first level shows
    H transitive), smallest first and then by least point, as a sorted
    set; last the identity row, keyed by `_Canonicaliser`, which is built
    only when it is reached."""
    if not (H.levels and len(H.levels[0].orbit) == H.degree):
        for orb in sorted(orbits(H.levels[0].gens if H.levels else [], H.degree), key=len):
            yield orb, lambda rows: np.sort(rows, axis=1), None
    canon = _Canonicaliser(H)
    base = G.base or [0]   # a representative lies in G, so its images of G's base are a key
    yield np.arange(H.degree), None, lambda rows: row_keys(canon.images_at(rows, base))


def coset_action(G: StabilizerChain, H: StabilizerChain, name="coset action") -> GroupAction:
    """Action of G on the right cosets of the group of the chain H, in any
    base; point 0 is H, and its stabilizer is generated by the images of
    the generators H was built from, those of its first level.  The cosets
    are the G-orbit of the first of `_coset_keys` whose orbit has |G:H|
    rows; every key gives the same labels (see the module docstring).
    AssertionError if no key does, or an orbit exceeds the index."""
    H_gens = H.levels[0].gens if H.levels else []
    if H.degree != G.degree or any(h not in G for h in H_gens):
        raise InputError("H is not a subgroup of G")
    index = G.order() // H.order()
    if index > COSET_INDEX_LIMIT:
        raise ResourceLimitError(f"coset index {index} exceeds limit {COSET_INDEX_LIMIT}")

    gens = G.strong_generators()
    gmat = image_matrix(gens, G.degree)
    try:
        for start, canon, key in _coset_keys(G, H):
            cosets, images, _ = row_orbit(gmat, start, canon, index, key)
            if len(cosets) == index:
                break
        else:   # even the identity's orbit is short of the index
            raise ResourceLimitError(f"no coset key reaches index {index}")
    except ResourceLimitError:
        raise AssertionError("coset enumeration does not match the index") from None
    canon, key = canon or (lambda rows: rows), key or row_keys
    keys = key(cosets)
    label = np.argsort(keys)
    keys = keys[label]

    def image_of(g):
        if g not in G:
            raise InputError("element outside G has no image")
        pos, hit = sorted_lookup(keys, key(canon(g.images.astype(cosets.dtype)[cosets])))
        if not hit.all():
            raise AssertionError("coset enumeration does not match the index")
        return Permutation(label[pos])

    return GroupAction(name, index, [Permutation(img) for img in images], _hom=image_of,
                       _stabilizer=[image_of(h) for h in H_gens], _bound=G.order())


def is_transitive(A: GroupAction) -> bool:
    if A.degree < 1:
        raise InputError("degree must be at least 1")
    return len(orbit(A.generators, 0, A.degree)) == A.degree


def _point_tree(A: GroupAction):
    """The point alpha of `A.base_stabilizer()`, generators of its
    stabilizer, and a map beta -> an element carrying alpha to beta: the
    product of the generators on the path to beta's row in the Schreier
    tree of the orbit of alpha (`point_orbit`), its `tree_word`.
    InputError unless the orbit of alpha is every point."""
    alpha, stab = A.base_stabilizer()
    gmat = image_matrix(A.generators, A.degree)
    orb, rows, (parent, via) = point_orbit(gmat, alpha)
    if len(orb) != A.degree:
        raise InputError("action is not transitive")

    def carrier(beta):
        u = np.arange(A.degree)
        for s in tree_word(parent, via, rows[beta]):
            u = gmat[s][u]
        return Permutation(u)

    return alpha, stab, carrier


def is_primitive(A: GroupAction) -> bool:
    """No nontrivial proper block system.  The blocks through alpha, the
    point of `A.base_stabilizer()`, are the orbits alpha^K of the subgroups
    K containing its stabilizer G_alpha (Dixon and Mortimer, Permutation
    Groups, 1996, Thm 1.5A), so the smallest block through {alpha, beta} is
    the orbit of alpha under G_alpha and any element carrying alpha to beta.
    It must be the whole set for one beta in each orbit of G_alpha: the
    block through {alpha, beta^h}, h in G_alpha, is the h-image of the
    block through {alpha, beta}, so the other betas add nothing."""
    if A.degree < 2:
        raise InputError("primitivity needs degree >= 2")
    alpha, stab, carrier = _point_tree(A)
    return all(len(orbit(stab + [carrier(orb[0])], alpha, A.degree)) == A.degree
               for orb in orbits(stab, A.degree) if orb[0] != alpha)


def point_stabilizer_gens(A: GroupAction, point: int):
    """Generators of the stabilizer of a point of a transitive A: the
    conjugates u^-1 s u of the generators s of `A.base_stabilizer()`,
    where u carries its point to the given one."""
    if not 0 <= point < A.degree:
        raise InputError(f"point {point} out of range for degree {A.degree}")
    _, stab, carrier = _point_tree(A)
    u = carrier(point)
    return [compose(compose(inverse(u), s), u) for s in stab]


def subdegrees(A: GroupAction) -> SubdegreeProfile:
    """Orbit lengths of a point stabilizer, with multiplicities, at the
    point of `A.base_stabilizer()` (A is transitive: any point would do)."""
    if not is_transitive(A):
        raise InputError("subdegrees are defined for transitive actions only")
    _, stab = A.base_stabilizer()
    return SubdegreeProfile(sorted(Counter(map(len, orbits(stab, A.degree))).items()))
