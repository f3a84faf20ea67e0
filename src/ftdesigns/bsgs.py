"""Stabilizer chains (base and strong generating set) for permutation groups.

The construction is the deterministic Schreier-Sims algorithm: no
randomization anywhere, so identical generator lists always produce
identical chains.  Transversals are stored as explicit image arrays,
which is cheap at the degrees this package works with (<= a few
thousand points).
"""
from __future__ import annotations

from .errors import InputError
from .perm import Permutation, compose, identity, inverse

__all__ = ["StabilizerChain", "bsgs_build", "contains", "orbit", "orbits",
           "stabilizer_gens"]


class _Level:
    """One level of the chain: a base point, its strong generators, and
    the Schreier tree for its orbit (transversal as explicit arrays)."""

    __slots__ = ("point", "gens", "orbit", "transversal")

    def __init__(self, point):
        self.point = point
        self.gens: list[Permutation] = []  # generators fixing all earlier base points
        self.orbit: list[int] = []
        self.transversal: dict[int, Permutation] = {}

    def rebuild(self, degree):
        """Breadth-first orbit of the base point; u_x maps point -> x."""
        self.orbit = self.transversal = None  # free the old tree first
        self.orbit, self.transversal = orbit_transversal(self.gens, self.point, degree)


class StabilizerChain:
    """A base and strong generating set for a permutation group."""

    def __init__(self, degree):
        self.degree = degree
        self.levels: list[_Level] = []

    @property
    def base(self):
        return [lvl.point for lvl in self.levels]

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.orbit)
        return n

    def strong_generators(self):
        seen = set()
        out = []
        for lvl in self.levels:
            for g in lvl.gens:
                if g not in seen:
                    seen.add(g)
                    out.append(g)
        return out

    def sift(self, p: Permutation):
        """Strip p through the chain.

        Returns (residue, level_index): the residue after absorbing the
        transversal parts, and the level at which stripping stopped
        (== len(levels) when p sifts all the way through).
        """
        if p.degree != self.degree:
            raise InputError(f"degree mismatch: {p.degree} != {self.degree}")
        for i, lvl in enumerate(self.levels):
            x = p(lvl.point)
            if x == lvl.point:
                continue
            ux = lvl.transversal.get(x)
            if ux is None:
                return p, i
            p = compose(p, inverse(ux))
        return p, len(self.levels)

    def __contains__(self, p):
        residue, _ = self.sift(p)
        return residue.is_identity()

    def element_at(self, index: int) -> Permutation:
        """The index-th element in the mixed-radix enumeration by transversals.

        Deterministic; used for reproducible sampling without an RNG.
        """
        if not 0 <= index < self.order():
            raise InputError("element index out of range")
        g = identity(self.degree)
        for lvl in reversed(self.levels):
            index, r = divmod(index, len(lvl.orbit))
            g = compose(lvl.transversal[lvl.orbit[r]], g)
        return g


def bsgs_build(gens, degree=None, base_hint=None) -> StabilizerChain:
    """Deterministic Schreier-Sims over the given generators.

    Without a hint, each new base point is the smallest point moved by
    the strong generator that forced the level, which yields an
    ascending base.  ``base_hint`` forces a base prefix (used where a
    chain relative to the natural point order 0,1,2,... is required);
    hinted levels with trivial orbits are pruned afterwards.
    """
    gens = list(gens)
    if degree is None:
        if not gens:
            raise InputError("empty generator list needs an explicit degree")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise InputError("generators have mixed degrees")

    chain = StabilizerChain(degree)
    if base_hint is not None:
        for b in base_hint:
            chain.levels.append(_Level(int(b)))

    for g in gens:
        if not g.is_identity():
            _install(chain, g, 0)

    for lvl in chain.levels:
        lvl.rebuild(degree)

    # Holt-style verification loop, bottom level first.
    i = len(chain.levels) - 1
    while i >= 0:
        stuck = _verify_level(chain, i)
        if stuck is None:
            i -= 1
        else:
            i = stuck

    if base_hint is not None:
        chain.levels = [lvl for lvl in chain.levels if len(lvl.orbit) > 1 or lvl.gens]
    return chain


def _install(chain, g, from_level):
    """Append g as a strong generator at every level it belongs to,
    starting at from_level; extend the base if g fixes all of it."""
    j = from_level
    while j < len(chain.levels):
        chain.levels[j].gens.append(g)
        if g(chain.levels[j].point) != chain.levels[j].point:
            return j
        j += 1
    chain.levels.append(_Level(g.smallest_moved()))
    chain.levels[-1].gens.append(g)
    return len(chain.levels) - 1


def _verify_level(chain, i):
    """Sift every Schreier generator of level i through the lower chain.

    On failure the residue is installed as a new strong generator and
    the level index to re-verify from is returned; None means level i
    is complete.
    """
    lvl = chain.levels[i]
    lvl.rebuild(chain.degree)
    for x in lvl.orbit:
        ux = lvl.transversal[x]
        for g in lvl.gens:
            y = g(x)
            uy = lvl.transversal[y]
            schreier = compose(compose(ux, g), inverse(uy))
            if schreier.is_identity():
                continue
            residue = schreier
            stop = len(chain.levels)
            for j in range(i + 1, len(chain.levels)):
                sub = chain.levels[j]
                z = residue(sub.point)
                if z == sub.point:
                    continue
                uz = sub.transversal.get(z)
                if uz is None:
                    stop = j
                    break
                residue = compose(residue, inverse(uz))
            else:
                if residue.is_identity():
                    continue
            j = _install(chain, residue, i + 1)
            for l in range(i + 1, j + 1):
                chain.levels[l].rebuild(chain.degree)
            return j
    return None


def contains(chain: StabilizerChain, p: Permutation) -> bool:
    """Membership by sifting."""
    return p in chain


def orbit(gens, point, degree=None):
    """Orbit of a point under the generated group, in breadth-first
    discovery order."""
    gens = list(gens)
    if degree is None:
        if not gens:
            raise InputError("empty generator list needs an explicit degree")
        degree = gens[0].degree
    if not 0 <= point < degree:
        raise InputError(f"point {point} out of range for degree {degree}")
    out = [point]
    seen = {point}
    queue = 0
    images = [g.images for g in gens]
    while queue < len(out):
        x = out[queue]
        queue += 1
        for img in images:
            y = int(img[x])
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def orbits(gens, degree):
    """The orbits of the generated group on {0..degree-1}, each in
    breadth-first order from its smallest point, in the order of their
    smallest points."""
    seen, out = set(), []
    for p in range(degree):
        if p not in seen:
            orb = orbit(gens, p, degree)
            seen.update(orb)
            out.append(orb)
    return out


def orbit_transversal(gens, point, degree):
    """Orbit with coset representatives u_x (u_x maps point -> x)."""
    out = [point]
    transversal = {point: identity(degree)}
    queue = 0
    while queue < len(out):
        x = out[queue]
        queue += 1
        ux = transversal[x]
        for g in gens:
            y = g(x)
            if y not in transversal:
                transversal[y] = compose(ux, g)
                out.append(y)
    return out, transversal


def stabilizer_gens(chain: StabilizerChain, point: int):
    """Strong generators of the stabilizer of a point: the second level
    of a chain whose base starts at the point.  A chain with another
    first base point is rebuilt once with the point as base hint."""
    if not 0 <= point < chain.degree:
        raise InputError(f"point {point} out of range for degree {chain.degree}")
    if chain.base[:1] != [point]:
        chain = bsgs_build(chain.strong_generators(), chain.degree, base_hint=[point])
    return list(chain.levels[1].gens) if len(chain.levels) > 1 else []

