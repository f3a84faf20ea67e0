"""Brute-force and scalar reference implementations the tests compare the
package against.  They are slow on purpose: each does the plain thing."""
import numpy as np

from ftdesigns.bsgs import bsgs_build
from ftdesigns.errors import InputError
from ftdesigns.perm import Permutation, compose, identity, inverse


def element_closure(gens, degree=None, limit=2_000_000):
    """Brute-force closure of a generating set (breadth-first products);
    raises when the closure would exceed ``limit`` elements."""
    gens = [g for g in gens if not g.is_identity()]
    if degree is None:
        if not gens:
            raise InputError("empty generator list needs an explicit degree")
        degree = gens[0].degree
    ident = identity(degree)
    elements = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in elements:
                    if len(elements) >= limit:
                        raise InputError(f"closure exceeds {limit} elements")
                    elements.add(q)
                    new.append(q)
        frontier = new
    return elements


def scalar_orbit(gens, point):
    """Orbit of a point by a set of reached points and a first-in first-out
    queue, taking one point and then one generator at a time."""
    out, seen, queue = [point], {point}, 0
    while queue < len(out):
        x = out[queue]
        queue += 1
        for g in gens:
            y = g(x)
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


class ScalarLevel:
    """One level of a scalar chain: a base point, its strong generators,
    and its orbit with a dict transversal (u_x maps point -> x)."""

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.orbit = []
        self.transversal = {}

    def rebuild(self, degree):
        self.orbit = [self.point]
        self.transversal = {self.point: identity(degree)}
        queue = 0
        while queue < len(self.orbit):
            x = self.orbit[queue]
            queue += 1
            for g in self.gens:
                y = g(x)
                if y not in self.transversal:
                    self.transversal[y] = compose(self.transversal[x], g)
                    self.orbit.append(y)


def scalar_bsgs_build(gens, degree, base_hint=None):
    """Deterministic Schreier-Sims one permutation at a time: every level is
    rebuilt and verified from its first (orbit point, generator) pair after
    each new strong generator.  Returns the list of levels."""
    levels = [ScalarLevel(int(b)) for b in base_hint] if base_hint is not None else []

    def install(g, j):
        while j < len(levels):
            levels[j].gens.append(g)
            if g(levels[j].point) != levels[j].point:
                return j
            j += 1
        levels.append(ScalarLevel(g.smallest_moved()))
        levels[-1].gens.append(g)
        return len(levels) - 1

    def verify(i):
        lvl = levels[i]
        lvl.rebuild(degree)
        for x in lvl.orbit:
            for g in lvl.gens:
                residue = compose(compose(lvl.transversal[x], g),
                                  inverse(lvl.transversal[g(x)]))
                if residue.is_identity():
                    continue
                for sub in levels[i + 1:]:
                    z = residue(sub.point)
                    if z == sub.point:
                        continue
                    if z not in sub.transversal:
                        break
                    residue = compose(residue, inverse(sub.transversal[z]))
                else:
                    if residue.is_identity():
                        continue
                j = install(residue, i + 1)
                for l in range(i + 1, j + 1):
                    levels[l].rebuild(degree)
                return j
        return None

    for g in gens:
        if not g.is_identity():
            install(g, 0)
    for lvl in levels:
        lvl.rebuild(degree)
    i = len(levels) - 1
    while i >= 0:
        stuck = verify(i)
        i = i - 1 if stuck is None else stuck
    if base_hint is not None:
        levels = [lvl for lvl in levels if len(lvl.orbit) > 1 or lvl.gens]
    return levels


def scalar_sift(levels, p):
    """Strip p through scalar levels: (residue, level where it stopped)."""
    for i, lvl in enumerate(levels):
        z = p(lvl.point)
        if z == lvl.point:
            continue
        if z not in lvl.transversal:
            return p, i
        p = compose(p, inverse(lvl.transversal[z]))
    return p, len(levels)


def assert_chain_matches(chain, levels):
    """The chain has the scalar levels' base, strong generators in order,
    orbits in order, and transversal rows."""
    assert chain.base == [lvl.point for lvl in levels]
    for got, want in zip(chain.levels, levels):
        assert got.gens == want.gens, got.point
        assert got.orbit.tolist() == want.orbit, got.point
        assert got.trans.shape == (len(want.orbit), chain.degree), got.point
        for row, x in zip(got.trans, want.orbit):
            assert np.array_equal(row, want.transversal[x].images), (got.point, x)


def all_pairs_is_primitive(A):
    """Primitivity of a transitive action from the smallest block through
    {0, beta} for every beta, one union-find each."""
    from ftdesigns.actions import _minimal_block_size

    return all(_minimal_block_size(A.generators, A.degree, 0, beta) == A.degree
               for beta in range(1, A.degree))


def canonical_rep(hchain, images):
    """Minimal image-tuple representative of the coset H * (permutation
    with the given images), one level and one orbit point at a time."""
    u = images
    for lvl in hchain.levels:
        if len(lvl.orbit) == 1:
            continue
        orbit = lvl.orbit.tolist()
        r = min(range(len(orbit)), key=lambda r: u[orbit[r]])
        u = u[lvl.trans[r]]
    return u


def coset_action_images(G, H_gens):
    """Images of G's strong generators and of H_gens on the right cosets
    of H, labelled by a first-in first-out queue of canonical reps, one
    coset and one generator at a time."""
    degree = G.degree
    hchain = bsgs_build(H_gens, degree, base_hint=range(degree))
    gens = G.strong_generators()
    reps = [canonical_rep(hchain, np.arange(degree, dtype=np.int64))]
    keys = {reps[0].tobytes(): 0}
    images = [[] for _ in gens]
    q = 0
    while q < len(reps):
        r = reps[q]
        q += 1
        for gi, g in enumerate(gens):
            canon = canonical_rep(hchain, g.images[r])
            key = canon.tobytes()
            if key not in keys:
                keys[key] = len(reps)
                reps.append(canon)
            images[gi].append(keys[key])

    def hom(g):
        return Permutation([keys[canonical_rep(hchain, g.images[r]).tobytes()]
                            for r in reps])

    return [Permutation(img) for img in images], [hom(h) for h in H_gens]


def normalize_point(field, coords):
    """A projective point scaled so its first nonzero coordinate is 1."""
    coords = tuple(coords)
    for c in coords:
        if c:
            inv = field.inv(c)
            return tuple(field.mul(inv, x) for x in coords)
    raise InputError("projective point must be nonzero")


def apply_matrix(field, vec, mat):
    """The row vector `vec` times the 4x4 matrix `mat` over the field."""
    out = [0, 0, 0, 0]
    for i in range(4):
        vi = vec[i]
        if vi:
            row = mat[i]
            for j in range(4):
                if row[j]:
                    out[j] ^= field.mul(vi, row[j])
    return tuple(out)


def ovoid_generator_images(ov, matrices):
    """Image lists of the matrices on the ovoid points, one point at a
    time."""
    index = {p: i for i, p in enumerate(ov.points)}
    return [[index[normalize_point(ov.field, apply_matrix(ov.field, p, mat))]
             for p in ov.points] for mat in matrices]


def plane_sections(ov):
    """The secant plane sections of the ovoid as a sorted list of point
    index tuples, one plane at a time."""
    q, field = ov.q, ov.field
    pts = np.array(ov.points, dtype=np.int64)
    planes = [(0, 0, 0, 1)]
    planes += [(0, 0, 1, c) for c in range(q)]
    planes += [(0, 1, c, d) for c in range(q) for d in range(q)]
    planes += [(1, c, d, e) for c in range(q) for d in range(q) for e in range(q)]
    out = []
    for d in np.array(planes, dtype=np.int64):
        prods = field.mul_array(pts, d[None, :])
        dots = prods[:, 0] ^ prods[:, 1] ^ prods[:, 2] ^ prods[:, 3]
        sec = np.flatnonzero(dots == 0)
        if len(sec) == q + 1:
            out.append(tuple(int(x) for x in sec))
    return sorted(out)
