"""Brute-force and scalar reference implementations the tests compare the
package against.  They are slow on purpose: each does the plain thing."""
import functools
import hashlib
import math
import re

import numpy as np

from ftdesigns.bsgs import bsgs_build, image_matrix, inverse_rows, tree_products, tree_word
from ftdesigns.errors import InputError
from ftdesigns.perm import Permutation, compose, format_cycles, inverse


def identity(degree):
    return Permutation(np.arange(degree))


def serialize_catalog(entries) -> str:
    """Catalog text that `parse_catalog` reads back to the same entries:
    the directives only, without the bundled file's comments."""
    out = []
    for e in entries:
        out.append(f"group {e.name} degree {e.degree} order {e.order}")
        for g in e.generators:
            out.append(f"gen {format_cycles(g)}")
        for s in e.subgroups:
            head = f"subgroup {s.name} order {s.order}"
            if s.nr is not None:
                head += f" nr {s.nr}"
            out.append(head)
            for g in s.generators:
                out.append(f"gen {format_cycles(g)}")
            out.append("end")
        out.append("end")
    return "\n".join(out) + "\n"


def scalar_parse_cycles(text, degree):
    """1-indexed cycle notation read one cycle and one point at a time,
    with `perm.parse_cycles`'s grammar and messages: a cycle's points are
    checked for range, then for repeats, before the next cycle is read,
    and the cycles for disjointness last."""
    if not re.fullmatch(r"\s*(\((\s*[0-9]+\s*(,\s*[0-9]+\s*)*|\s*)\)\s*)*", text):
        raise InputError(f"malformed cycle notation: {text!r}")
    images, seen = list(range(degree)), set()
    cycles = []
    for body in re.findall(r"\(([^()]*)\)", text):
        if not body.strip():
            continue
        pts = [int(tok) - 1 for tok in body.split(",")]
        if any(p < 0 or p >= degree for p in pts):
            raise InputError(f"cycle point out of range 1..{degree}: {text!r}")
        if len(set(pts)) != len(pts):
            raise InputError(f"repeated point in cycle: {text!r}")
        cycles.append(pts)
    for pts in cycles:
        if seen & set(pts):
            raise InputError(f"cycles are not disjoint: {text!r}")
        seen.update(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return Permutation(images)


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


def scalar_row_orbit(gens, start, apply_fn):
    """Orbit of start under apply_fn(g, x) by a first-in first-out queue,
    one element and then one generator at a time; action[g][i], the index
    of the image of the i-th element under the g-th generator; and the
    first-reach tree (parent, via): the i-th element is first met as the
    image of element parent[i] under generator via[i], -1 for start."""
    out, index, action, q = [start], {start: 0}, [[] for _ in gens], 0
    parent, via = [-1], [-1]
    while q < len(out):
        x = out[q]
        for gi, g in enumerate(gens):
            y = apply_fn(g, x)
            if y not in index:
                index[y] = len(out)
                out.append(y)
                parent.append(q)
                via.append(gi)
            action[gi].append(index[y])
        q += 1
    return out, action, (parent, via)


def scalar_orbits(gens, degree):
    """The orbits on range(degree) by a breadth-first search from each
    point not yet reached, in that order, each sorted."""
    seen, out = set(), []
    for p in range(degree):
        if p not in seen:
            orb = scalar_row_orbit(gens, p, lambda g, x: g(x))[0]
            seen.update(orb)
            out.append(sorted(orb))
    return out


def scalar_flag_transitive(gens, blocks):
    """Whether the group on the blocks, lists of points that it permutes
    and that cover every point, is transitive on the flags: whether the
    orbit of one flag (x, B) under (x, B) -> (g(x), sorted g(B)) holds
    all b*k of them."""
    start = (blocks[0][0], tuple(sorted(blocks[0])))
    flags = scalar_row_orbit(
        gens, start, lambda g, f: (g(f[0]), tuple(sorted(g(x) for x in f[1]))))[0]
    return len(flags) == len(blocks) * len(blocks[0])


def scalar_orbit_stabilizer(gens, x0, apply_fn, target_order, degree):
    """Orbit of x0 under apply_fn(g, x), a dict transversal u_y = u_x g on
    first reach, and the Schreier generators u_x g u_{xg}^-1, x-major then
    g, each kept unless it is the identity or in the group of those kept,
    until that group has target_order."""
    out, transversal, q = [x0], {x0: identity(degree)}, 0
    while q < len(out):
        x = out[q]
        q += 1
        ux = transversal[x]
        for g in gens:
            y = apply_fn(g, x)
            if y not in transversal:
                transversal[y] = compose(ux, g)
                out.append(y)
    stab, sub = [], None
    if target_order == 1:
        return out, transversal, stab
    for x in out:
        ux = transversal[x]
        for g in gens:
            y = apply_fn(g, x)
            s = compose(compose(ux, g), inverse(transversal[y]))
            if s.is_identity() or (sub is not None and s in sub):
                continue
            stab.append(s)
            sub = bsgs_build(stab, degree)
            if sub.order() == target_order:
                return out, transversal, stab
    raise AssertionError("stabilizer did not reach the target order")


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


def chain_scalar_levels(chain):
    """Scalar levels with a chain's base points, orbits and transversals,
    the `tree_products` along its Schreier trees, for `scalar_sift`."""
    levels = []
    for lvl in chain.levels:
        levels.append(ScalarLevel(lvl.point))
        levels[-1].orbit = lvl.orbit.tolist()
        trans = tree_products(lvl.gmat, lvl.parent, lvl.via)
        levels[-1].transversal = dict(zip(levels[-1].orbit, map(Permutation, trans)))
    return levels


def rebuild_generate_to_order(candidates, degree, order):
    """The candidates `generate_to_order` keeps, each tested against and
    then added to a scalar chain built afresh from the ones kept before."""
    kept, levels, candidates = [], [], iter(candidates)
    while math.prod(len(lvl.orbit) for lvl in levels) != order:
        s = next(candidates, None)
        if s is None:
            raise InputError(f"candidates generate no group of order {order}")
        if not scalar_sift(levels, s)[0].is_identity():
            kept.append(s)
            levels = scalar_bsgs_build(kept, degree)
    return kept


def tree_rows(lvl):
    """A chain level's transversal and inverse-transversal matrices, formed
    from its Schreier tree: the `tree_products` and their `inverse_rows`."""
    trans = tree_products(lvl.gmat, lvl.parent, lvl.via)
    return trans, inverse_rows(trans)


def assert_chain_matches(chain, levels):
    """The chain has the scalar levels' base, strong generators in order,
    orbits in order, and transversal rows, the products along its Schreier
    tree; each inverse row undoes its transversal row."""
    assert chain.base == [lvl.point for lvl in levels]
    points = np.arange(chain.degree)
    for got, want in zip(chain.levels, levels):
        assert got.gens == want.gens, got.point
        assert got.orbit.tolist() == want.orbit, got.point
        gmat = image_matrix(got.gens, chain.degree)
        assert np.array_equal(got.gmat, gmat), got.point
        trans, inv = tree_rows(got)
        assert trans.shape == inv.shape == (len(want.orbit), chain.degree), got.point
        for row, row_inv, x in zip(trans, inv, want.orbit):
            assert np.array_equal(row, want.transversal[x].images), (got.point, x)
            assert np.array_equal(row_inv[row], points), (got.point, x)


def chain_digest(chain):
    """sha256 of a chain's base and, level by level, of its strong
    generators, orbit, transversal and inverse matrices (`tree_rows`) and
    the tree (`parent`, `via`), each with its dtype and shape."""
    digest = hashlib.sha256(np.asarray(chain.base, dtype=np.int64).tobytes())
    for lvl in chain.levels:
        gens = np.array([g.images for g in lvl.gens], dtype=np.int64)
        for a in (gens, lvl.orbit, *tree_rows(lvl), lvl.parent, lvl.via):
            a = np.ascontiguousarray(a)
            digest.update(f"{a.dtype.str}{a.shape}".encode())
            digest.update(a.tobytes())
    return digest.hexdigest()


def minimal_block_size(gens, degree, alpha, beta):
    """Size of the smallest block containing {alpha, beta}: join the pair,
    then the images under each generator of every joined pair, with a
    union-find until no join is new (Atkinson, Math. Comp. 29, 1975)."""
    parent = list(range(degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
        return True

    join(alpha, beta)
    pairs = [(alpha, beta)]
    while pairs:
        a, b = pairs.pop()
        for g in gens:
            pair = (int(g.images[a]), int(g.images[b]))
            if join(*pair):
                pairs.append(pair)
    root = find(alpha)
    return sum(find(x) == root for x in range(degree))


def all_pairs_is_primitive(A):
    """The independent reference for `actions.is_primitive`, sharing no code
    with it: primitivity of a transitive action from the smallest block
    through {0, beta} for every beta, one union-find each."""
    return all(minimal_block_size(A.generators, A.degree, 0, beta) == A.degree
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
        for g in reversed(tree_word(lvl.parent, lvl.via, r)):   # u becomes u[t_r], t_r
            u = u[lvl.gmat[g]]                                # the tree product
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


def canonical_hom(G, H_gens):
    """Image of an element of G on the right cosets of H = <H_gens>, labelled
    as `coset_action` labels them, by keying the coset of every first-reach
    element times the element by its canonical base images and looking its
    label up."""
    from ftdesigns.actions import _Canonicaliser
    from ftdesigns.bsgs import _batch_rows, image_matrix, row_orbit
    from ftdesigns.perm import row_keys

    degree = G.degree
    hchain = bsgs_build(H_gens, degree, base_hint=range(degree))
    canon, base = _Canonicaliser(hchain), G.base or [0]

    def key(rows):
        return row_keys(canon.images_at(rows, base))

    reps = row_orbit(image_matrix(G.strong_generators(), degree), np.arange(degree),
                     None, G.order() // hchain.order(), key)[0]
    order = np.argsort(key(reps))
    keys = key(reps)[order]

    def hom(g):
        if g not in G:
            raise InputError("element outside G has no image")
        img, step = g.images.astype(reps.dtype), _batch_rows(degree)
        return Permutation(np.concatenate([
            order[np.searchsorted(keys, key(img[reps[lo:lo + step]]))]
            for lo in range(0, len(reps), step)]))

    return hom


def field_inverse(field, c):
    """The inverse of a nonzero field element, by trying every element."""
    return next(x for x in range(1, field.size) if field.mul(c, x) == 1)


def normalize_point(field, coords):
    """A projective point scaled so its first nonzero coordinate is 1."""
    coords = tuple(coords)
    for c in coords:
        if c:
            inv = field_inverse(field, c)
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


@functools.cache
def prime_table(limit):
    """is_prime[n] for 0 <= n <= limit, by the sieve of Eratosthenes: every
    multiple p*m, m >= p, of each p is crossed out."""
    table = bytearray([1]) * (limit + 1)
    table[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if table[p]:
            table[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return table
