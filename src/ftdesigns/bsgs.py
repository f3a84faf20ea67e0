"""Stabilizer chains (base and strong generating set) for permutation groups.

The construction is the deterministic Schreier-Sims algorithm: no
randomization anywhere, so identical generator lists always produce
identical chains.

Storage.  A completed level keeps its orbit as an index array in
`row_orbit` order, an intp point -> row lookup into it (-1 off the
orbit), its generators' `image_matrix` and `inverse_rows` in the
narrowest unsigned dtype that holds the points (`perm.point_dtype`), and
the Schreier tree `row_orbit` records as it first reaches each row: row
r is reached from row parent[r] by generator via[r], and u_r, which maps
the base point to orbit[r], is the product of the generators on the tree
path from the root, the root's first (a Schreier vector: Seress,
Permutation Group Algorithms, 2003, section 4.1).  `point_orbit` forms
orbit, lookup and tree at once, and a level whose orbit is only its base
point holds them too: a lookup that is -1 but at the base point, and a
tree of the root alone.  A single element is sifted along the tree,
u_r^-1 = g^-1 u_parent^-1 for g = via[r], one inverse generator row at a
time; `element_at` and the coset canonicaliser of `actions` form u_r
from the tree.

While `_complete` runs, each level also holds the dense inverse
transversal, the (|orbit|, degree) matrix whose row r is u_r^-1 (row 0
the identity), filled along the tree; it is dropped before `_complete`
returns, and formed again when a completed chain is completed anew.
Sifting a batch multiplies only by inverse rows.  Gathers from these
matrices are flat, at r * degree + p of the raveled matrix for entry p
of row r: one `take` is two to three times faster than 2-D broadcast
indexing at degree 1540, and the lookup is intp so that r * degree
cannot overflow.

Batching.  The Schreier generators u_x g u_{xg}^-1 of a level are formed
as rows for a batch of (x, g) pairs in x-major order, u_x g by one flat
scatter of g through the rows u_x^-1 and the product by one flat gather
from the rows u_{xg}^-1, and the whole batch is sifted through the lower
levels, one level at a time.  The first pair whose residue is not the
identity gives the next strong generator, so the chain is the one that
sifting one pair at a time gives.  A batch holds at most `_batch_rows`
rows, so that the intp index it scatters or gathers through, its
largest temporary at 8 bytes an entry, holds at most `_BATCH_ENTRIES` / 4
entries (512 KiB).  A level's first batch has 32 rows (`_FIRST_BATCH`), and each next batch
doubles: few batches for a complete level, little waste past a pair
that fails early.  The tree products and inverses, and `inverse_rows`,
are formed in batches of the same size.

Tree edges.  The |orbit| - 1 pairs (parent[y], via[y]) are never formed:
there u_x g is u_y by the construction of the transversal, so their
Schreier generator is the identity (Seress, Permutation Group
Algorithms, 2003, ch. 4).  An identity residue never fails, so leaving
these pairs out cannot move the first failing pair, and the chain (base,
strong generators in order, orbits and transversal rows) is the one that
sifting every pair gives.

Verification.  Levels are verified bottom first, each from its first
off-tree pair; a level is stale once generators are appended to it, and
is rebuilt before it is verified.  A residue found at level i is
installed below it, and level i is verified again once the levels below
are complete: its earlier pairs sift to the identity through the larger
lower group as they did before, so the first failing pair, and the
chain, are those of sifting one pair at a time.  A level whose orbit is
only its base point is complete at once: its Schreier generators are
its generators, which `_install` has put on the level below.

Known order.  A level's generators S_i generate a group containing
those of every deeper level, which fix the earlier base points, so
|<S_i>| >= |orbit_i| * |<S_i+1>|, and the product of the orbit lengths
the levels hold (a stale orbit is part of its full orbit, an unbuilt
level counts 1) is a lower bound on the group order at every step of
the loop.  Given a proven upper bound, the loop stops once the product
reaches it: then every inequality is an equality, so each stale orbit
is the full orbit, no Schreier generator that is left can fail, and
rebuilding the stale levels gives the chain full verification gives.
This is the known-order stop of random Schreier-Sims (Seress, 2003,
section 4.3; Holt, Eick and O'Brien, Handbook of CGT, 2005, section 4.4)
with nothing randomised.

Orbit-stabilizer.  `orbit_stabilizer` gives the stabilizer of a point,
set or tuple as reduced Schreier generators, not as the sifted residues
a chain would give: the Schreier generators in x-major order, each kept
unless it lies in the group of those kept, up to the known order.  The
bundled catalog's subgroup generators are these, so its bytes, and every
coset label and design file, depend on the choice.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError, ResourceLimitError
from .perm import Permutation, point_dtype, row_keys

__all__ = ["StabilizerChain", "bsgs_build", "contains", "generate_to_order", "image_matrix",
           "inverse_rows", "orbit", "orbit_stabilizer", "orbit_transversal", "orbits",
           "point_orbit", "row_orbit", "sorted_lookup", "stabilizer_gens", "tree_products",
           "tree_word"]

# image entries per batch: bounds every (rows, width) temporary, and a
# quarter of it the intp index a chain batch gathers through
_BATCH_ENTRIES = 1 << 18
# rows in a level's first batch of Schreier generators, doubled after each batch
_FIRST_BATCH = 32
# image entries of an `orbit_stabilizer` transversal: bounds |orbit| * degree
_TRANSVERSAL_ENTRIES = 1 << 24


class _Level:
    """One level of the chain: a base point, its strong generators and their
    inverse rows, its orbit and Schreier tree, and `inv` while `_complete` runs."""

    __slots__ = ("point", "gens", "gmat", "ginv", "orbit", "rows", "inv", "parent", "via")

    def __init__(self, point):
        self.point = point
        self.gens: list[Permutation] = []  # generators fixing all earlier base points
        self.gmat = self.ginv = self.orbit = self.rows = self.inv = self.parent = self.via = None

    def rebuild(self, chain):
        """Build the generator rows, orbit and tree again if generators were
        appended (`gmat` holds the ones built from), and the inverse matrix
        if the level holds none."""
        if self.gmat is None or len(self.gmat) != len(self.gens):
            self.orbit = self.rows = self.inv = None  # free the old matrix first
            self.gmat = image_matrix(self.gens, chain.degree)
            self.ginv = inverse_rows(self.gmat)
            self.orbit, self.rows, (self.parent, self.via) = point_orbit(self.gmat, self.point)
        if self.inv is None:
            self.inv = _tree_inverses(self.ginv, self.parent, self.via)

    def schreier_pairs(self):
        """The (x, g) pairs whose Schreier generators are sifted, as indices
        x_row * len(gens) + g in x-major order: every pair but the tree
        edges (parent[y], via[y])."""
        k = len(self.gens)
        keep = np.ones(len(self.orbit) * k, dtype=bool)
        keep[self.parent[1:] * k + self.via[1:]] = False
        return np.flatnonzero(keep)


class StabilizerChain:
    """A base and strong generating set for a permutation group."""

    def __init__(self, degree):
        self.degree = degree
        self.dtype = point_dtype(degree)
        self.levels: list[_Level] = []

    @property
    def base(self):
        return [lvl.point for lvl in self.levels]

    def order(self) -> int:
        """The product of the orbit lengths the levels hold, an unbuilt
        level counting 1: the group order once the chain is complete, and a
        lower bound on it while `_complete` runs."""
        n = 1
        for lvl in self.levels:
            if lvl.orbit is not None:
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

    def __contains__(self, p):
        """Membership by sifting p along each level's Schreier tree: for the
        row r of its image of the base point, p u_r^-1 is gathered through
        the inverse generator rows on the path to the root, u_r^-1 =
        g^-1 u_parent^-1 for g = via[r]."""
        if p.degree != self.degree:
            raise InputError(f"degree mismatch: {p.degree} != {self.degree}")
        res = p.images
        for lvl in self.levels:
            r = lvl.rows[res[lvl.point]]
            if r < 0:
                return False
            while r > 0:    # `take` casts a narrow index faster than indexing does
                res, r = lvl.ginv[lvl.via[r]].take(res), lvl.parent[r]
        return bool((res == np.arange(self.degree)).all())

    def element_at(self, index: int) -> Permutation:
        """The index-th element in the mixed-radix enumeration by transversals.

        A bijection from range(order) onto the group: the digits of index,
        deepest level first, pick one transversal element per level, and
        the deepest is applied first.  Deterministic; used for reproducible
        sampling.
        """
        if not 0 <= index < self.order():
            raise InputError("element index out of range")
        g = np.arange(self.degree, dtype=np.int64)
        for lvl in reversed(self.levels):
            index, r = divmod(index, len(lvl.orbit))
            for s in tree_word(lvl.parent, lvl.via, r):      # g becomes u_r[g]
                g = lvl.gmat[s].take(g)
        return Permutation._wrap(g.astype(np.int64))


def _batch_rows(degree):
    """Rows per batch: their intp index holds at most `_BATCH_ENTRIES` / 4 entries."""
    return max(1, _BATCH_ENTRIES // (4 * max(1, degree)))


def bsgs_build(gens, degree=None, base_hint=None, order=None) -> StabilizerChain:
    """Deterministic Schreier-Sims over the given generators.

    Without a hint, each new base point is the smallest point moved by
    the strong generator that forced the level, which yields an
    ascending base.  ``base_hint`` forces a base prefix of distinct
    points, for a chain whose first level must be the stabilizer of a
    given point; hinted levels with trivial orbits are pruned afterwards.
    ``order``, a proven upper bound on the order of the generated group
    (the order of a group it is an image of, say), ends verification as
    soon as the product of the orbit lengths reaches it; the chain is the
    one full verification gives.  A bound that is never reached changes
    nothing, so it never decides the order.
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
        hint = [int(b) for b in base_hint]
        bad = [b for b in hint if not 0 <= b < degree]
        if bad:
            raise InputError(f"base point {bad[0]} out of range for degree {degree}")
        if len(set(hint)) != len(hint):
            raise InputError("base hint repeats a point")
        chain.levels = [_Level(b) for b in hint]

    for g in gens:
        if not g.is_identity():
            _install(chain, g, 0)
    _complete(chain, order)
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


def _complete(chain, order=None):
    """Holt-style verification loop: levels bottom first, back down after a
    failure.  With `order`, a proven upper bound on the group order, the
    loop stops once `chain.order()`, a lower bound on it, reaches the
    bound, and rebuilds the stale levels.  Every level's inverse matrix
    is dropped on return."""
    i = len(chain.levels) - 1
    while i >= 0:
        chain.levels[i].rebuild(chain)
        if order is not None and chain.order() == order:
            for lvl in chain.levels:
                lvl.rebuild(chain)
            break
        stuck = _verify_level(chain, i)
        i = i - 1 if stuck is None else stuck
    for lvl in chain.levels:
        lvl.inv = None


def _verify_level(chain, i):
    """Sift the Schreier generators of level i, built from its current
    generators, through the lower chain, a batch of (orbit point,
    generator) pairs off the Schreier tree at a time, from the first.

    On failure the residue of the first failing pair is installed as a
    new strong generator and the level index to re-verify from is
    returned; None means level i is complete.
    """
    lvl = chain.levels[i]
    if len(lvl.orbit) == 1:
        return None
    k, n = len(lvl.gens), chain.degree
    inv = lvl.inv.reshape(-1)
    pairs = lvl.schreier_pairs()
    cap = _batch_rows(n)
    start, step = 0, min(_FIRST_BATCH, cap)
    while start < len(pairs):
        xr, gi = np.divmod(pairs[start:start + step], k)
        # the rows u_x g by one scatter, (u_x g)[u_x^-1[q]] = g[q]; the intp
        # index is the batch's largest temporary, so it is made first and freed
        at = lvl.inv[xr] + (np.arange(len(xr)) * n)[:, None]
        ug = np.empty((len(xr), n), dtype=chain.dtype)
        ug.reshape(-1)[at] = lvl.gmat[gi]
        del at
        # row m is u_x g u_y^-1 for the pair (x, g), y = xg the image of the base point
        res = inv.take(ug + (lvl.rows[ug[:, lvl.point]] * n)[:, None])
        _strip(chain.levels, i + 1, res)    # a row that stops there moves a base point
        failed = (res != np.arange(n, dtype=chain.dtype)).any(axis=1)
        if failed.any():
            first = int(failed.argmax())
            return _install(chain, Permutation._wrap(res[first].astype(np.int64)), i + 1)
        start += len(res)
        step = min(2 * step, cap)
    return None


def _strip(levels, first, res):
    """Sift the rows of `res` in place through levels[first:], one level
    at a time.  A row that reaches a level whose orbit misses the row's
    image of the base point stays as it is there."""
    live, n = np.arange(len(res)), res.shape[1]
    for lvl in levels[first:]:
        rows = lvl.rows[res[live, lvl.point]]
        keep = rows >= 0
        if not keep.all():
            live, rows = live[keep], rows[keep]
            if not live.size:
                break
        moving = rows > 0          # row 0 is the identity
        if moving.any():
            sel = live[moving]
            res[sel] = lvl.inv.reshape(-1).take(res[sel] + (rows[moving] * n)[:, None])


def contains(chain: StabilizerChain, p: Permutation) -> bool:
    """Membership by sifting."""
    return p in chain


def row_orbit(images, start, canon=None, limit=None, key=None):
    """Orbit of a row under generators acting entrywise, row -> img[row].

    `images` holds the k generators' images of n points.  `canon` maps an
    (m, width) array of rows to canonical rows (a row sort for point sets),
    and `start` and every image go through it.  `key` maps rows to keys,
    equal exactly for rows of one orbit point, held by the first to reach
    it (by default for equal rows).  Returns the orbit as rows in the dtype
    of `images`, the (k, m) intp array `action`: action[g, i] indexes row
    i's image under g, and the (2, m) intp tree: row i is first reached
    from row tree[0, i] by generator tree[1, i], -1 at the root.

    Rows come in first-reach order of a first-in first-out queue taking
    one row, then one generator, at a time: breadth first, so parents are
    nondecreasing; each new row's place in the queue is kept per batch, as
    `action` is.  A batch of images, at most `_BATCH_ENTRIES` entries from
    the next m rows of the queue, is gathered by one `take` in
    generator-major order, image g*m + r for row r and generator g, so no
    copy reorders it; only its keys are put in the queue's order.
    One-point rows with the default key are looked up in a dense table of
    each point's row: a batch's new points are those not in the table
    whose first place in the batch, found by a scatter of the places in
    reverse, is their own.  Other keys (`perm.row_keys` by default) are
    kept sorted with their rows' indices; a batch looks its distinct keys
    up among them, and the new ones are merged in at once.  The result
    does not depend on the bound.  Rows are reserved at `limit` (n by
    default, the bound for an orbit of points; only pages written count),
    and ResourceLimitError is raised once the orbit would exceed it."""
    images = np.asarray(images)
    k, width = len(images), len(start)
    limit = images.shape[1] if limit is None else limit
    canon, dense = canon or (lambda rows: rows), width == 1 and key is None
    key = key or row_keys
    rows = np.empty((max(limit, 1), width), dtype=images.dtype)
    rows[0] = start
    rows[:1] = canon(rows[:1])
    if dense:
        table, place = np.full((2, images.shape[1]), -1, dtype=np.intp)
        table[rows[0, 0]] = 0
    else:
        seen, label = key(rows[:1]), np.zeros(1, dtype=np.intp)
    step, q, found, action, reached = max(1, _BATCH_ENTRIES // max(1, k * width)), 0, 1, [], []
    while k and q < found:
        m = min(step, found - q)
        cand = canon(images.take(rows[q:q + m], axis=1).reshape(-1, width))   # g-major
        if dense:
            pts, at = cand.reshape(k, m).T.ravel(), np.arange(k * m)          # queue order
            place[pts[::-1]] = at[::-1]         # the last write is a point's first place
            at = at[(place[pts] == at) & (table[pts] < 0)]
            new = pts[at]
            if found + len(new) > len(rows):
                raise ResourceLimitError(f"orbit exceeds limit {limit}")
            rows[found:found + len(new), 0] = new
            table[new] = np.arange(found, found + len(new))
            found += len(new)
            action.append(table[pts].reshape(-1, k))
            reached.append(q * k + at)
        else:
            keys, first, inverse = np.unique(key(cand).reshape(k, m).T.ravel(),   # queue order
                                             return_index=True, return_inverse=True)
            pos, hit = sorted_lookup(seen, keys)
            labels = label.take(pos, mode="clip")       # right where hit
            new = np.flatnonzero(~hit)
            if len(new):
                if found + len(new) > len(rows):
                    raise ResourceLimitError(f"orbit exceeds limit {limit}")
                reach = new[np.argsort(first[new])]    # the new rows in first-reach order
                labels[reach] = np.arange(found, found + len(new))
                r, g = np.divmod(first[reach], k)
                rows[found:found + len(new)] = cand[g * m + r]
                reached.append(q * k + first[reach])
                found += len(new)
                at = pos[new] + np.arange(len(new))    # their places once merged
                keep = np.ones(len(seen) + len(new), dtype=bool)
                keep[at], merged = False, []
                for old, add in ((seen, keys[new]), (label, labels[new])):
                    merged.append(np.empty(len(keep), dtype=old.dtype))
                    merged[-1][at], merged[-1][keep] = add, old
                seen, label = merged
            action.append(labels[inverse].reshape(-1, k))
        q += m
    action = np.concatenate(action).T if action else np.empty((k, found), dtype=np.intp)
    tree = np.full((2, found), -1, dtype=np.intp)
    if found > 1:
        np.divmod(np.concatenate(reached), k, out=(tree[0, 1:], tree[1, 1:]))
    return rows[:found], np.ascontiguousarray(action), tree


def sorted_lookup(seen, keys):
    """Insertion positions of `keys` in the sorted array `seen`, and hits."""
    pos = np.searchsorted(seen, keys)
    # a key past the end is above seen[-1], so the clipped compare is False
    return pos, seen.take(pos, mode="clip") == keys


def point_orbit(images, point):
    """The orbit of a point under the generators of an `image_matrix`, in
    `row_orbit` order, the row of each point in it (-1 off the orbit), both
    intp, and the orbit's `row_orbit` tree (parent, via)."""
    orb, _, tree = row_orbit(images, [point])
    orb = orb[:, 0].astype(np.intp)
    rows = np.full(images.shape[1], -1, dtype=np.intp)
    rows[orb] = np.arange(len(orb))
    return orb, rows, tree


def tree_word(parent, via, row):
    """The generators on the Schreier tree path from the root to `row`, root
    first: the product of the generators they index, in this order, carries
    the root to the row."""
    word = []
    while row > 0:
        word.append(int(via[row]))
        row = parent[row]
    return word[::-1]


def image_matrix(gens, degree):
    """The generators' image arrays as a (k, degree) `point_dtype` matrix."""
    return np.array([g.images for g in gens], dtype=point_dtype(degree)).reshape(len(gens), degree)


def orbit(gens, point, degree=None):
    """Orbit of a point under the generated group, in `row_orbit` order."""
    gens = list(gens)
    if degree is None:
        if not gens:
            raise InputError("empty generator list needs an explicit degree")
        degree = gens[0].degree
    if not 0 <= point < degree:
        raise InputError(f"point {point} out of range for degree {degree}")
    return row_orbit(image_matrix(gens, degree), [point])[0][:, 0].tolist()


def orbits(gens, degree):
    """The orbits of the generated group on {0..degree-1} by least point,
    each an ascending intp array.  Each point takes the least label of its
    preimages, then its label's label, until no label moves; a label is
    then the least point of its orbit."""
    label, images = np.arange(degree), image_matrix(gens, degree)
    while True:
        old, label = label, label.copy()
        for img in images:
            label[img] = np.minimum(label[img], label)
        label = label[label]
        if np.array_equal(label, old):
            break
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def orbit_transversal(gens, point, degree):
    """The orbit and row lookup of `point_orbit`, and the `tree_products`
    along its tree in `point_dtype(degree)`: row r maps point to orbit[r]."""
    images = image_matrix(gens, degree)
    orb, rows, tree = point_orbit(images, point)
    return orb, rows, tree_products(images, *tree)


def _tree_layers(parent, degree):
    """Slices lo:hi of a `row_orbit` tree's rows from row 1, at most
    `_batch_rows`, parents before lo (parents are nondecreasing)."""
    step, lo = _batch_rows(degree), 1
    while lo < len(parent):
        hi = min(lo + step, int(np.searchsorted(parent, lo)))
        yield lo, hi
        lo = hi


def tree_products(images, parent, via):
    """The elements u_r along a `row_orbit` tree, as a (rows, degree) matrix in
    the dtype of the generators' `images`: row 0 is the identity, and row r
    is row parent[r] followed by generator via[r]."""
    degree, flat = images.shape[1], images.reshape(-1)
    trans = np.empty((len(parent), degree), dtype=images.dtype)
    trans[0] = np.arange(degree)
    for lo, hi in _tree_layers(parent, degree):
        trans[lo:hi] = flat.take(trans[parent[lo:hi]] + (via[lo:hi] * degree)[:, None])
    return trans


def _tree_inverses(ginv, parent, via):
    """The inverses of the `tree_products` along a `row_orbit` tree, from the
    generators' `inverse_rows`: row r, u_r^-1, is ginv[via[r]] then row parent[r]."""
    degree = ginv.shape[1]
    inv = np.empty((len(parent), degree), dtype=ginv.dtype)
    inv[0], flat = np.arange(degree), inv.reshape(-1)
    for lo, hi in _tree_layers(parent, degree):
        inv[lo:hi] = flat.take(ginv[via[lo:hi]] + (parent[lo:hi] * degree)[:, None])
    return inv


def inverse_rows(matrix):
    """The inverse of each row of a (rows, degree) matrix of permutations,
    in its dtype: row r of the result maps matrix[r, p] to p.  One flat
    scatter per batch of at most `_batch_rows` rows."""
    degree = matrix.shape[1]
    out, step = np.empty_like(matrix), _batch_rows(degree)
    flat, points = out.reshape(-1), np.arange(degree)
    for lo in range(0, len(matrix), step):
        block = matrix[lo:lo + step]
        flat[block + np.arange(lo * degree, (lo + len(block)) * degree, degree)[:, None]] = points
    return out


def generate_to_order(candidates, degree, order):
    """The candidates, in order, that are neither the identity nor in the
    group generated by those kept before, up to the first that makes the
    kept ones generate a group of `order`.  InputError if none does.  The
    kept ones grow one chain, each installed in it and the chain completed."""
    kept, sub, candidates = [], StabilizerChain(degree), iter(candidates)
    while sub.order() != order:
        s = next(candidates, None)
        if s is None:
            raise InputError(f"candidates generate no group of order {order}")
        if s not in sub:
            kept.append(s)
            _install(sub, s, 0)
            _complete(sub)
    return kept


def orbit_stabilizer(gens, order, images, start, canon=None):
    """The orbit of `start`, a transversal and generators of its stabilizer.

    `images` holds the images of `gens` acting on points, sets or tuples,
    one row per generator, and `order` is |<gens>|.  Returns the
    `row_orbit` rows of the orbit, the `tree_products` of `gens` in their
    own degree along its tree (row r carries `start` to rows[r]), and
    the Schreier generators u_x g u_{xg}^-1, x-major then g, with u_{xg}^-1
    a row of the `_tree_inverses` of the same tree, reduced by
    `generate_to_order` to order // |orbit|.  InputError if |orbit| does
    not divide `order`; ResourceLimitError, before either matrix is
    allocated, if it would hold more than `_TRANSVERSAL_ENTRIES` entries."""
    gens = list(gens)
    if not gens:
        raise InputError("empty generator list has no degree")
    degree = gens[0].degree
    cap = max(1, _TRANSVERSAL_ENTRIES // degree)
    try:
        rows, action, tree = row_orbit(images, start, canon, min(order, cap))
    except ResourceLimitError:
        if order <= cap:
            raise InputError(f"orbit is larger than the group order {order}") from None
        raise
    if order % len(rows):
        raise InputError(f"orbit length {len(rows)} does not divide the group order {order}")
    gmat = image_matrix(gens, degree)
    trans, inv = tree_products(gmat, *tree), _tree_inverses(inverse_rows(gmat), *tree)
    schreier = (Permutation._wrap(inv[action[g, x]][gmat[g, trans[x]]].astype(np.int64))
                for x in range(len(rows)) for g in range(len(gens)))
    return rows, trans, generate_to_order(schreier, degree, order // len(rows))


def stabilizer_gens(chain: StabilizerChain, point: int):
    """Strong generators of the stabilizer of a point: the second level
    of a chain whose base starts at the point.  A chain with another
    first base point is rebuilt once with the point as base hint, and
    with its order as the bound that ends verification."""
    if not 0 <= point < chain.degree:
        raise InputError(f"point {point} out of range for degree {chain.degree}")
    if chain.base[:1] != [point]:
        chain = bsgs_build(chain.strong_generators(), chain.degree, base_hint=[point],
                           order=chain.order())
    return list(chain.levels[1].gens) if len(chain.levels) > 1 else []
