"""Stabilizer chains (base and strong generating set) for permutation groups.

The construction is the deterministic Schreier-Sims algorithm: no
randomization anywhere, so identical generator lists always produce
identical chains.

Storage.  A level keeps its orbit as an index array in `row_orbit`
order, a point -> row lookup into it (-1 off the orbit), and its
transversal as one (|orbit|, degree) matrix in the narrowest unsigned
dtype that holds the points (`perm.point_dtype`): row r maps the base
point to orbit[r], and row 0 is the identity.  The matrix of inverse rows
sits beside it, because sifting multiplies by u^-1.  A level whose orbit
is only its base point has no lookup and shares one identity row.

Batching.  The Schreier generators u_x g u_{xg}^-1 of a level are formed
as rows, by gathers, for a batch of (x, g) pairs in x-major order, and
the whole batch is sifted through the lower levels, one level at a time.
The first pair whose residue is not the identity gives the next strong
generator, so the chain is the one that sifting one pair at a time
gives.  A batch holds at most `_BATCH_ENTRIES` image entries; it starts
at one row and doubles, so a pair that fails early wastes little.

Resumable verification.  Levels are verified bottom first.  A residue
found at level i is installed below it and leaves level i's generators
as they were, so level i keeps its orbit and transversal and resumes at
the pair that failed: the earlier pairs sifted to the identity through a
subgroup of the new lower group, and still do.  A level whose generators
changed is rebuilt and verified from its first pair.  A level whose orbit
is only its base point is complete at once: its Schreier generators are
its generators, which `_install` has put on the level below.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError, ResourceLimitError
from .perm import Permutation, point_dtype, row_keys

__all__ = ["StabilizerChain", "bsgs_build", "contains", "orbit", "orbits",
           "orbit_transversal", "row_orbit", "stabilizer_gens"]

# image entries per batch: bounds every (rows, width) temporary
_BATCH_ENTRIES = 1 << 18


class _Level:
    """One level of the chain: a base point, its strong generators, and
    its orbit with the transversal and inverse-transversal matrices."""

    __slots__ = ("point", "gens", "orbit", "rows", "trans", "inv", "_built", "_resume")

    def __init__(self, point):
        self.point = point
        self.gens: list[Permutation] = []  # generators fixing all earlier base points
        self.orbit = self.rows = self.trans = self.inv = None
        self._built = -1   # len(gens) when the orbit was last built
        self._resume = 0   # first (x, g) pair not yet known to sift to the identity

    def rebuild(self, chain):
        self._built, self._resume = len(self.gens), 0
        self.orbit = self.rows = self.trans = self.inv = None  # free the old matrices first
        if all(g.images[self.point] == self.point for g in self.gens):
            self.orbit = np.array([self.point], dtype=np.intp)
            self.trans = self.inv = chain._identity_row
            return
        self.orbit, self.rows, self.trans = orbit_transversal(self.gens, self.point, chain.degree)
        self.inv = np.empty_like(self.trans)
        step = _batch_rows(chain.degree)
        values = np.arange(chain.degree, dtype=chain.dtype)
        for lo in range(0, len(self.orbit), step):
            part = self.trans[lo:lo + step]
            self.inv[lo:lo + step][np.arange(len(part))[:, None], part] = values


class StabilizerChain:
    """A base and strong generating set for a permutation group."""

    def __init__(self, degree):
        self.degree = degree
        self.dtype = point_dtype(degree)
        self.levels: list[_Level] = []
        self._identity_row = np.arange(degree, dtype=self.dtype)[None, :]
        self._identity_row.setflags(write=False)

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
        img = p.images
        for i, lvl in enumerate(self.levels):
            x = int(img[lvl.point])
            if x == lvl.point:
                continue
            row = -1 if lvl.rows is None else int(lvl.rows[x])
            if row < 0:
                return _residue(p, img), i
            img = lvl.inv[row][img]
        return _residue(p, img), len(self.levels)

    def __contains__(self, p):
        residue, _ = self.sift(p)
        return residue.is_identity()

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
            g = lvl.trans[r][g]
        return Permutation._wrap(g.astype(np.int64))


def _residue(p, img):
    return p if img is p.images else Permutation._wrap(img.astype(np.int64))


def _batch_rows(degree):
    return max(1, _BATCH_ENTRIES // max(1, degree))


def bsgs_build(gens, degree=None, base_hint=None) -> StabilizerChain:
    """Deterministic Schreier-Sims over the given generators.

    Without a hint, each new base point is the smallest point moved by
    the strong generator that forced the level, which yields an
    ascending base.  ``base_hint`` forces a base prefix of distinct
    points (used where a chain relative to the natural point order
    0,1,2,... is required); hinted levels with trivial orbits are pruned
    afterwards.
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
    """Sift the Schreier generators of level i through the lower chain,
    a batch of (orbit point, generator) pairs at a time, from the pair
    where the last verification of the level stopped.

    On failure the residue of the first failing pair is installed as a
    new strong generator and the level index to re-verify from is
    returned; None means level i is complete.
    """
    lvl = chain.levels[i]
    if lvl._built != len(lvl.gens):
        lvl.rebuild(chain)
    if lvl.rows is None:
        return None
    k = len(lvl.gens)
    gmat = image_matrix(lvl.gens, chain.degree)
    pairs = len(lvl.orbit) * k
    cap, step = _batch_rows(chain.degree), 1
    start = lvl._resume
    while start < pairs:
        xr, gi = np.divmod(np.arange(start, min(start + step, pairs)), k)
        yr = lvl.rows[gmat[gi, lvl.orbit[xr]]]
        # row m is u_x g u_y^-1 for the pair (x, g) with y = xg
        res = lvl.inv[yr[:, None], gmat[gi[:, None], lvl.trans[xr]]]
        through = _strip(chain.levels, i + 1, res)
        failed = ~through | (res != chain._identity_row).any(axis=1)
        if failed.any():
            first = int(failed.argmax())
            lvl._resume = start + first
            return _install(chain, Permutation._wrap(res[first].astype(np.int64)), i + 1)
        start += len(res)
        step = min(2 * step, cap)
    lvl._resume = pairs
    return None


def _strip(levels, first, res):
    """Sift the rows of `res` in place through levels[first:], one level
    at a time.  A row that reaches a level whose orbit misses the row's
    image of the base point stays as it is there.  Returns a mask of the
    rows that went through every level."""
    through = np.ones(len(res), dtype=bool)
    live = np.arange(len(res))
    j, n = first, len(levels)
    while j < n and live.size:
        if levels[j].rows is None:
            # a run of one-point orbits: a row stops at the first base point it moves
            k = j + 1
            while k < n and levels[k].rows is None:
                k += 1
            points = np.array([lvl.point for lvl in levels[j:k]], dtype=np.intp)
            moved = (res[live[:, None], points] != points).any(axis=1)
            through[live[moved]] = False
            live = live[~moved]
            j = k
            continue
        lvl = levels[j]
        rows = lvl.rows[res[live, lvl.point]]
        through[live[rows < 0]] = False
        live, rows = live[rows >= 0], rows[rows >= 0]
        moving = rows > 0          # row 0 is the identity
        if moving.any():
            sel = live[moving]
            res[sel] = lvl.inv[rows[moving][:, None], res[sel]]
        j += 1
    return through


def contains(chain: StabilizerChain, p: Permutation) -> bool:
    """Membership by sifting."""
    return p in chain


def row_orbit(images, start, canon=None, limit=None, key=None):
    """Orbit of a row under generators acting entrywise, row -> img[row].

    `images` holds the k generators' images of n points.  `canon` maps an
    (m, width) array of rows to canonical rows (a row sort for point sets,
    coset representatives for permutations), and `start` and every image
    go through it.  `key` maps rows to keys, equal exactly for equal rows
    (by default the point of a one-point row, else `perm.row_keys`).
    Returns the orbit as rows in the dtype of `images` and the (k, m) intp
    array `action`: action[g, i] is the index of row i's image under g.

    Rows come in first-reach order of a first-in first-out queue taking
    one row, then one generator, at a time: breadth first, and `bfs_tree`
    reads the tree off `action`.  The keys found are kept sorted with their
    rows' indices.  A batch of images, at most `_BATCH_ENTRIES` entries
    from the next rows of the queue, looks its distinct keys up there, and
    the new ones are merged in at once; the result does not depend on the
    bound.  Rows are reserved at `limit` (n by default, the bound for an
    orbit of points; only pages written count), and ResourceLimitError is
    raised once the orbit would exceed it."""
    images = np.asarray(images)
    k, width = len(images), len(start)
    limit = images.shape[1] if limit is None else limit
    canon = canon or (lambda rows: rows)
    key = key or ((lambda rows: rows[:, 0]) if width == 1 else row_keys)
    rows = np.empty((max(limit, 1), width), dtype=images.dtype)
    rows[0] = start
    rows[:1] = canon(rows[:1])
    seen, label, action = key(rows[:1]), np.zeros(1, dtype=np.intp), []
    step, q, found = max(1, _BATCH_ENTRIES // max(1, k * width)), 0, 1
    while k and q < found:
        cand = canon(images[:, rows[q:min(q + step, found)]].swapaxes(0, 1).reshape(-1, width))
        keys, first, inverse = np.unique(key(cand), return_index=True, return_inverse=True)
        pos, hit = sorted_lookup(seen, keys)
        labels = label.take(pos, mode="clip")       # right where hit
        new = np.flatnonzero(~hit)
        if len(new):
            if found + len(new) > len(rows):
                raise ResourceLimitError(f"orbit exceeds limit {limit}")
            reach = new[np.argsort(first[new])]    # the new rows in first-reach order
            labels[reach] = np.arange(found, found + len(new))
            rows[found:found + len(new)] = cand[first[reach]]
            found += len(new)
            at = pos[new] + np.arange(len(new))    # their places once merged
            keep = np.ones(len(seen) + len(new), dtype=bool)
            keep[at], merged = False, []
            for old, add in ((seen, keys[new]), (label, labels[new])):
                merged.append(np.empty(len(keep), dtype=old.dtype))
                merged[-1][at], merged[-1][keep] = add, old
            seen, label = merged
        action.append(labels[inverse].reshape(-1, k))
        q += len(action[-1])
    action = np.concatenate(action).T if action else np.empty((k, found), dtype=np.intp)
    return rows[:found], np.ascontiguousarray(action)


def sorted_lookup(seen, keys):
    """Insertion positions of `keys` in the sorted array `seen`, and hits."""
    pos = np.searchsorted(seen, keys)
    # a key past the end is above seen[-1], so the clipped compare is False
    return pos, seen.take(pos, mode="clip") == keys


def bfs_tree(action):
    """The row and the generator that first reach each row of a `row_orbit`,
    (-1, -1) at the root, read off its `action`; parents are nondecreasing."""
    _, first = np.unique(action.T.ravel(), return_index=True)
    parent, via = np.divmod(first, max(len(action), 1))
    parent[:1] = via[:1] = -1
    return parent, via


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
    each in `row_orbit` order from its least point."""
    images, reached, out = image_matrix(gens, degree), np.zeros(degree, dtype=bool), []
    for p in range(degree):
        if not reached[p]:
            rows, _ = row_orbit(images, [p])
            reached[rows[:, 0]] = True
            out.append(rows[:, 0].tolist())
    return out


def orbit_transversal(gens, point, degree):
    """Orbit of a point in `row_orbit` order (intp), the row of each point
    in it (-1 off the orbit), and the (|orbit|, degree) transversal matrix
    in `point_dtype(degree)`: row r maps point to orbit[r], and is its
    parent's row in `bfs_tree` followed by the generator reaching it."""
    images = image_matrix(gens, degree)
    orb, action = row_orbit(images, [point])
    orb = orb[:, 0].astype(np.intp)
    rows = np.full(degree, -1, dtype=np.min_scalar_type(-degree))
    rows[orb] = np.arange(len(orb))
    trans = np.empty((len(orb), degree), dtype=images.dtype)
    trans[0] = np.arange(degree)
    (parent, via), step, lo = bfs_tree(action), _batch_rows(degree), 1
    while lo < len(orb):
        # rows lo..hi-1 have their parents before lo, which are filled
        hi = min(lo + step, int(np.searchsorted(parent, lo)))
        trans[lo:hi] = images[via[lo:hi, None], trans[parent[lo:hi]]]
        lo = hi
    return orb, rows, trans


def stabilizer_gens(chain: StabilizerChain, point: int):
    """Strong generators of the stabilizer of a point: the second level
    of a chain whose base starts at the point.  A chain with another
    first base point is rebuilt once with the point as base hint."""
    if not 0 <= point < chain.degree:
        raise InputError(f"point {point} out of range for degree {chain.degree}")
    if chain.base[:1] != [point]:
        chain = bsgs_build(chain.strong_generators(), chain.degree, base_hint=[point])
    return list(chain.levels[1].gens) if len(chain.levels) > 1 else []
