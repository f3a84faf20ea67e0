"""Incidence structures and 2-design machinery.

Verification is exhaustive counting: block sizes, per-point replication,
and per-pair coverage are all tallied directly, never inferred from the
arithmetic identities.  The identities are checked afterwards against
the counted values.

The block layer works on arrays.  A block orbit is a `(b, k)` array of
sorted blocks in the narrowest unsigned dtype that holds the points: the
`bsgs.row_orbit` of a block, with a row sort as canonical form.  `Design`
holds its blocks the same way, the rows in lexicographic order.

Designs that are one orbit of blocks are found by `block_search`.  For a
prime p dividing |G| but not b, each block stabilizer has order |G|/b
and so holds a Sylow p-subgroup, and some block is a union of cycles of
any given element of order p.  The prime whose element has the fewest
such unions is used, and only the orbits of those unions are built.
`orbit_block_search`, which tries every k-subset, is the exhaustive
reference it is tested against.  Flag-transitivity is read from one
`set_orbit` too: that of a block through a point under its stabilizer.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations
from math import comb

import numpy as np

from .actions import GroupAction, is_transitive
from .bsgs import StabilizerChain, bsgs_build, image_matrix, orbit, row_orbit, sorted_lookup
from .errors import DesignError, InputError, ParseError, ResourceLimitError
from .perm import point_dtype, row_keys

BLOCK_ORBIT_LIMIT = 2_000_000
SUBSET_ENUM_LIMIT = 1_000_000
PAIR_TABLE_SIZE = 1 << 22    # pair counters held at once by verify_2design
PAIR_CHUNK_SIZE = 1 << 20    # pair codes counted by one bincount call
TEXT_CHUNK_SIZE = 1 << 16    # block points formatted by one design_to_text step
_DIGITS_AND_SPACE = re.compile(r"[0-9\s]*")   # a design text line of points
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class ParameterSet:
    """(v, b, r, k, lambda) with the standard feasibility identities."""

    v: int
    b: int
    r: int
    k: int
    lam: int

    def check_identities(self):
        """The five feasibility conditions; raises on the first failure."""
        v, b, r, k, lam = self.v, self.b, self.r, self.k, self.lam
        if r * (k - 1) != lam * (v - 1):
            raise InputError(f"{self}: r(k-1) != lambda(v-1)")
        if v * r != b * k:
            raise InputError(f"{self}: vr != bk")
        if lam * v >= r * r:
            raise InputError(f"{self}: lambda*v >= r^2")
        if not (2 < k < v - 1):
            raise InputError(f"{self}: trivial (k outside 3..v-2)")

    def astuple(self):
        return (self.v, self.b, self.r, self.k, self.lam)

    def __str__(self):
        return f"({self.v}, {self.b}, {self.r}, {self.k}, {self.lam})"


@dataclass
class Design:
    """Point count plus the blocks as one `(b, k)` array of dtype
    `point_dtype(v)`, rows sorted and in lexicographic order, built from an
    array or from sequences of one length."""

    v: int
    blocks: np.ndarray

    def __post_init__(self):
        if self.v - 1 > _INT64.max:
            raise InputError(f"point {self.v - 1} does not fit int64")
        rows = self.blocks
        if not isinstance(rows, np.ndarray):
            rows = sorted(tuple(sorted(b)) for b in rows)
            k = len(rows[0]) if rows else 0
            odd = next((b for b in rows if len(b) != k), None)
            if odd is not None:
                raise InputError(f"not k-uniform: block sizes {k} and {len(odd)}")
            try:
                rows = np.array(rows, dtype=np.int64).reshape(len(rows), k)
            except OverflowError:
                big = next(x for b in rows for x in b if not _INT64.min <= x <= _INT64.max)
                raise InputError(f"point {big} does not fit int64") from None
        rows = np.sort(rows, axis=1)
        if rows.shape[1]:
            rows = rows[np.lexsort(rows.T[::-1])]
            outside = np.flatnonzero((rows[:, 0] < 0) | (rows[:, -1] >= self.v))
            if outside.size:
                b = tuple(rows[outside[0]].tolist())
                raise InputError(f"block {b} outside point range 0..{self.v - 1}")
        self.blocks = rows.astype(point_dtype(self.v))


@dataclass
class FlagReport:
    flag_transitive: bool
    r_witness: int


def verify_2design(design: Design) -> ParameterSet:
    """Exhaustively verify the 2-design axioms and return the counted
    parameters.  Raises DesignError with a witness on any failure; the
    witness is the first failing block, point or pair in lexicographic
    order."""
    v, rows = design.v, design.blocks
    if v < 3 or not len(rows):
        raise InputError("need v >= 3 and at least one block")
    repeats = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
    if repeats.size:
        dup = tuple(rows[repeats[0]].tolist())
        raise DesignError("repeated block {}", witness=dup, points=[dup])
    if v > rows.size:   # some point is in no block: find the least without v counters
        covered = np.unique(rows).astype(np.int64)
        x = int(np.searchsorted(covered - np.arange(len(covered)), 1))
        raise DesignError("point {} lies in no block", witness=x, points=[x])
    r_count = np.bincount(rows.ravel(), minlength=v)
    r = int(r_count[0])
    off = np.flatnonzero(r_count != r)
    if off.size:
        x = int(off[0])
        raise DesignError(
            f"replication not constant: r({{}})={r}, r({{}})={int(r_count[x])}",
            witness=(0, x), points=(0, x))
    params = ParameterSet(v, len(rows), r, rows.shape[1], _pair_coverage(rows, v))
    # counted values must satisfy the arithmetic identities
    if params.r * (params.k - 1) != params.lam * (params.v - 1):
        raise DesignError(f"counted parameters violate r(k-1)=lambda(v-1): {params}")
    if params.v * params.r != params.b * params.k:
        raise DesignError(f"counted parameters violate vr=bk: {params}")
    return params


def _pair_coverage(rows, v):
    """The number of blocks on each point pair, if it is constant.

    Each pair x < y of a block is counted under the code x*v + y.  The
    counters cover a band of first points x at a time, so at most
    PAIR_TABLE_SIZE of them are held, and the codes are made a chunk of
    blocks at a time.  An uncovered pair is reported before an unevenly
    covered one, each the first in lexicographic order."""
    b, k = rows.shape
    if k * (k - 1) // 2 > PAIR_CHUNK_SIZE:
        raise ResourceLimitError(f"block size {k} has more than {PAIR_CHUNK_SIZE} point pairs")
    first, second = np.triu_indices(k, 1)
    chunk = max(1, PAIR_CHUNK_SIZE // max(len(first), 1))
    band = max(1, PAIR_TABLE_SIZE // v)
    lam = uneven = None
    for x0 in range(0, v - 1, band):
        x1 = min(x0 + band, v - 1)
        counts = np.zeros((x1 - x0) * v, dtype=np.int64)
        for s in range(0, b, chunk):
            part = rows[s:s + chunk]
            xs, ys = part[:, first].ravel(), part[:, second].ravel()
            if x0 > 0 or x1 < v - 1:
                inside = (xs >= x0) & (xs < x1)
                xs, ys = xs[inside], ys[inside]
            counts += np.bincount((xs - x0).astype(np.int64) * v + ys, minlength=len(counts))
        counts = counts.reshape(x1 - x0, v)
        upper = np.arange(v)[None, :] > np.arange(x0, x1)[:, None]
        missing = np.flatnonzero(upper & (counts == 0))
        if missing.size:
            x, y = divmod(int(missing[0]), v)
            pair = (x0 + x, y)
            raise DesignError("pair {} lies in no block", witness=pair, points=[pair])
        if lam is None:
            lam = int(counts[0, 1])
        if uneven is None:
            off = np.flatnonzero(upper & (counts != lam))
            if off.size:
                x, y = divmod(int(off[0]), v)
                uneven = ((x0 + x, y), int(counts[x, y]))
    if uneven is not None:
        pair, c = uneven
        raise DesignError(
            f"pair coverage not constant: {{}} lies in {c} blocks", witness=pair,
            points=[pair])
    return lam


def set_orbit(gens, base_set, limit=None) -> np.ndarray:
    """Orbit of a point set under the generated group, as a `(b, k)`
    array of sorted rows in the narrowest unsigned dtype that holds the
    points, in `row_orbit` order from the sorted base set.  None of the
    callers tolerate an unbounded blowup, so ResourceLimitError is raised
    as soon as the orbit would exceed `limit` rows (BLOCK_ORBIT_LIMIT when
    not given), and InputError for a base point outside the generators'
    degree."""
    base = [int(x) for x in base_set]
    n = max((g.degree for g in gens), default=max(base, default=0) + 1)
    for x in base:
        if not 0 <= x < n:
            raise InputError(f"point {x} out of range for degree {n}")
    limit = BLOCK_ORBIT_LIMIT if limit is None else limit
    return row_orbit(image_matrix(gens, n), base, partial(np.sort, axis=1), limit)[0]


def coset_geometry(G: StabilizerChain, point_action: GroupAction, K_gens) -> Design:
    """Design with base block the K-orbit of point 0 and block set its
    orbit under the point action (cosets of H against cosets of K,
    incidence by nonempty intersection)."""
    K_gens = list(K_gens)
    for kgen in K_gens:
        if kgen not in G:
            raise InputError("K is not a subgroup of G: generator outside G")
    K_images = [point_action.image_of(kgen) for kgen in K_gens]
    base_block = tuple(sorted(orbit(K_images, 0, point_action.degree)))
    if len(base_block) == point_action.degree:
        raise InputError("K-orbit of the base point is the whole point set")
    k_order = bsgs_build(K_gens, G.degree).order()
    if k_order % len(base_block):
        raise InputError(
            f"|K|={k_order} is not a multiple of the base block size {len(base_block)}")
    blocks = set_orbit(point_action.generators, base_block)
    return Design(point_action.degree, blocks)


def block_stabilizer_order(point_action: GroupAction, design: Design) -> int:
    """|G_B| for the first block, via orbit-stabilizer on the block orbit."""
    if design.v != point_action.degree:
        raise InputError(f"design on {design.v} points, action on {point_action.degree}")
    blocks = set_orbit(point_action.generators, design.blocks[0])
    return point_action.order // len(blocks)


def orbit_block_search(A: GroupAction, target: ParameterSet) -> list[Design]:
    """All A-orbits of k-subsets that verify as 2-designs with the target
    parameters, by exhaustive enumeration of k-subsets: the reference
    that `block_search` is tested against.  Orbits are started from the
    first k-subset in lexicographic order not yet reached; reached
    subsets are marked by their colex rank, the sum of C(c_i, i) over the
    sorted points c_1 < ... < c_k."""
    n, k = A.degree, target.k
    if target.v != n:
        raise InputError(f"target has v={target.v}, the action has degree {n}")
    total = comb(n, k)
    if total > SUBSET_ENUM_LIMIT:
        raise ResourceLimitError(
            f"C({n},{k}) = {total} exceeds the enumeration bound {SUBSET_ENUM_LIMIT}; "
            "use block_search, which enumerates unions of cycles of a p-element")
    binom = np.array([[comb(x, i) for i in range(1, k + 1)] for x in range(n)],
                     dtype=np.int64).reshape(n, k)
    columns = np.arange(k)

    def colex_rank(rows):
        return binom[rows, columns].sum(axis=1)

    subsets = _combination_rows(n, k)
    lex_rank = colex_rank(subsets)
    reached = np.zeros(total, dtype=bool)
    found = []
    start = 0
    while True:
        todo = np.flatnonzero(~reached[lex_rank[start:]])
        if not todo.size:
            return found
        start += int(todo[0])
        ob = set_orbit(A.generators, subsets[start].tolist())
        reached[colex_rank(ob)] = True
        if len(ob) != target.b:
            continue
        design = Design(n, ob)
        try:
            params = verify_2design(design)
        except DesignError:
            continue
        if params == target:
            found.append(design)


def block_search(A: GroupAction, target: ParameterSet) -> list[Design]:
    """All A-orbits of k-sets that verify as 2-designs with the target
    parameters, ordered by their least block.

    Let p be a prime that divides |A| but not b.  A design that is an
    A-orbit has |A_B| = |A|/b for each block B, so A_B holds a Sylow
    p-subgroup of A.  An element g of order p lies in some Sylow
    p-subgroup, so some block is g-invariant: a union of cycles of g,
    fixed points included.  Building the orbit of every such union of k
    points therefore finds every design (Kramer and Mesner, "t-designs
    on hypergraphs", 1976, for the orbit model).

    For each such p, g is the power of order p of the first element, in
    draws from a fixed-seed generator, whose order p divides; at least
    1/n of the elements of a permutation group of degree n qualify
    (Isaacs, Kantor and Spaltenstein, 1995).  The prime whose g has the
    fewest unions, sum over m of C(cycles, m) * C(fixed, k - m p), is
    used.  InputError is raised when b does not divide |A| or no prime
    qualifies, and ResourceLimitError when the unions exceed
    SUBSET_ENUM_LIMIT, both before any orbit is built.  An orbit is
    abandoned once it exceeds b sets, and a union already inside an orbit
    built before is skipped."""
    n, b, k = A.degree, target.b, target.k
    if target.v != n:
        raise InputError(f"target has v={target.v}, the action has degree {n}")
    order = A.order
    if order % b:
        raise InputError(f"b={b} does not divide |A|={order}")
    primes = [p for p, _ in prime_factors(order) if b % p]
    if not primes:
        raise InputError(f"every prime dividing |A|={order} divides b={b}")
    rng = random.Random(0)
    elements = [_element_of_order(A.chain, p, rng) for p in primes]
    counts = [_union_count(g, k) for g in elements]
    count = min(counts)
    g = elements[counts.index(count)]
    if count > SUBSET_ENUM_LIMIT:
        raise ResourceLimitError(
            f"{count} unions of cycles exceed the enumeration bound {SUBSET_ENUM_LIMIT}")
    if not count:
        return []
    unions = _cycle_unions(g, k)
    keys = row_keys(unions)
    todo = np.ones(len(unions), dtype=bool)
    found = []
    while todo.any():
        start = int(np.flatnonzero(todo)[0])
        todo[start] = False
        try:
            ob = set_orbit(A.generators, unions[start], limit=b)
        except ResourceLimitError:
            continue
        todo &= ~sorted_lookup(np.sort(row_keys(ob)), keys)[1]
        if len(ob) != b:
            continue
        design = Design(n, ob)
        try:
            params = verify_2design(design)
        except DesignError:
            continue
        if params == target:
            found.append(design)
    return sorted(found, key=lambda d: d.blocks[0].tolist())


def prime_factors(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] with p ascending and n the product of the p**e, by
    trial division by 2 and then by odd p while p*p <= n; what is left of
    n after that is 1 or a prime."""
    if n < 1:
        raise InputError(f"cannot factor {n}")
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _element_of_order(chain: StabilizerChain, p, rng):
    """An element of order p, the power of the first drawn element whose
    order p divides."""
    while True:
        g = chain.element_at(rng.randrange(chain.order()))
        m = g.order()
        if m % p == 0:
            return g ** (m // p)


def _union_count(g, k):
    """The number of k-sets that are unions of cycles of g, which has prime
    order p."""
    cycles = g.cycles()
    fixed = g.degree - sum(map(len, cycles))
    p = len(cycles[0])
    return sum(comb(len(cycles), m) * comb(fixed, k - m * p) for m in range(k // p + 1))


def _cycle_unions(g, k):
    """Every k-set that is a union of cycles of g, of prime order p, as
    sorted rows: m of its p-cycles and k - m p of its fixed points, in a
    (0, k) array when there is none."""
    cycles = np.array(g.cycles())
    fixed = np.flatnonzero(g.images == np.arange(g.degree))
    p = cycles.shape[1]
    parts = [np.empty((0, k), dtype=fixed.dtype)]
    for m in range(min(len(cycles), k // p) + 1):
        if k - m * p > len(fixed):
            continue
        chosen = _combination_rows(len(cycles), m)
        moved = cycles[chosen].reshape(len(chosen), m * p)
        still = fixed[_combination_rows(len(fixed), k - m * p)]
        parts.append(np.concatenate([np.repeat(moved, len(still), axis=0),
                                     np.tile(still, (len(moved), 1))], axis=1))
    return np.sort(np.concatenate(parts), axis=1).astype(point_dtype(g.degree))


def _combination_rows(n, r):
    """The r-subsets of range(n) in lexicographic order, one per row, in
    the narrowest unsigned dtype that holds the points."""
    total = comb(n, r)
    return np.fromiter(chain.from_iterable(combinations(range(n), r)),
                       dtype=point_dtype(n), count=total * r).reshape(total, r)


def is_flag_transitive(A: GroupAction, design: Design) -> FlagReport:
    """Whether A is transitive on the flags (point, block) of the design.

    First each generator must map the blocks onto blocks, else InputError.
    Then A must be transitive on the points, and the stabilizer G_alpha of
    a point alpha on the r blocks through alpha.  G_alpha permutes those
    blocks, so the `set_orbit` of one of them under G_alpha cannot pass r
    rows, and has r rows exactly when it is all of them."""
    if design.v != A.degree:
        raise InputError(f"design on {design.v} points, action on {A.degree}")
    dtype = point_dtype(A.degree)
    rows = design.blocks.astype(dtype, copy=False)
    keys = np.sort(row_keys(rows))
    for g in A.generators:
        _, hit = sorted_lookup(keys, row_keys(np.sort(g.images.astype(dtype)[rows], axis=1)))
        if not hit.all():
            b = tuple(rows[int(np.flatnonzero(~hit)[0])].tolist())
            raise InputError(
                f"generator {g!r} maps block {b} outside the design")
    if not is_transitive(A):
        return FlagReport(False, 0)
    alpha, alpha_stab = A.base_stabilizer()
    through = rows[(rows == alpha).any(axis=1)]
    r = len(through)    # no block, so no flag: vacuously flag-transitive
    return FlagReport(not r or len(set_orbit(alpha_stab, through[0], limit=r)) == r, r)


@dataclass
class SuzukiConstruction:
    """The ovoid design together with what its construction verified."""

    action: GroupAction
    design: Design
    params: ParameterSet
    flags: FlagReport


def suzuki_construction(q: int) -> SuzukiConstruction:
    """Build and verify the ovoid design 2-(q^2+1, q(q^2+1), q^2, q, q-1)
    under Sz(q) on the ovoid.

    Each block is a circle less its distinguished point, the one point
    the circle's stabilizer fixes.  The base block is the plane section
    x_1 = 0, the points (0:0:0:1) and (1:0:t:t^sigma), less (0:0:0:1).
    The translations (0, b) and the torus fix the section and (0:0:0:1),
    and the circles are one orbit of q(q^2+1), so the section's stabilizer
    is that group of order q(q-1) = |G|/b and (0:0:0:1) is its
    distinguished point.  Less any other point the section would have a
    stabilizer of order q-1 and an orbit of q^2(q^2+1) blocks, so the
    counted b of `verify_2design`, checked against `suzuki_params`,
    confirms the choice.  q is checked for its shape, for q-1 prime and
    for the block count before anything is built."""
    from .families import suzuki_params
    from .suzuki import circles, ovoid_points, suzuki_action

    expected = suzuki_params(q)
    if not expected.condition_holds:
        raise InputError(f"q-1 = {q - 1} is not (Mersenne) prime")
    if expected.params.b > BLOCK_ORBIT_LIMIT:
        raise ResourceLimitError(
            f"q={q} gives {expected.params.b} blocks, more than the block orbit "
            f"limit {BLOCK_ORBIT_LIMIT}")
    act = suzuki_action(q)
    ov = ovoid_points(q)
    circ = circles(q, ov)
    if not np.array_equal(np.sort(row_keys(set_orbit(act.generators, circ[0]))),
                          np.sort(row_keys(circ))):
        raise DesignError("circle set is not a single orbit")

    base = [i for i, x in enumerate(ov.points) if x[:2] == (1, 0)]
    design = Design(act.degree, set_orbit(act.generators, base))
    params = verify_2design(design)
    if params != expected.params:
        raise DesignError(f"unexpected parameters {params}")
    report = is_flag_transitive(act, design)
    if not report.flag_transitive:
        raise DesignError("ovoid design is not flag-transitive under Sz(q)")
    return SuzukiConstruction(act, design, params, report)


def suzuki_design(q: int) -> Design:
    """The ovoid design 2-(q^2+1, q, q-1), each block a circle less its
    distinguished point, built and verified by `suzuki_construction`."""
    return suzuki_construction(q).design


# ---------------------------------------------------------------------------
# isomorphism testing


def iso_check(d1: Design, d2: Design) -> bool:
    """Whether some point bijection maps the blocks of d1 onto those of d2.

    Individualisation and refinement (McKay and Piperno, 2014) on the
    incidence of both designs at once, the points of d2 after those of d1
    in one colour array.  Refinement gives each block the sorted colours
    of its points and each point its colour and the sorted colours of its
    blocks, ranked over both designs, until the number of colours stops
    growing; a branch ends when the designs have different colour counts.
    Then the first point of d1 in the first cell of several points gets a
    new colour, together with each point of d2 in that cell in turn.  A
    colouring with one point of each design per colour is a bijection,
    accepted if it maps the blocks of d1 onto those of d2."""
    v, (b, k) = d1.v, d1.blocks.shape
    if d2.v != v or len(d2.blocks) != b or d2.blocks.size != d1.blocks.size:
        return False
    if not d1.blocks.size:    # no incidences: every bijection will do
        return True
    block_points = np.concatenate([d1.blocks, d2.blocks.astype(point_dtype(2 * v)) + v])
    points = block_points.ravel()
    block_of = (np.argsort(points, kind="stable") // k).astype(point_dtype(2 * b + 1))
    point_blocks = _padded(np.bincount(points, minlength=2 * v), block_of, 2 * b)

    def refine(colour):
        while True:
            block_colour = _ranks(np.sort(colour[block_points], axis=1))
            through = np.sort(_with_pad(block_colour)[point_blocks], axis=1)
            finer = _ranks(np.column_stack([colour, through]))
            if not np.array_equal(np.sort(finer[:v]), np.sort(finer[v:])):
                return None
            if finer.max(initial=0) == colour.max(initial=0):
                return finer
            colour = finer

    def individualised(colour, x, ys):
        for y in ys:
            split = colour.copy()
            split[[x, y]] = colour.max() + 1
            yield split

    target = np.sort(row_keys(d2.blocks))
    stack = [iter([np.zeros(2 * v, dtype=point_dtype(2 * v + 1))])]
    while stack:
        colour = next(stack[-1], None)
        if colour is None:
            stack.pop()
            continue
        colour = refine(colour)
        if colour is None:
            continue
        cells = np.flatnonzero(np.bincount(colour[:v]) > 1)
        if cells.size:
            x = int(np.flatnonzero(colour[:v] == cells[0])[0])
            stack.append(individualised(colour, x, v + np.flatnonzero(colour[v:] == cells[0])))
            continue
        image = np.argsort(colour[v:])[colour[:v]].astype(d2.blocks.dtype)
        if np.array_equal(np.sort(row_keys(np.sort(image[d1.blocks], axis=1))), target):
            return True
    return False


def _padded(counts, values, pad):
    """Row i holds the next counts[i] of `values`, in order, padded on the
    right with `pad`, in the dtype of `values` (which must hold `pad`)."""
    out = np.full((len(counts), max(1, counts.max(initial=0))), pad, dtype=values.dtype)
    out[np.arange(out.shape[1]) < counts[:, None]] = values
    return out


def _ranks(rows):
    """Equal ranks for equal rows, and distinct ones for distinct rows, in
    the narrowest unsigned dtype that holds one value more than the ranks."""
    ranks = np.unique(row_keys(rows), return_inverse=True)[1]
    return ranks.astype(point_dtype(len(rows) + 1))


def _with_pad(colour):
    """The colours followed by the pad, the largest value of their dtype,
    which no colour takes."""
    return np.append(colour, np.iinfo(colour.dtype).max).astype(colour.dtype)


# ---------------------------------------------------------------------------
# text format


def design_to_text(design: Design) -> str:
    """Canonical text form: `v <n>` then one block per line, 1-indexed,
    formatted TEXT_CHUNK_SIZE points at a time."""
    blocks = design.blocks
    step = max(1, TEXT_CHUNK_SIZE // max(1, blocks.shape[1]))
    # int64, since uint8 would wrap at v = 256
    chunks = (blocks[lo:lo + step].astype(np.int64) + 1 for lo in range(0, len(blocks), step))
    return f"v {design.v}\n" + "".join(" ".join(map(str, row)) + "\n"
                                       for rows in chunks for row in rows.tolist())


def design_from_text(text: str) -> Design:
    """Parse the text form of `design_to_text`.  Malformed text raises
    ParseError with the number of the offending line."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    header = lines[0][1].split() if lines else []
    if len(header) != 2 or header[0] != "v":
        raise ParseError("design text must start with a `v <n>` line",
                         line=lines[0][0] if lines else None)
    if not _DIGITS_AND_SPACE.fullmatch(header[1]):
        raise _not_an_integer(header[1], lines[0][0])
    try:
        v = int(header[1])
    except ValueError:
        raise _past_int_limit(header[1], lines[0][0]) from None
    if v < 3:
        raise ParseError(f"a 2-design needs v >= 3, not {v}", line=lines[0][0])
    if v - 1 > _INT64.max:   # points are held 0-indexed in int64
        raise ParseError(f"point {v} does not fit int64", line=lines[0][0])
    # one match over all block lines; only when it fails is the line sought
    bad_line = None
    if not _DIGITS_AND_SPACE.fullmatch(" ".join(ln for _, ln in lines[1:])):
        bad_line = next(no for no, ln in lines[1:] if not _DIGITS_AND_SPACE.fullmatch(ln))
    blocks = []
    for no, ln in lines[1:]:
        if no == bad_line:
            raise _not_an_integer(ln, no)
        try:
            block = [int(tok) - 1 for tok in ln.split()]
        except ValueError:
            raise _past_int_limit(ln, no) from None
        outside = next((x + 1 for x in block if not 0 <= x < v), None)
        if outside is not None:
            raise ParseError(f"point {outside} outside 1..{v}", line=no)
        if len(set(block)) != len(block):
            raise ParseError("a point is repeated in the block", line=no)
        if blocks and len(block) != len(blocks[0]):
            raise ParseError(
                f"not k-uniform: block sizes {len(blocks[0])} and {len(block)}", line=no)
        blocks.append(block)
    if not blocks:
        raise ParseError("the design has no blocks")
    return Design(v, blocks)


def _not_an_integer(text, line):
    """ParseError naming the first token of `text` that is not ASCII digits."""
    bad = next(tok for tok in text.split() if not (tok.isascii() and tok.isdigit()))
    return ParseError(f"not an integer: {bad!r}", line=line)


def _past_int_limit(text, line):
    """ParseError naming the longest token of `text`, a line of ASCII digits
    that `int` refused: one token runs past its conversion limit."""
    return ParseError(f"not an integer: {max(text.split(), key=len)!r}", line=line)
