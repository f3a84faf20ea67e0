"""Rebuild the bundled generator catalog from first principles.

Every permutation group in ftdesigns/data/catalog.txt is derived here
from formula-level ingredients: linear-fractional maps for the large
Mathieu group, card-shuffle permutations for M12, a 7x7 matrix pair
over GF(11) for J1, and two strongly regular graphs (100 and 275
vertices) whose automorphism groups deliver HS and McL.  Subgroups are
extracted as stabilizers of explicit combinatorial objects.

Orbits, transporters and stabilizers come from `bsgs.orbit_stabilizer`,
`bsgs.generate_to_order`, `bsgs.orbit`, `designs.set_orbit` and
`actions.coset_action`; only `proj_orbit`, on GF(11) vectors, is the demo's.

Run:  python demos/rebuild_catalog.py
The script compares the rebuilt catalog text with the bundled file and
fails unless the two are identical.
"""
import time
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from ftdesigns.actions import coset_action
from ftdesigns.bsgs import bsgs_build, generate_to_order, image_matrix, orbit, orbit_stabilizer
from ftdesigns.designs import set_orbit
from ftdesigns.groupdata import parse_catalog, validate_entry
from ftdesigns.perm import Permutation, compose, format_cycles, inverse

T0 = time.time()


def log(msg):
    print(f"[{time.time()-T0:6.1f}s] {msg}")


# --- small helpers ----------------------------------------------------------

def restrict(p, points):
    index = {pt: i for i, pt in enumerate(points)}
    return Permutation([index[p(pt)] for pt in points])


def set_image(p, s):
    return tuple(sorted(int(p.images[x]) for x in s))


sort_rows = partial(np.sort, axis=1)


def stabilizer(gens, order, x0, canon=None):
    """Reduced Schreier generators of the stabilizer of a point, set or
    tuple x0 in the group of the given order."""
    return orbit_stabilizer(gens, order, image_matrix(gens, gens[0].degree), x0, canon)[2]


def element_mapping(chain, src, dst):
    """A group element mapping the tuple src to dst: the transversal row
    of dst in the orbit of src."""
    gens = chain.strong_generators()
    rows, trans, _ = orbit_stabilizer(gens, chain.order(),
                                      image_matrix(gens, chain.degree), src)
    hit = np.flatnonzero((rows == dst).all(axis=1))
    assert len(hit), "tuples are not in one orbit"
    return Permutation(trans[hit[0]])


# --- the 24-point construction ---------------------------------------------
# Points 0..22 are the residues mod 23, point 23 is infinity.  The maps
# t -> t+1 and t -> -1/t generate the linear-fractional group; adding the
# quartic-residue map t -> t^3/9 (squares) / 9t^3 (non-squares) produces
# the full quintuply transitive group of order 244823040.

INF = 23
QR = {pow(i, 2, 23) for i in range(1, 23)}
INV9 = pow(9, 21, 23)


def mk24(fn):
    return Permutation([fn(x) for x in range(24)])


alpha = mk24(lambda x: INF if x == INF else (x + 1) % 23)
gamma = mk24(lambda x: 0 if x == INF else (INF if x == 0 else (-pow(x, 21, 23)) % 23))
delta = mk24(lambda x: x if x in (INF, 0)
             else (pow(x, 3, 23) * INV9) % 23 if x in QR
             else (9 * pow(x, 3, 23)) % 23)
m24_gens = [alpha, gamma, delta]
ch24 = bsgs_build(m24_gens)
assert ch24.order() == 244823040
log("M24 built from linear-fractional + quartic maps")

m23_gens24 = stabilizer(ch24.strong_generators(), ch24.order(), [INF])
m23_gens = [restrict(g, range(23)) for g in m23_gens24]
ch23 = bsgs_build(m23_gens, 23)
assert ch23.order() == 10200960
ch23_24 = bsgs_build(m23_gens24, 24)
m22_gens24 = stabilizer(ch23_24.strong_generators(), ch23_24.order(), [22])
m22_gens = [restrict(g, range(22)) for g in m22_gens24]
assert bsgs_build(m22_gens, 22).order() == 443520
swap = element_mapping(ch24, (22, INF), (INF, 22))
m222_gens = m22_gens + [restrict(swap, range(22))]
assert bsgs_build(m222_gens, 22).order() == 887040
log("M23, M22, M22:2 extracted as stabilizers")

# One octad: the five-point stabilizer fixes a 3-point orbit whose union
# with the five points is a block of the quintuple system.
forced = bsgs_build(m24_gens, 24, base_hint=[0, 1, 2, 3, 4])
fixing = [g for g in forced.strong_generators() if all(g(i) == i for i in range(5))]
three = next(sorted(orbit(fixing, p, 24)) for p in range(5, 24)
             if len(orbit(fixing, p, 24)) == 3)
octad0 = tuple(sorted([0, 1, 2, 3, 4] + three))
octads = set_orbit(m24_gens, octad0).tolist()
assert len(octads) == 759
blocks23 = sorted(tuple(x for x in o if x != INF) for o in octads if INF in o)
hexads = sorted(tuple(x for x in b if x != 22) for b in blocks23 if 22 in b)
heptads = sorted(b for b in blocks23 if 22 not in b)
assert len(blocks23) == 253 and len(hexads) == 77 and len(heptads) == 176
dode = next(tuple(sorted(set(octad0) ^ set(o))) for o in octads
            if len(set(octad0) & set(o)) == 2)
dodecads = set_orbit(m24_gens, dode).tolist()
assert len(dodecads) == 2576
log("759 octads, 77 hexads, 176 heptads, 2576 dodecads")

# M23 subgroups: a point-pair stabilizer, a heptad stabilizer, and the
# stabilizer of a 12-point special set through the fixed point.
pair_pt = [g for g in bsgs_build(m23_gens, 23, base_hint=[0, 1]).strong_generators()
           if g(0) == 0 and g(1) == 1]
m23_l342 = pair_pt + [element_mapping(ch23, (0, 1), (1, 0))]
assert bsgs_build(m23_l342, 23).order() == 40320
m23_24a7 = stabilizer(m23_gens, ch23.order(), blocks23[0], sort_rows)
d23 = sorted(tuple(x for x in d if x != INF) for d in dodecads if INF in d)
assert len(d23) == 1288
m23_m11 = stabilizer(m23_gens, ch23.order(), d23[0], sort_rows)
m24_m222 = m22_gens24 + [swap]
assert bsgs_build(m24_m222, 24).order() == 887040
log("M23 and M24 subgroup generators frozen")

# --- M11 and M12 ------------------------------------------------------------

m11a = Permutation([(x + 1) % 11 for x in range(11)])
m11b_cycles = "(3,7,11,8)(4,10,5,6)"
from ftdesigns.perm import parse_cycles

m11b = parse_cycles(m11b_cycles, 11)
ch11 = bsgs_build([m11a, m11b])
assert ch11.order() == 7920
# The involution is stated, as m11b is: more than one involution of M11
# generates a 660-element subgroup with m11a, and the labels of M11's 12
# cosets, and so the bundled 12-point design, depend on which is taken.
t = parse_cycles("(2,6)(4,9)(5,11)(8,10)", 11)
assert t in ch11 and not t.is_identity() and compose(t, t).is_identity()
l211 = [m11a, t]
assert bsgs_build(l211, 11).order() == 660
log("M11 and its 660-element subgroup")

# base block of the 12-point design, for its stabilizer of order 360
act12 = coset_action(ch11, bsgs_build(l211, 11))
block0 = None
seen = set()
for b in combinations(range(12), 6):
    if b in seen:
        continue
    ob = set_orbit(act12.generators, b)
    seen.update(map(tuple, ob.tolist()))
    if len(ob) == 22:
        block0 = b
        break
m11_sources = [m11a, m11b]
act12_imgs = image_matrix([act12.image_of(g) for g in m11_sources], 12)
_, _, a6 = orbit_stabilizer(m11_sources, ch11.order(), act12_imgs, block0, sort_rows)
assert bsgs_build(a6, 11).order() == 360

m12_gens = [Permutation([11 - i for i in range(12)]),
            Permutation([min(2 * i, 23 - 2 * i) for i in range(12)])]
assert bsgs_build(m12_gens).order() == 95040
log("M12 from the two mongean shuffles")

# --- J1 from the 7x7 matrices over GF(11) ----------------------------------

P11 = 11
Ymat = np.zeros((7, 7), dtype=np.int64)
for i in range(7):
    Ymat[i][(i + 1) % 7] = 1
Zmat = np.array([
    [-3,  2, -1, -1, -3, -1, -3],
    [-2,  1,  1,  3,  1,  3,  3],
    [-1, -1, -3, -1, -3, -3,  2],
    [-1, -3, -1, -3, -3,  2, -1],
    [-3, -1, -3, -3,  2, -1, -1],
    [ 1,  3,  3, -2,  1,  1,  3],
    [ 3,  3, -2,  1,  1,  3,  1],
], dtype=np.int64) % P11


def matmulp(A, B):
    return (A @ B) % P11


def matorder(M):
    A, k = M.copy(), 1
    I = np.eye(7, dtype=np.int64)
    while not np.array_equal(A, I):
        A = matmulp(A, M)
        k += 1
        assert k < 300
    return k


def matpow(M, e):
    A, B = np.eye(7, dtype=np.int64), M.copy()
    while e:
        if e & 1:
            A = matmulp(A, B)
        B = matmulp(B, B)
        e >>= 1
    return A


def norm_vec(v):
    v = v % P11
    nz = int(v[np.flatnonzero(v)[0]])
    return tuple((v * pow(nz, P11 - 2, P11)) % P11)


def element_of_matrix_order(target):
    frontier, seen = [np.eye(7, dtype=np.int64)], set()
    while True:
        nxt = []
        for A in frontier:
            for M in (Ymat, Zmat):
                B = matmulp(A, M)
                key = B.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                o = matorder(B)
                if o % target == 0:
                    return matpow(B, o // target)
                nxt.append(B)
        frontier = nxt


def fixed_projective_point(M):
    A = (M.T - np.eye(7, dtype=np.int64)) % P11
    r, pivots = 0, []
    for c in range(7):
        piv = next((i for i in range(r, 7) if A[i, c] % P11), None)
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * pow(int(A[r, c]), P11 - 2, P11)) % P11
        for i in range(7):
            if i != r and A[i, c] % P11:
                A[i] = (A[i] - A[i, c] * A[r]) % P11
        pivots.append(c)
        r += 1
    free = [c for c in range(7) if c not in pivots]
    assert len(free) == 1
    v = np.zeros(7, dtype=np.int64)
    v[free[0]] = 1
    for ri, pc in enumerate(pivots):
        v[pc] = (-A[ri, free[0]]) % P11
    return norm_vec(v)


def proj_orbit(seed):
    out, seen, q = [seed], {seed}, 0
    while q < len(out):
        v = np.array(out[q], dtype=np.int64)
        q += 1
        for M in (Ymat, Zmat):
            w = norm_vec(v @ M)
            if w not in seen:
                seen.add(w)
                out.append(w)
    return out


orb1540 = proj_orbit(fixed_projective_point(element_of_matrix_order(19)))
orb1596 = proj_orbit(fixed_projective_point(element_of_matrix_order(11)))
assert len(orb1540) == 1540 and len(orb1596) == 1596
points = orb1540 + orb1596
index = {v: i for i, v in enumerate(points)}


def j1_perm(M):
    return Permutation([index[norm_vec(np.array(v, dtype=np.int64) @ M)]
                        for v in points])


j1_both = [j1_perm(Ymat), j1_perm(Zmat)]
j1_gens = [Permutation(list(g.images[:1540])) for g in j1_both]
ch_j1 = bsgs_build(j1_gens, 1540)
assert ch_j1.order() == 175560
j1_n19 = stabilizer(ch_j1.strong_generators(), ch_j1.order(), [0])
assert bsgs_build(j1_n19, 1540).order() == 114
_, _, stab_both = orbit_stabilizer(j1_both, ch_j1.order(), image_matrix(j1_both, 3136), [1540])
j1_n11 = [Permutation(list(g.images[:1540])) for g in stab_both]
assert bsgs_build(j1_n11, 1540).order() == 110
log("J1 on 1540 points with both Sylow normalizers")

# --- HS and McL from rank-3 graphs ------------------------------------------


def graph_automorphism(adj, n, src, dst):
    """Backtracking search for one automorphism with src -> dst."""
    m, minv, mapped = [-1] * n, [-1] * n, []

    def candidates(u):
        req = dom = 0
        for x in mapped:
            dom |= 1 << m[x]
            if adj[u] >> x & 1:
                req |= 1 << m[x]
        return [w for w in range(n) if minv[w] == -1 and (adj[w] & dom) == req]

    def next_vertex(done):
        """The unmapped vertex with the most mapped neighbours, the first
        of them; `done` is the bitmask of the mapped vertices."""
        best, score = -1, -1
        for u in range(n):
            if m[u] == -1:
                s = bin(adj[u] & done).count("1")
                if s > score:
                    best, score = u, s
        return best

    def extend(done):
        if len(mapped) == n:
            return True
        u = next_vertex(done)
        for w in candidates(u):
            m[u], minv[w] = w, u
            mapped.append(u)
            if extend(done | 1 << u):
                return True
            mapped.pop()
            minv[w], m[u] = -1, -1
        return False

    m[src], minv[dst] = dst, src
    mapped.append(src)
    assert extend(1 << src)
    return Permutation(m)


def derived_subgroup(gens, n, target):
    return generate_to_order((compose(compose(compose(a, b), inverse(a)), inverse(b))
                              for a in gens for b in gens), n, target)


# HS graph: vertex 0, the 22 points, the 77 hexads; adjacency is
# membership for point-hexad and disjointness for hexad-hexad.
hexad_id = {h: 23 + i for i, h in enumerate(hexads)}
adj100 = [0] * 100


def link(a, b, adj):
    adj[a] |= 1 << b
    adj[b] |= 1 << a


for p in range(22):
    link(0, 1 + p, adj100)
for h, hi in hexad_id.items():
    for p in h:
        link(1 + p, hi, adj100)
for h1, h2 in combinations(hexads, 2):
    if not set(h1) & set(h2):
        link(hexad_id[h1], hexad_id[h2], adj100)
assert all(bin(a).count("1") == 22 for a in adj100)


def graph_perm(g22, n, hex_map, hep_map=None, off=1):
    img = [0] * n
    if off:
        img[0] = 0
    for p in range(22):
        img[off + p] = off + g22(p)
    for h, hi in hex_map.items():
        img[hi] = hex_map[set_image(g22, h)]
    if hep_map:
        for s, si in hep_map.items():
            img[si] = hep_map[set_image(g22, s)]
    return Permutation(img)


m222_on_100 = [graph_perm(g, 100, hexad_id) for g in m222_gens]
extra100 = graph_automorphism(adj100, 100, 0, 1)
aut100 = bsgs_build(m222_on_100 + [extra100])
assert aut100.order() == 88704000
hs_gens = derived_subgroup(m222_on_100 + [extra100], 100, 44352000)
ch_hs = bsgs_build(hs_gens, 100)
hs2_gens = hs_gens + [next(g for g in m222_on_100 + [extra100] if g not in ch_hs)]
assert bsgs_build(hs2_gens, 100).order() == 88704000
log("HS graph automorphism group split into HS and HS:2")

# Hoffman-Singleton half: a 7-set of points whose 42 once-meeting hexads
# complete a 50-vertex 7-regular induced subgraph.
half = None
for S in combinations(range(22), 7):
    cnt, chosen = [0] * 7, []
    for h in hexads:
        inter = [i for i, p in enumerate(S) if p in h]
        if len(inter) == 1:
            cnt[inter[0]] += 1
            chosen.append(h)
    if cnt != [6] * 7 or len(chosen) != 42:
        continue
    cand = [0] + [1 + p for p in S] + [hexad_id[h] for h in chosen]
    mask = 0
    for v in cand:
        mask |= 1 << v
    if all(bin(adj100[v] & mask).count("1") == 7 for v in cand):
        half = tuple(sorted(cand))
        break
assert half is not None


def split_image(rows):
    """Each split as its sorted half holding vertex 0."""
    other = np.ones((len(rows), 100), dtype=bool)
    other[np.arange(len(rows))[:, None], rows] = False
    return np.where(other[:, :1], np.nonzero(other)[1].reshape(rows.shape),
                    np.sort(rows, axis=1)).astype(rows.dtype)


splits, _, u352 = orbit_stabilizer(hs_gens, ch_hs.order(), image_matrix(hs_gens, 100), half,
                                   split_image)
assert len(splits) == 176
log("U3(5).2 as stabilizer of a Hoffman-Singleton split")

# S8: stabilizer of a base block of the 176-point design.  The block is
# assembled from the orbits of a 3-point stabilizer of that action.
hs_nat_chain = ch_hs
act176 = coset_action(hs_nat_chain, bsgs_build(u352, 100))
act_imgs = [act176.image_of(g) for g in hs_gens]


def mixed_tuple_stab(x0, target):
    """Generators of the stabilizer in HS, on its 100 points, of the points
    x0 of the 176-point action: level len(x0) of one chain of HS acting on
    the 100 and the 176 points at once, with x0 first in the base."""
    both = [Permutation(np.concatenate([sg.images, 100 + ag.images]))
            for sg, ag in zip(hs_gens, act_imgs)]
    chain = bsgs_build(both, 276, base_hint=[100 + x for x in x0])
    stab = [Permutation(g.images[:100]) for g in chain.levels[len(x0)].gens]
    assert bsgs_build(stab, 100).order() == target
    return stab


stab01 = mixed_tuple_stab((0, 1), 1440)
stab01_act = [act176.image_of(g) for g in stab01]
twelve = next(sorted(orbit(stab01_act, p, 176)) for p in range(1, 176)
              if len(orbit(stab01_act, p, 176)) == 12)
x0 = twelve[0]
stab012 = mixed_tuple_stab((0, 1, x0), 120)
stab012_act = [act176.image_of(g) for g in stab012]
five = next(o for o in (sorted(orbit(stab012_act, p, 176)) for p in twelve
                        if p != x0) if len(o) == 5)
base_block = tuple(sorted([0, 1, x0] + five))
blocks, _, s8 = orbit_stabilizer(hs_gens, ch_hs.order(), image_matrix(act_imgs, 176), base_block,
                                 sort_rows)
assert len(blocks) == 1100
assert bsgs_build(s8, 100).order() == 40320
assert any((bsgs_build(s8, 100).element_at(i)).order() == 15
           for i in range(0, 40320, 89))   # symmetric, not linear, type
log("S8 as the block stabilizer of the 176-point design")

# McL graph: 22 points + 77 hexads + 176 heptads; adjacency rules are
# forced by the degree bookkeeping of the 112-regular rank-3 graph.
hx = {h: 22 + i for i, h in enumerate(hexads)}
hp = {s: 99 + i for i, s in enumerate(heptads)}
adj275 = [0] * 275
for h, hi in hx.items():
    for p in range(22):
        if p not in set(h):
            link(p, hi, adj275)
for s, si in hp.items():
    for p in s:
        link(p, si, adj275)
for h1, h2 in combinations(hexads, 2):
    if not set(h1) & set(h2):
        link(hx[h1], hx[h2], adj275)
for h in hexads:
    for s in heptads:
        if len(set(h) & set(s)) == 3:
            link(hx[h], hp[s], adj275)
for s1, s2 in combinations(heptads, 2):
    if len(set(s1) & set(s2)) == 1:
        link(hp[s1], hp[s2], adj275)
assert all(bin(a).count("1") == 112 for a in adj275)

m22_on_275 = [graph_perm(g, 275, hx, hp, off=0) for g in m22_gens]
extra275 = graph_automorphism(adj275, 275, 0, 22)
aut275 = bsgs_build(m22_on_275 + [extra275])
assert aut275.order() == 1796256000
mcl_gens = derived_subgroup(m22_on_275 + [extra275], 275, 898128000)
ch_mcl = bsgs_build(mcl_gens, 275)
outer = next(g for g in m22_on_275 + [extra275] if g not in ch_mcl)
oi = inverse(outer)
m22_other = [compose(compose(oi, g), outer) for g in m22_on_275]
assert all(g in ch_mcl for g in m22_other)
assert bsgs_build(m22_other, 275).order() == 443520
log("McL with both conjugacy classes of its 443520-element stabilizer")

# --- assemble and compare ---------------------------------------------------

HEADER = """\
# Permutation generator catalog.
#
# Every entry is machine-validated on load: the stabilizer-chain order of
# the generators must equal the declared order, and subgroup generators
# must sift into the parent with the declared subgroup order.  Validation
# is the trust anchor for this data; the source comments record how each
# generating set was produced (see the rebuild scripts under demos/).
"""

SOURCES = {
    "M11": "classical 11-point generator pair",
    "M12": "the two mongean-shuffle permutations of 12 cards",
    "M22": "four-point stabilizer chain descent from the 24-point construction",
    "M22:2": "two-point setwise stabilizer in the 24-point construction",
    "M23": "point stabilizer in the 24-point construction",
    "M24": "linear-fractional maps t+1, -1/t on GF(23)+inf plus the quartic-residue map",
    "J1": "7x7 GF(11) matrix pair, acting on the 1540-point projective orbit",
    "HS": "derived subgroup of the automorphism group of the 100-vertex rank-3 graph",
    "HS:2": "automorphism group of the 100-vertex rank-3 graph",
    "McL": "derived subgroup of the automorphism group of the 275-vertex rank-3 graph",
}


def fmt_entry(name, degree, order, gens, subs):
    lines = [f"# source: {SOURCES[name]}", f"group {name} degree {degree} order {order}"]
    for g in gens:
        lines.append(f"gen {format_cycles(g)}")
    for sname, sorder, snr, sgens, scomment in subs:
        lines.append(f"# source: {scomment}")
        head = f"subgroup {sname} order {sorder}"
        if snr is not None:
            head += f" nr {snr}"
        lines.append(head)
        for g in sgens:
            lines.append(f"gen {format_cycles(g)}")
        lines.append("end")
    lines.append("end")
    return "\n".join(lines)


entries_text = [
    fmt_entry("M11", 11, 7920, [m11a, m11b], [
        ("L2(11)", 660, 2, l211,
         "11-cycle plus an involution found by subgroup-order scan"),
        ("A6", 360, None, a6,
         "stabilizer of a base block of the 12-point hexad design"),
    ]),
    fmt_entry("M12", 12, 95040, m12_gens, []),
    fmt_entry("M22", 22, 443520, m22_gens, []),
    fmt_entry("M22:2", 22, 887040, m222_gens, []),
    fmt_entry("M23", 23, 10200960, m23_gens, [
        ("L3(4).2_2", 40320, 2, m23_l342, "setwise stabilizer of a point pair"),
        ("2^4:A7", 40320, 3, m23_24a7,
         "stabilizer of a heptad of the underlying quadruple system"),
        ("M11", 7920, 5, m23_m11,
         "stabilizer of a 12-point special subset of the 24-point construction"),
    ]),
    fmt_entry("M24", 24, 244823040, m24_gens, [
        ("M22.2", 887040, 2, m24_m222, "setwise stabilizer of a point pair"),
    ]),
    fmt_entry("J1", 1540, 175560, j1_gens, [
        ("19:6", 114, 4, j1_n19, "point stabilizer of the 1540-point action"),
        ("11:10", 110, 5, j1_n11,
         "stabilizer of a point of the companion 1596-point projective orbit"),
    ]),
    fmt_entry("HS", 100, 44352000, hs_gens, [
        ("U3(5).2", 252000, 2, u352,
         "stabilizer of a 50+50 vertex split into two 7-regular halves"),
        ("S8", 40320, 5, s8,
         "stabilizer of a base block of the 176-point octad design"),
    ]),
    fmt_entry("HS:2", 100, 88704000, hs2_gens, []),
    fmt_entry("McL", 275, 898128000, mcl_gens, [
        ("M22", 443520, 2, m22_on_275,
         "stabilizer of the 22-point vertex class of the graph model"),
        ("M22", 443520, 3, m22_other,
         "image of the nr-2 class under an outer graph automorphism"),
    ]),
]

text = HEADER + "\n".join(entries_text) + "\n"
for entry in parse_catalog(text):
    assert validate_entry(entry).passed, entry.name

bundled = (Path(__file__).resolve().parent.parent
           / "src/ftdesigns/data/catalog.txt").read_text()
log(f"identical to bundled: {text == bundled}")
assert text == bundled
