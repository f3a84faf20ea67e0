import hashlib
import itertools
import random
import tracemalloc
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ftdesigns import bsgs
from ftdesigns.bsgs import bsgs_build, contains, orbit, orbit_transversal, stabilizer_gens
from ftdesigns.errors import InputError, ResourceLimitError
from ftdesigns.groupdata import catalog_entry
from ftdesigns.perm import Permutation, compose, inverse, parse_cycles
from oracles import (assert_chain_matches, chain_digest, chain_scalar_levels, element_closure,
                     identity, rebuild_generate_to_order, scalar_bsgs_build,
                     scalar_orbit_stabilizer, scalar_orbits, scalar_row_orbit, scalar_sift,
                     tree_rows)

S4 = [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)]


def brute_order(gens, degree, rng):
    """Independent orbit-stabilizer recursion with a randomized base.

    Oracle for chain orders: no sifting, no reduction, plain Schreier
    generators at every level.
    """
    gens = [g for g in gens if not g.is_identity()]
    if not gens:
        return 1
    moved = sorted({int(p) for g in gens
                    for p in np.flatnonzero(g.images != np.arange(degree))})
    beta = rng.choice(moved)
    pts = [beta]
    transversal = {beta: identity(degree)}
    q = 0
    while q < len(pts):
        x = pts[q]
        q += 1
        for g in gens:
            y = g(x)
            if y not in transversal:
                transversal[y] = compose(transversal[x], g)
                pts.append(y)
    schreier = set()
    for x in pts:
        for g in gens:
            s = compose(compose(transversal[x], g), inverse(transversal[g(x)]))
            if not s.is_identity():
                schreier.add(s)
    return len(pts) * brute_order(list(schreier), degree, rng)


def sift_residue(chain, p):
    """p's images after `_strip` through every level of the chain, each
    level's inverse rows formed from its Schreier tree (`tree_rows`)."""
    levels = [SimpleNamespace(point=lvl.point, rows=lvl.rows, inv=tree_rows(lvl)[1])
              for lvl in chain.levels]
    res = p.images.astype(chain.dtype)[None]
    bsgs._strip(levels, 0, res)
    return res[0].tolist()


def transversal_product(chain, digits):
    """The product of the transversal rows digits[i] of each level i, the
    `tree_products` along its Schreier tree, the deepest applied first."""
    g = identity(chain.degree)
    for lvl, r in zip(chain.levels, digits):
        g = compose(Permutation(bsgs.tree_products(lvl.gmat, lvl.parent, lvl.via)[r]), g)
    return g


def test_s4_order():
    chain = bsgs_build(S4)
    assert chain.order() == 24


def test_trivial_group_on_five_points():
    chain = bsgs_build([], degree=5)
    assert chain.order() == 1
    assert identity(5) in chain


def test_empty_gens_need_degree():
    with pytest.raises(InputError):
        bsgs_build([])


def test_cyclic_group_order():
    chain = bsgs_build([parse_cycles("(1,2,3,4,5)", 5)])
    assert chain.order() == 5


def test_m11_catalog_order_and_randomized_base_oracle(catalog):
    gens = catalog["M11"].generators
    chain = bsgs_build(gens)
    assert chain.order() == 7920
    for seed in (1, 2, 3):
        assert brute_order(gens, 11, random.Random(seed)) == 7920


def test_contains_identity_and_closure():
    chain = bsgs_build(S4)
    assert identity(4) in chain
    for g in S4:
        for h in S4:
            assert contains(chain, compose(g, h))


def test_contains_rejects_outside_element():
    chain = bsgs_build([parse_cycles("(1,2,3)", 3)])
    assert not contains(chain, parse_cycles("(1,2)", 3))


def test_orbit_basic():
    assert orbit([parse_cycles("(1,2,3)", 3)], 0) == [0, 1, 2]
    assert orbit([], 3, degree=5) == [3]
    with pytest.raises(InputError):
        orbit([], 9, degree=5)


def test_m11_transitive(catalog):
    gens = catalog["M11"].generators
    assert len(orbit(gens, 0)) == 11


def test_stabilizer_gens_s4():
    chain = bsgs_build(S4)
    stab = stabilizer_gens(chain, 0)
    assert bsgs_build(stab, 4).order() == 6


def test_stabilizer_of_fixed_point_is_whole_group():
    g = parse_cycles("(1,2)(3,4)", 5)
    chain = bsgs_build([g])
    stab = stabilizer_gens(chain, 4)
    assert bsgs_build(stab, 5).order() == 2
    assert bsgs_build(stabilizer_gens(chain, 0), 5).order() == 1


def test_m11_point_stabilizer_order(catalog):
    chain = bsgs_build(catalog["M11"].generators)
    stab = stabilizer_gens(chain, 0)
    assert bsgs_build(stab, 11).order() == 720


CORPUS = [
    ("S4", S4, 4),
    ("A5", [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2,3)", 5)], 5),
    ("S5", [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)], 5),
    ("D12", [parse_cycles("(1,2,3,4,5,6)", 6), parse_cycles("(2,6)(3,5)", 6)], 6),
    ("C7", [parse_cycles("(1,2,3,4,5,6,7)", 7)], 7),
    ("A6", [parse_cycles("(1,2,3,4,5)", 6), parse_cycles("(4,5,6)", 6)], 6),
]


@pytest.mark.parametrize("name,gens,degree", CORPUS, ids=[c[0] for c in CORPUS])
def test_closure_equals_chain_membership(name, gens, degree):
    closure = element_closure(gens, degree)
    chain = bsgs_build(gens, degree)
    assert chain.order() == len(closure)
    assert all(p in chain for p in closure)


def test_catalog_subgroup_closures(catalog):
    # bundled subgroups of order <= 5000 against brute-force closure
    for entry in catalog.values():
        for sub in entry.subgroups:
            if not sub.generators or sub.order > 5000:
                continue
            closure = element_closure(sub.generators, entry.degree)
            assert len(closure) == sub.order, (entry.name, sub.name)


def test_orbit_stabilizer_identity():
    for name, gens, degree in CORPUS:
        chain = bsgs_build(gens, degree)
        for pt in range(degree):
            stab = stabilizer_gens(chain, pt)
            assert all(g(pt) == pt for g in stab), (name, pt)
            stab_order = bsgs_build(stab, degree).order() if stab else 1
            assert len(orbit(gens, pt, degree)) * stab_order == chain.order()


def test_determinism():
    a = bsgs_build(S4)
    b = bsgs_build(S4)
    assert a.base == b.base
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(la.orbit, lb.orbit)
        assert all(np.array_equal(x, y) for x, y in zip(tree_rows(la), tree_rows(lb)))
        assert np.array_equal(la.parent, lb.parent) and np.array_equal(la.via, lb.via)
    assert a.strong_generators() == b.strong_generators()


def test_level_storage():
    chain = bsgs_build(S4)
    for lvl in chain.levels:
        assert lvl.inv is None
        trans, inv = tree_rows(lvl)
        assert trans.dtype == inv.dtype == lvl.gmat.dtype == chain.dtype == np.uint8
        assert lvl.orbit[0] == lvl.point
        assert np.array_equal(inv[0], np.arange(4))
        for r, x in enumerate(lvl.orbit):
            assert trans[r][lvl.point] == x
            assert np.array_equal(inv[r][trans[r]], np.arange(4))
            assert lvl.rows[x] == r
        assert lvl.rows.dtype == np.intp
        off = np.setdiff1d(np.arange(4), lvl.orbit)
        assert (lvl.rows[off] == -1).all()


def test_orbit_transversal_rows():
    gens = [parse_cycles("(1,2,3)(4,5)", 6), parse_cycles("(3,4)", 6)]
    orb, rows, trans = orbit_transversal(gens, 0, 6)
    assert orb.tolist() == orbit(gens, 0, 6) == [0, 1, 2, 3, 4]
    assert rows.tolist() == [0, 1, 2, 3, 4, -1]
    assert trans.shape == (5, 6) and trans.dtype == np.uint8
    for r, x in enumerate(orb):
        assert trans[r][0] == x
    # 3 is first reached from 2 by the second generator, so u_3 = u_2 * (3,4)
    assert np.array_equal(trans[3], compose(Permutation(trans[2]), gens[1]).images)


def test_orbit_transversal_without_generators_is_the_point_alone():
    orb, rows, (parent, via) = bsgs.point_orbit(np.empty((0, 5), dtype=np.uint8), 2)
    assert orb.tolist() == [2] and rows.tolist() == [-1, -1, 0, -1, -1]
    assert parent.tolist() == via.tolist() == [-1]
    rows, action, tree = bsgs.row_orbit(np.empty((0, 1), dtype=np.intp), [0])
    assert rows.tolist() == [[0]] and action.shape == (0, 1) and tree.tolist() == [[-1], [-1]]
    orb, rows, trans = orbit_transversal([], 2, 5)
    assert orb.tolist() == [2]
    assert rows.tolist() == [-1, -1, 0, -1, -1]
    assert trans.tolist() == [[0, 1, 2, 3, 4]]


def test_orbit_stabilizer_rejects_an_empty_generator_list():
    with pytest.raises(InputError, match="empty generator list"):
        bsgs.orbit_stabilizer([], 1, np.empty((0, 5), dtype=np.uint8), [0])


@pytest.mark.parametrize("hint,message", [([-1], "out of range"), ([7], "out of range"),
                                          ([0, 2, 0], "repeats")])
def test_bad_base_hint(hint, message):
    s4_on_5 = [parse_cycles("(1,2,3,4)", 5), parse_cycles("(1,2)", 5)]
    with pytest.raises(InputError, match=message):
        bsgs_build(s4_on_5, 5, base_hint=hint)
    assert bsgs_build(s4_on_5, 5, base_hint=[4, 3]).order() == 24


def test_catalog_chains_match_the_scalar_oracle(catalog):
    for entry in catalog.values():
        assert_chain_matches(bsgs_build(entry.generators, entry.degree),
                             scalar_bsgs_build(entry.generators, entry.degree))
        for sub in entry.subgroups:
            if sub.generators:
                assert_chain_matches(bsgs_build(sub.generators, entry.degree),
                                     scalar_bsgs_build(sub.generators, entry.degree))


def test_hinted_coset_action_chains_match_the_scalar_oracle(catalog):
    from ftdesigns.pipeline import PROFILE_SOURCES

    hinted = [source for source in PROFILE_SOURCES.values() if source[1] is not None]
    assert len(hinted) == 7
    for group, name, nr in hinted:
        entry = catalog[group]
        sub = next(s for s in entry.subgroups if s.name == name and s.nr == nr)
        hint = range(entry.degree)
        assert_chain_matches(bsgs_build(sub.generators, entry.degree, base_hint=hint),
                             scalar_bsgs_build(sub.generators, entry.degree, base_hint=hint))


def test_suzuki_chain_matches_the_scalar_oracle(suzuki8):
    gens = suzuki8[0].generators
    chain = suzuki8[0].chain
    assert_chain_matches(chain, scalar_bsgs_build(gens, 65, base_hint=[0]))
    assert chain.order() == 29120


# sha256 (`oracles.chain_digest`) of every catalog group and subgroup chain,
# of the chains with the base hint range(degree) that the profile coset
# actions build, and of the Sz(8) chain, as built by 2-D broadcast gathers
CHAIN_DIGESTS = {
    "M11": "18c34db04e188d12117426ce316e620bafaf37d198d50a2a4662799de82fb449",
    "M11/L2(11)#2": "0cd405617af8eda132bb3fcdbac99628110ee86fb74c3241096d37fb6a5f29a7",
    "M11/A6#None": "9331c8fabbac21ec198cd68d8fbd12666062b943fd9a5b793bb9c3dc17039ecf",
    "M12": "7636e33bd0f04e32b898ddc72f6ec38bedac07b3b77d54320d8565545fa3aa67",
    "M22": "3a1733f6f4ea271df911a46c0ee7cd2b84d78fb1394f5c167d119f23103636ba",
    "M22:2": "f7129bee8a0556fbd24c0ffb97b38d49ff5bf8e3eb5a2a8fcee3c212f9e4206f",
    "M23": "2497e8f33ff7f42d6e1418c434f286cf0797cb497f2004d24589192d46f4b3ca",
    "M23/L3(4).2_2#2": "0147307261fdcca7d424b8f0aa87b7a621b3ffb32a5428364eaf2da87ffaa393",
    "M23/2^4:A7#3": "1702850954ae3ec792cbf84d0bcb93c8b964653684eafa115d59ab8aef776440",
    "M23/M11#5": "d2872c1d0785d01084e0a021a9d86d46aecff103d46ce779444375f78731cc74",
    "M24": "d0ecefbdf23bddaceaaec9060e6c578a201f746ce3c625de00ae80bac6393fb5",
    "M24/M22.2#2": "770d0219a8e0d6f38d822c08d46a530dbcb1cb1b122040ef2519d4460c6a4437",
    "J1": "c04f4ba6fe5846e51329acd3f320ab579ccfebd8afa5ebb5b289c762c31bc431",
    "J1/19:6#4": "e73c3625d57913a082d1bed032043e5ab6203ad511f77623aa719a6930ab743d",
    "J1/11:10#5": "7855eb769706911ff04d34061b7a049a36e06428f2d95841caf935bf1321d90d",
    "HS": "c85f14428af40cfc367ac548c8656944dfd6e56610b76fb372dbdec725d4f049",
    "HS/U3(5).2#2": "d8a38a1c9fac38691c60d43a6715a12a911218e4f653fecc37eaf7ec3c346c56",
    "HS/S8#5": "1ba2c54f0baab73817504158ade67caef9cfe23b9841e2c662a5ee633e64ed84",
    "HS:2": "d2332360df12ea5519b503f6a5ca38eaee847ba06dc17c674e461547ce7cc3f9",
    "McL": "a3fa4f0ccc3d49072c95bc8c86b3c5340fe8d02ca57463403bae175e38b7f505",
    "McL/M22#2": "d71074dfb653d44db25ce4884096d03664318e904baa608316c440b1eee97f6c",
    "McL/M22#3": "756ebe768030f12aa2a825acb8eec3181f1714e40ab7bed621c376825e2e5de7",
    "M23/L3(4).2_2#2 hinted": "3459dfff21eb3f4b44256d4f39aacdd0fdb262264a4289f50e30466a5a4232d2",
    "M23/2^4:A7#3 hinted": "27e18a7f1fa945037be908809d3708a6ddf99054dbb3f66d91410778f8892b49",
    "M23/M11#5 hinted": "d2872c1d0785d01084e0a021a9d86d46aecff103d46ce779444375f78731cc74",
    "M24/M22.2#2 hinted": "2bbe43657f244434c875eaeb395f423dd6520c249e609fa3bc487306ae7e7def",
    "J1/11:10#5 hinted": "7855eb769706911ff04d34061b7a049a36e06428f2d95841caf935bf1321d90d",
    "McL/M22#2 hinted": "10befaf51aabbb884913f095d2445e36ebb7f7e66ab7fd6de14dd880f1befbb7",
    "McL/M22#3 hinted": "c6c2f60d3b8cde799b05d0c1773058b9d8458c045b2dc87ad81c166d4eb51e4e",
    "Sz(8)": "e7a9015c3078b6bec0639344b02727fd3ff5aa027d68c86627ac2883875fe54c",
}


def _catalog_generating_sets(catalog):
    """(name in CHAIN_DIGESTS, generators, degree) for every bundled group
    and subgroup."""
    for entry in catalog.values():
        yield entry.name, entry.generators, entry.degree
        for sub in entry.subgroups:
            yield f"{entry.name}/{sub.name}#{sub.nr}", sub.generators, entry.degree


def test_chains_match_their_pinned_digests(catalog, suzuki8):
    from ftdesigns.pipeline import PROFILE_SOURCES

    got = {"Sz(8)": chain_digest(suzuki8[0].chain)}
    for name, gens, degree in _catalog_generating_sets(catalog):
        got[name] = chain_digest(bsgs_build(gens, degree))
    for group, name, nr in PROFILE_SOURCES.values():
        if name is not None:
            entry = catalog[group]
            sub = next(s for s in entry.subgroups if s.name == name and s.nr == nr)
            got[f"{group}/{name}#{nr} hinted"] = chain_digest(
                bsgs_build(sub.generators, entry.degree, base_hint=range(entry.degree)))
    assert got == CHAIN_DIGESTS


def test_a_bound_leaves_every_catalog_chain_as_pinned(catalog):
    # the bound is reached with stale levels here (five of them for HS:2),
    # which the stop rebuilds as full verification would
    for name, gens, degree in _catalog_generating_sets(catalog):
        full = bsgs_build(gens, degree)
        bounded = bsgs_build(gens, degree, order=full.order())
        assert chain_digest(bounded) == chain_digest(full) == CHAIN_DIGESTS[name], name


def test_completing_a_complete_chain_changes_nothing(monkeypatch, catalog):
    # every level is verified again from its first pair, and none fails
    install, installed = bsgs._install, []
    monkeypatch.setattr(bsgs, "_install",
                        lambda chain, g, j: installed.append(g) or install(chain, g, j))
    for name, gens, degree in _catalog_generating_sets(catalog):
        chain = bsgs_build(gens, degree)
        installed.clear()
        bsgs._complete(chain)
        assert installed == [], name
        assert chain_digest(chain) == CHAIN_DIGESTS[name], name


def test_a_bound_only_stops_never_decides():
    # S4 on the 3 cosets of D8 has image S3: the bound |S4| = 24 is never
    # reached, so the order is still found by full verification
    from ftdesigns.actions import coset_action

    d8 = bsgs_build([parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)])
    act = coset_action(bsgs_build(S4), d8)
    assert (act.degree, act._bound) == (3, 24)
    assert act.order == 6
    assert chain_digest(act.chain) == chain_digest(bsgs_build(act.generators, 3))


@pytest.mark.parametrize("group", ["M11", "M24", "J1", "HS"])
def test_a_bound_changes_no_stabilizer_chain(monkeypatch, group):
    chain = catalog_entry(group).chain
    point = chain.degree - 1
    assert chain.base[0] != point
    build, calls = bsgs.bsgs_build, []

    def spy(*args, **kwargs):
        calls.append((kwargs, build(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(bsgs, "bsgs_build", spy)
    gens = stabilizer_gens(chain, point)
    [(kwargs, hinted)] = calls
    assert kwargs == {"base_hint": [point], "order": chain.order()}
    full = build(chain.strong_generators(), chain.degree, base_hint=[point])
    assert chain_digest(hinted) == chain_digest(full)
    assert gens == list(full.levels[1].gens)


def test_sift_and_membership_past_int16_offsets(monkeypatch):
    # AGL(1, 307): x -> x + 1 and x -> 5x, 5 a primitive root, so the levels
    # have orbits 307 and 306 and a row times the degree exceeds 32767
    p, install, calls = 307, bsgs._install, itertools.count(1)

    class Residue(Exception):
        pass

    def install_the_generators_only(chain, g, j):
        # the two generators are a strong generating set, so no Schreier
        # generator leaves a residue; a wrapped row offset leaves one, which
        # need not be a permutation, so it is never printed
        if next(calls) > 2:
            raise Residue
        return install(chain, g, j)

    monkeypatch.setattr(bsgs, "_install", install_the_generators_only)
    gens = [Permutation([(x + 1) % p for x in range(p)]),
            Permutation([5 * x % p for x in range(p)])]
    try:
        chain = bsgs_build(gens, p)
    except Residue:
        pytest.fail("a Schreier generator of AGL(1, 307) left a residue", pytrace=False)
    assert chain.order() == p * (p - 1) and [len(lvl.orbit) for lvl in chain.levels] == [p, p - 1]
    assert_chain_matches(chain, scalar_bsgs_build(gens, p))
    for a, b in ((1, 0), (2, 300), (306, 1), (150, 299)):
        g = Permutation([(a * x + b) % p for x in range(p)])
        assert g in chain and sift_residue(chain, g) == list(range(p))
    for digits in ((0, 0), (1, 0), (300, 5), (p - 1, p - 2)):   # last: the last element
        g = chain.element_at(digits[1] + (p - 1) * digits[0])
        assert g in chain and g == transversal_product(chain, digits)
    for cycles in ("(1,2)", "(300,301,302)", "(1,307)(2,306)(3,305)"):
        q = parse_cycles(cycles, p)
        assert q not in chain and sift_residue(chain, q) != list(range(p))


def test_chain_does_not_depend_on_the_batch_size(monkeypatch, catalog):
    entry = catalog["HS"]
    reference = scalar_bsgs_build(entry.generators, entry.degree)
    # one Schreier generator per batch, then batches of 3 rows
    for entries, rows in ((1, 1), (12 * entry.degree, 3)):
        monkeypatch.setattr(bsgs, "_BATCH_ENTRIES", entries)
        assert bsgs._batch_rows(entry.degree) == rows
        assert_chain_matches(bsgs_build(entry.generators, entry.degree), reference)
    # first batches of one row, 32 rows and more rows than a batch may hold
    monkeypatch.undo()
    for first in (1, 32, 2 * bsgs._batch_rows(entry.degree)):
        monkeypatch.setattr(bsgs, "_FIRST_BATCH", first)
        assert_chain_matches(bsgs_build(entry.generators, entry.degree), reference)


@st.composite
def _groups_with_hints(draw):
    degree = draw(st.integers(1, 12))
    perms = st.permutations(range(degree)).map(Permutation)
    gens = draw(st.lists(perms, min_size=0, max_size=3))
    hint = draw(st.none() | st.lists(st.integers(0, degree - 1), unique=True, max_size=degree))
    return gens, degree, hint, draw(perms)


@settings(max_examples=150, deadline=None)
@given(_groups_with_hints())
def test_random_chains_match_the_scalar_oracle(case):
    gens, degree, hint, p = case
    chain = bsgs_build(gens, degree, base_hint=hint)
    levels = scalar_bsgs_build(gens, degree, base_hint=hint)
    assert_chain_matches(chain, levels)
    want = scalar_sift(levels, p)[0]
    assert sift_residue(chain, p) == want.images.tolist()
    assert (p in chain) == want.is_identity()
    assert all(g in chain for g in gens)
    # the last element's mixed-radix digits are the largest row of every level
    last = chain.element_at(chain.order() - 1)
    assert last in chain
    assert last == transversal_product(chain, [len(lvl.orbit) - 1 for lvl in chain.levels])


@settings(max_examples=150, deadline=None)
@given(_groups_with_hints(), st.integers(1, 4))
def test_a_bound_at_or_above_the_order_changes_no_chain(case, m):
    gens, degree, hint, _ = case
    full = bsgs_build(gens, degree, base_hint=hint)
    bounded = bsgs_build(gens, degree, base_hint=hint, order=m * full.order())
    assert chain_digest(bounded) == chain_digest(full)


def test_element_at_enumerates_group():
    for gens in (S4, catalog_entry("M11").generators):
        chain = bsgs_build(gens)
        elements = {chain.element_at(i) for i in range(chain.order())}
        assert len(elements) == chain.order()
        assert all(g in chain for g in elements)
        with pytest.raises(InputError):
            chain.element_at(chain.order())


def test_degree_preserved():
    chain = bsgs_build(S4)
    assert all(g.degree == 4 for g in chain.strong_generators())
    with pytest.raises(InputError):
        identity(5) in chain


@settings(max_examples=150, deadline=None)
@given(_groups_with_hints(), st.data())
def test_row_orbit_of_a_point_matches_the_scalar_queue(case, data):
    gens, degree, _, _ = case
    point = data.draw(st.integers(0, degree - 1))
    limit = data.draw(st.integers(1, degree))
    images = bsgs.image_matrix(gens, degree)
    want, action_want, tree_want = scalar_row_orbit(gens, point, lambda g, x: g(x))
    for entries in (bsgs._BATCH_ENTRIES, 1):
        with mock.patch.object(bsgs, "_BATCH_ENTRIES", entries):
            rows, action, tree = bsgs.row_orbit(images, [point])
            if len(want) > limit:
                with pytest.raises(ResourceLimitError):
                    bsgs.row_orbit(images, [point], limit=limit)
            else:
                assert np.array_equal(bsgs.row_orbit(images, [point], limit=limit)[0], rows)
        assert rows[:, 0].tolist() == want, entries
        assert action.shape == (len(gens), len(rows))
        assert action.tolist() == action_want, entries
        assert tree.tolist() == list(tree_want), entries
        for g, img in enumerate(images):
            assert np.array_equal(rows[action[g], 0], img[rows[:, 0]]), entries


@settings(max_examples=150, deadline=None)
@given(_groups_with_hints())
@example(([], 1, None, identity(1)))
@example(([parse_cycles("(1,3)", 6), parse_cycles("(3,5)", 6)], 6, None, identity(6)))
def test_orbits_match_the_scalar_search(case):
    gens, degree, _, _ = case
    assert [o.tolist() for o in bsgs.orbits(gens, degree)] == scalar_orbits(gens, degree)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_orbit_of_a_pair_set_matches_the_scalar_queue(data):
    degree = data.draw(st.integers(2, 12))
    perms = st.permutations(range(degree)).map(Permutation)
    gens = data.draw(st.lists(perms, min_size=2, max_size=4))
    start = data.draw(st.lists(st.integers(0, degree - 1), min_size=2, max_size=2, unique=True))
    split = data.draw(st.integers(2, 5))   # rows per batch, so batches end inside a layer
    images = bsgs.image_matrix(gens, degree)
    want, action_want, tree_want = scalar_row_orbit(gens, tuple(sorted(start)), set_image)
    # the bound for any pair orbit, and the orbit's own length, which cuts
    # the rows reserved short at the orbit
    for entries, limit in itertools.product((bsgs._BATCH_ENTRIES, 1, split * len(gens) * 2),
                                            (degree * (degree - 1) // 2, len(want))):
        with mock.patch.object(bsgs, "_BATCH_ENTRIES", entries):
            rows, action, tree = bsgs.row_orbit(images, start, partial(np.sort, axis=1), limit)
        assert [tuple(r) for r in rows.tolist()] == want, entries
        assert action.tolist() == action_want, entries
        assert tree.tolist() == list(tree_want), entries


def assert_tree_edges_skipped(chain):
    """Each level sifts every (x, g) pair but the |orbit| - 1 edges of the
    breadth-first tree (the first pair reaching each new point, as a queue
    taking one point and then one generator at a time meets them), and the
    Schreier generator u_x g u_xg^-1 of every edge is the identity."""
    for lvl in chain.levels:
        orb, k = lvl.orbit.tolist(), len(lvl.gens)
        trans = bsgs.tree_products(lvl.gmat, lvl.parent, lvl.via)
        row = {x: r for r, x in enumerate(orb)}
        edges, seen = [], {lvl.point}
        for x in orb:
            for gi, g in enumerate(lvl.gens):
                if g(x) not in seen:
                    seen.add(g(x))
                    edges.append(row[x] * k + gi)
        skipped = np.setdiff1d(np.arange(len(orb) * k), lvl.schreier_pairs())
        assert len(skipped) == len(orb) - 1, lvl.point
        assert skipped.tolist() == edges, lvl.point
        for pair in edges:
            xr, gi = divmod(pair, k)
            g = lvl.gens[gi]
            u_x, u_y = (Permutation(trans[r]) for r in (xr, row[g(orb[xr])]))
            assert compose(compose(u_x, g), inverse(u_y)).is_identity(), (lvl.point, pair)


def test_catalog_chains_skip_exactly_the_tree_edges(catalog):
    for entry in catalog.values():
        assert_tree_edges_skipped(entry.chain)
        for sub in entry.subgroups:
            if sub.generators:
                assert_tree_edges_skipped(bsgs_build(sub.generators, entry.degree))


@settings(max_examples=150, deadline=None)
@given(_groups_with_hints())
def test_random_chains_skip_exactly_the_tree_edges(case):
    gens, degree, hint, _ = case
    assert_tree_edges_skipped(bsgs_build(gens, degree, base_hint=hint))


def set_image(g, s):
    return tuple(sorted(int(g.images[x]) for x in s))


def tuple_image(g, s):
    return tuple(int(g.images[x]) for x in s)


def assert_orbit_stabilizer_matches_the_scalar_loop(gens, order, images, start, canon,
                                                    apply_fn, target):
    """`bsgs.orbit_stabilizer` gives the scalar loop's orbit in its order,
    its transversal row by row and its stabilizer generators in order."""
    rows, trans, stab = bsgs.orbit_stabilizer(gens, order, images, start, canon)
    x0 = tuple(start) if len(start) > 1 else start[0]
    out, transversal, expected = scalar_orbit_stabilizer(gens, x0, apply_fn, target,
                                                         gens[0].degree)
    assert [tuple(r) if len(r) > 1 else r[0] for r in rows.tolist()] == out
    assert [Permutation(t) for t in trans] == [transversal[x] for x in out]
    assert stab == expected and bsgs_build(stab, gens[0].degree).order() == target
    return rows, trans


def test_orbit_stabilizer_of_a_point_matches_the_scalar_loop(catalog):
    gens = catalog["M11"].generators
    assert_orbit_stabilizer_matches_the_scalar_loop(
        gens, 7920, bsgs.image_matrix(gens, 11), [0], None, lambda g, x: g(x), 720)


def test_orbit_stabilizer_of_a_pair_set_matches_the_scalar_loop(catalog):
    gens = catalog["M11"].generators
    rows, _ = assert_orbit_stabilizer_matches_the_scalar_loop(
        gens, 7920, bsgs.image_matrix(gens, 11), [0, 1], partial(np.sort, axis=1),
        set_image, 144)
    assert len(rows) == 55


def test_orbit_stabilizer_of_a_hexad_driven_by_the_source_points(catalog, m11_action12,
                                                                 m11_design):
    # M11 on 11 points drives its 12-point coset action; the stabilizer of
    # a block comes back on the 11 points
    gens = catalog["M11"].generators
    act = {g: m11_action12.image_of(g) for g in gens}
    block = m11_design.blocks[0].tolist()
    rows, _ = assert_orbit_stabilizer_matches_the_scalar_loop(
        gens, 7920, bsgs.image_matrix(list(act.values()), 12), block,
        partial(np.sort, axis=1), lambda g, x: set_image(act[g], x), 360)
    assert len(rows) == 22


def test_orbit_stabilizer_transports_a_tuple(catalog):
    gens = catalog["M11"].generators
    rows, trans = assert_orbit_stabilizer_matches_the_scalar_loop(
        gens, 7920, bsgs.image_matrix(gens, 11), [0, 1, 2], None, tuple_image, 8)
    assert len(rows) == 990
    for r in (1, 500, 989):
        assert trans[r][[0, 1, 2]].tolist() == rows[r].tolist()


def test_orbit_stabilizer_rejects_an_order_the_orbit_does_not_fit(catalog):
    gens = catalog["M11"].generators
    images = bsgs.image_matrix(gens, 11)
    for order in (12, 5):   # 11 does not divide 12; the orbit exceeds 5
        with pytest.raises(InputError, match="orbit"):
            bsgs.orbit_stabilizer(gens, order, images, [0])
    with pytest.raises(InputError, match="order 1440"):
        bsgs.orbit_stabilizer(gens, 2 * 7920, images, [0])


def test_orbit_stabilizer_refuses_a_transversal_over_its_budget(monkeypatch, catalog):
    gens = catalog["M11"].generators
    images = bsgs.image_matrix(gens, 11)
    monkeypatch.setattr(bsgs, "_TRANSVERSAL_ENTRIES", 11 * 11)
    assert len(bsgs.orbit_stabilizer(gens, 7920, images, [0])[0]) == 11
    monkeypatch.setattr(bsgs, "_TRANSVERSAL_ENTRIES", 11 * 10)
    with mock.patch.object(bsgs, "tree_products", side_effect=AssertionError("allocated")):
        with pytest.raises(ResourceLimitError):
            bsgs.orbit_stabilizer(gens, 7920, images, [0])


def test_generate_to_order_keeps_the_candidates_that_grow_the_group():
    # the pairwise commutators of S4's strong generators generate A4
    gens = bsgs_build(S4).strong_generators()
    commutators = [compose(compose(compose(a, b), inverse(a)), inverse(b))
                   for a in gens for b in gens]
    kept = bsgs.generate_to_order(commutators, 4, 12)
    assert bsgs_build(kept, 4).order() == 12
    expected = []
    for c in commutators:
        if not c.is_identity() and c not in bsgs_build(expected, 4):
            expected.append(c)
        if bsgs_build(expected, 4).order() == 12:
            break
    assert kept == expected and len(kept) > 1
    assert bsgs.generate_to_order(commutators, 4, 1) == []
    with pytest.raises(InputError, match="order 24"):
        bsgs.generate_to_order(commutators, 4, 24)


@st.composite
def _candidate_streams(draw):
    degree = draw(st.integers(1, 7))
    perms = st.permutations(range(degree)).map(Permutation)
    stream = draw(st.lists(perms | st.just(identity(degree)), max_size=8))
    # mostly the order of a prefix, so that the target is reached; else any order
    prefix = draw(st.integers(0, len(stream)))
    order = draw(st.just(bsgs_build(stream[:prefix], degree).order()) | st.integers(1, 5040))
    return stream, degree, order


@settings(max_examples=100, deadline=None)
@given(_candidate_streams())
@example(([parse_cycles(c, 7) for c in ("(1,2,3)", "(1,2)(3,4)", "(1,2,3,4,5,6,7)", "(1,2)")],
          7, 5040))
def test_generate_to_order_matches_a_rebuild_per_candidate(case):
    stream, degree, order = case
    try:
        expected = rebuild_generate_to_order(stream, degree, order)
    except InputError:
        with pytest.raises(InputError, match=f"order {order}"):
            bsgs.generate_to_order(stream, degree, order)
    else:
        assert bsgs.generate_to_order(stream, degree, order) == expected


def test_generate_to_order_builds_no_chain_from_scratch(catalog):
    # one chain grows through the completion loop; bsgs_build is never called
    gens = bsgs_build(S4).strong_generators()
    commutators = [compose(compose(compose(a, b), inverse(a)), inverse(b))
                   for a in gens for b in gens]
    expected = rebuild_generate_to_order(commutators, 4, 12)
    m11 = catalog["M11"].generators
    images = bsgs.image_matrix(m11, 11)
    stab = bsgs.orbit_stabilizer(m11, 7920, images, [0, 1], partial(np.sort, axis=1))[2]
    with mock.patch.object(bsgs, "bsgs_build", side_effect=AssertionError("rebuilt")):
        assert bsgs.generate_to_order(commutators, 4, 12) == expected
        assert bsgs.orbit_stabilizer(m11, 7920, images, [0, 1],
                                     partial(np.sort, axis=1))[2] == stab


def test_tree_products_are_the_orbit_transversal(catalog):
    gens = catalog["M11"].generators
    images = bsgs.image_matrix(gens, 11)
    rows, _, tree = bsgs.row_orbit(images, [3])
    trans = bsgs.tree_products(images, *tree)
    assert np.array_equal(trans, orbit_transversal(gens, 3, 11)[2])
    assert np.array_equal(trans[:, 3], rows[:, 0])
    orb, lookup, point_tree = bsgs.point_orbit(images, 3)
    assert np.array_equal(orb, rows[:, 0]) and np.array_equal(point_tree, tree)
    assert np.array_equal(lookup[orb], np.arange(11))


def assert_forward_rows_are_the_tree_products(chain):
    """Every level keeps its generators' `inverse_rows` in the chain's
    dtype, and the rows `inverse_rows` forms from the inverse matrix that a
    build fills from them along the Schreier tree (`_tree_inverses`) are
    the `tree_products` along it: row r carries the base point to orbit[r],
    and inv[r] inverts it."""
    for lvl in chain.levels:
        assert lvl.ginv.dtype == chain.dtype, lvl.point
        assert np.array_equal(lvl.ginv, bsgs.inverse_rows(lvl.gmat)), lvl.point
        inv = bsgs._tree_inverses(lvl.ginv, lvl.parent, lvl.via)
        trans = bsgs.inverse_rows(inv)
        assert trans.dtype == inv.dtype == chain.dtype, lvl.point
        assert np.array_equal(trans, bsgs.tree_products(lvl.gmat, lvl.parent, lvl.via)), lvl.point
        assert np.array_equal(trans[:, lvl.point], lvl.orbit), lvl.point
        undone = np.take_along_axis(inv, trans.astype(np.intp), axis=1)
        assert (undone == np.arange(chain.degree)).all(), lvl.point


def test_catalog_forward_rows_are_the_tree_products(catalog, suzuki8):
    assert_forward_rows_are_the_tree_products(suzuki8[0].chain)
    for name, gens, degree in _catalog_generating_sets(catalog):
        assert_forward_rows_are_the_tree_products(bsgs_build(gens, degree))


@settings(max_examples=150, deadline=None)
@given(_groups_with_hints())
def test_random_forward_rows_are_the_tree_products(case):
    gens, degree, hint, _ = case
    assert_forward_rows_are_the_tree_products(bsgs_build(gens, degree, base_hint=hint))


def test_catalog_level_trees_match_the_scalar_queue(catalog, suzuki8):
    # each level's orbit and tree are those a scalar queue over its own
    # generators meets first
    chains = [suzuki8[0].chain] + [bsgs_build(gens, degree)
                                   for _, gens, degree in _catalog_generating_sets(catalog)]
    for chain in chains:
        for lvl in chain.levels:
            orb, _, (parent, via) = scalar_row_orbit(lvl.gens, lvl.point, lambda g, x: g(x))
            assert lvl.orbit.tolist() == orb, lvl.point
            assert lvl.parent.tolist() == parent and lvl.via.tolist() == via, lvl.point


def test_a_level_holds_one_matrix_of_its_orbit(catalog):
    assert "trans" not in bsgs._Level.__slots__
    # J1 on 1,540 points: 9.38 MiB with a forward and an inverse matrix per
    # level, 4.73 MiB with the inverse matrix alone, 0.09 MiB with none
    held = sum(a.nbytes for lvl in catalog["J1"].chain.levels
               for a in (getattr(lvl, name) for name in lvl.__slots__)
               if isinstance(a, np.ndarray))
    assert held <= 0.25 * 2**20


def test_building_a_chain_forms_no_forward_rows(catalog):
    with mock.patch.object(bsgs, "tree_products", side_effect=AssertionError("formed")):
        for name, gens, degree in _catalog_generating_sets(catalog):
            bsgs_build(gens, degree)


def test_completed_chains_keep_no_inverse_matrix(catalog, suzuki8):
    from ftdesigns.pipeline import PROFILE_SOURCES, action_for

    chains = [suzuki8[0].chain] + [bsgs_build(gens, degree)
                                   for _, gens, degree in _catalog_generating_sets(catalog)]
    chains += [action_for(*source).chain for source in PROFILE_SOURCES.values()]
    assert len(chains) == 1 + 22 + 10
    for chain in chains:
        assert chain.levels and all(lvl.inv is None for lvl in chain.levels)


def test_building_the_j1_chain_peaks_below_its_inverse_matrices(catalog):
    # 8.41 MiB while every completed level kept its inverse matrix and a
    # batch's index had 2^18 entries; 5.77 MiB with neither
    gens = catalog["J1"].generators
    tracemalloc.start()
    try:
        bsgs_build(gens, 1540)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 2**20, peak


def test_membership_walks_the_tree_as_the_scalar_sift_does(catalog, suzuki8):
    # the chain's own elements, at sampled indices, are members; random
    # permutations and elements times a transposition mostly are not
    chains = [suzuki8[0].chain] + [bsgs_build(gens, degree)
                                   for _, gens, degree in _catalog_generating_sets(catalog)]
    rng, found = random.Random(34), []
    for chain in chains:
        levels, n = chain_scalar_levels(chain), chain.degree
        swap = Permutation([1, 0, *range(2, n)])
        for _ in range(4):
            g = chain.element_at(rng.randrange(chain.order()))
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for p in (g, compose(g, swap), compose(swap, g), Permutation(shuffled)):
                found.append(scalar_sift(levels, p)[0].is_identity())
                assert (p in chain) == found[-1], (chain.degree, p)
    assert 4 * len(chains) <= sum(found) < 3 * len(found) // 4


# sha256 of the generators `generate_to_order` keeps from 40 sampled
# elements of M12, and of the stabilizer generators `orbit_stabilizer`
# gives for a pair of M22 and a point of HS, pinned while a completed
# chain kept its inverse matrices for the next completion
KEPT_DIGESTS = {
    "M12": "76996d89c20ad4741c995fcc7eab55e8290f82decd56b3b11cadec61302364a1",
    "M22 on pairs": "fab7535ea3cfaeb278bf41a23faaf162347507c3300d4f0a9e5b7ac66eb851b1",
    "HS on points": "74ebf2f24bb5f5db253a89cb3130e499bd51155f2f38bbad1f4042709c513aa7",
}


def test_completing_a_completed_chain_again_forms_its_rows_again(catalog):
    def digest(perms):
        images = np.array([g.images for g in perms], dtype=np.int64)
        return hashlib.sha256(images.tobytes()).hexdigest()

    # each candidate kept after the first completes the chain again
    m12 = catalog["M12"].chain
    rng = random.Random(12)
    candidates = [m12.element_at(rng.randrange(m12.order())) for _ in range(40)]
    kept = bsgs.generate_to_order(candidates, 12, m12.order())
    assert len(kept) > 1 and kept == rebuild_generate_to_order(candidates, 12, m12.order())
    got = {"M12": digest(kept)}
    for name, start, canon in (("M22 on pairs", [0, 1], partial(np.sort, axis=1)),
                               ("HS on points", [0], None)):
        entry = catalog[name.split()[0]]
        images = bsgs.image_matrix(entry.generators, entry.degree)
        stab = bsgs.orbit_stabilizer(entry.generators, entry.order, images, start, canon)[2]
        assert len(stab) > 1, name
        got[name] = digest(stab)
    assert got == KEPT_DIGESTS


def test_all_lists_the_names_other_modules_import():
    assert {"point_orbit", "row_orbit", "tree_word", "image_matrix", "sorted_lookup",
            "tree_products", "generate_to_order", "orbit_stabilizer"} <= set(bsgs.__all__)
    assert not hasattr(bsgs, "bfs_tree")
    assert all(hasattr(bsgs, name) for name in bsgs.__all__)
