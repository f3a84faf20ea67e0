import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftdesigns import bsgs
from ftdesigns.bsgs import bsgs_build, contains, orbit, orbit_transversal, stabilizer_gens
from ftdesigns.errors import InputError
from ftdesigns.groupdata import catalog_entry
from ftdesigns.perm import Permutation, compose, identity, inverse, parse_cycles
from oracles import (assert_chain_matches, element_closure, scalar_bsgs_build, scalar_orbit,
                     scalar_sift)

S4 = [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)]


def brute_order(gens, degree, rng):
    """Independent orbit-stabilizer recursion with a randomized base.

    Oracle for chain orders: no sifting, no reduction, plain Schreier
    generators at every level.
    """
    gens = [g for g in gens if not g.is_identity()]
    if not gens:
        return 1
    moved = sorted({p for g in gens for p in g.moved_points()})
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
        assert np.array_equal(la.trans, lb.trans)
        assert np.array_equal(la.inv, lb.inv)
    assert a.strong_generators() == b.strong_generators()


def test_level_storage():
    chain = bsgs_build(S4)
    for lvl in chain.levels:
        assert lvl.trans.dtype == lvl.inv.dtype == chain.dtype == np.uint8
        assert lvl.orbit[0] == lvl.point
        assert np.array_equal(lvl.trans[0], np.arange(4))
        for r, x in enumerate(lvl.orbit):
            assert lvl.trans[r][lvl.point] == x
            assert np.array_equal(lvl.inv[r][lvl.trans[r]], np.arange(4))
            if lvl.rows is not None:
                assert lvl.rows[x] == r
        if lvl.rows is not None:
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


def test_chain_does_not_depend_on_the_batch_size(monkeypatch, catalog):
    entry = catalog["HS"]
    reference = scalar_bsgs_build(entry.generators, entry.degree)
    # one Schreier generator per batch, then batches of 3 rows
    for entries in (1, 3 * entry.degree):
        monkeypatch.setattr(bsgs, "_BATCH_ENTRIES", entries)
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
    assert chain.sift(p) == scalar_sift(levels, p)
    assert all(g in chain for g in gens)
    if chain.order() > 1:
        assert chain.element_at(chain.order() - 1) in chain


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
        chain.sift(identity(5))


@settings(max_examples=150, deadline=None)
@given(_groups_with_hints(), st.data())
def test_row_orbit_of_a_point_matches_the_scalar_queue(case, data):
    gens, degree, _, _ = case
    point = data.draw(st.integers(0, degree - 1))
    images = bsgs.image_matrix(gens, degree)
    for entries in (bsgs._BATCH_ENTRIES, 1):
        with mock.patch.object(bsgs, "_BATCH_ENTRIES", entries):
            rows, action = bsgs.row_orbit(images, [point])
        assert rows[:, 0].tolist() == scalar_orbit(gens, point), entries
        assert action.shape == (len(gens), len(rows))
        for g, img in enumerate(images):
            assert np.array_equal(rows[action[g], 0], img[rows[:, 0]]), entries
