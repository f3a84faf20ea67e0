import random

import pytest

from ftdesigns.bsgs import bsgs_build, contains, orbit, stabilizer_gens
from ftdesigns.errors import InputError
from ftdesigns.perm import Permutation, compose, identity, inverse, parse_cycles
from oracles import element_closure

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
    assert [sorted(l.transversal) for l in a.levels] == [sorted(l.transversal) for l in b.levels]
    assert a.strong_generators() == b.strong_generators()


def test_element_at_enumerates_group():
    chain = bsgs_build(S4)
    elements = {chain.element_at(i) for i in range(24)}
    assert len(elements) == 24
    with pytest.raises(InputError):
        chain.element_at(24)


def test_degree_preserved():
    chain = bsgs_build(S4)
    assert all(g.degree == 4 for g in chain.strong_generators())
    with pytest.raises(InputError):
        chain.sift(identity(5))
