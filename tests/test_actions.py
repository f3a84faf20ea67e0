import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftdesigns import actions, bsgs
from ftdesigns.actions import (GroupAction, SubdegreeProfile, coset_action,
                               is_primitive, is_transitive, point_stabilizer_gens,
                               subdegrees)
from ftdesigns.bsgs import bsgs_build, orbit, orbit_transversal, stabilizer_gens
from ftdesigns.errors import InputError, ResourceLimitError
from ftdesigns.groupdata import catalog_entry
from ftdesigns.perm import Permutation, compose, inverse, parse_cycles
from ftdesigns.pipeline import action_for
from oracles import all_pairs_is_primitive, canonical_rep, coset_action_images

S4 = [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)]


def test_coset_action_s4_on_point_stabilizer():
    chain = bsgs_build(S4)
    h = stabilizer_gens(chain, 3)
    act = coset_action(chain, h)
    assert act.degree == 4
    assert act.order == 24
    assert is_transitive(act)
    # equivalent to the natural action: 2-transitive, hence primitive
    assert is_primitive(act)


def test_coset_action_on_whole_group_is_trivial():
    chain = bsgs_build(S4)
    act = coset_action(chain, S4)
    assert act.degree == 1
    assert act.order == 1


def test_coset_action_rejects_non_subgroup():
    chain = bsgs_build([parse_cycles("(1,2,3)", 4)])
    with pytest.raises(InputError):
        coset_action(chain, [parse_cycles("(1,2)", 4)])


def test_coset_action_index_limit(monkeypatch):
    monkeypatch.setattr(actions, "COSET_INDEX_LIMIT", 10)
    chain = bsgs_build(S4)
    with pytest.raises(ResourceLimitError):
        coset_action(chain, [])


def test_coset_action_homomorphism_property():
    from ftdesigns.perm import compose

    chain = bsgs_build(S4)
    h = stabilizer_gens(chain, 3)
    act = coset_action(chain, h)
    for g1 in S4:
        for g2 in S4:
            assert act.image_of(compose(g1, g2)) == compose(act.image_of(g1),
                                                            act.image_of(g2))


def test_coset_enumeration_checks_the_index(monkeypatch):
    # a wrong index stops the enumeration: a claimed index of 2 as soon as
    # a third coset turns up, a claimed index of 8 after the 4 cosets
    chain = bsgs_build(S4)
    h = stabilizer_gens(chain, 3)
    for claimed_order in (12, 48):
        monkeypatch.setattr(chain, "order", lambda: claimed_order)
        with pytest.raises(AssertionError, match="does not match the index"):
            coset_action(chain, h)


@pytest.mark.parametrize("group,sub", [("M11", "L2(11)"), ("M23", "M11"),
                                       ("M24", "M22.2"), ("HS", "U3(5).2")])
def test_coset_action_matches_the_scalar_queue_enumeration(catalog, natural, group, sub):
    chain = natural(group).chain
    h = catalog[group].subgroup(sub).generators
    gens, stab = coset_action_images(chain, h)
    act = coset_action(chain, h)
    assert act.generators == gens
    assert act.base_stabilizer() == (0, stab)


@functools.cache
def _chains(group, sub):
    entry = catalog_entry(group)
    return (bsgs_build(entry.generators, entry.degree),
            bsgs_build(entry.subgroup(sub).generators, entry.degree,
                       base_hint=range(entry.degree)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("M11", "L2(11)"), ("M23", "M11")]), st.data())
def test_batched_canonical_reps_match_the_scalar_reference(pair, data):
    G, hchain = _chains(*pair)
    picks = data.draw(st.lists(st.integers(0, G.order() - 1), min_size=1, max_size=12))
    h = hchain.element_at(data.draw(st.integers(0, hchain.order() - 1)))
    rows = np.array([G.element_at(i).images for i in picks])
    canon = actions._Canonicaliser(hchain)
    batched = canon(rows)
    assert batched.shape == rows.shape
    for row, rep in zip(rows, batched):
        assert np.array_equal(rep, canonical_rep(hchain, row))
    # h * g lies in the coset H * g, so it has the same representative
    assert np.array_equal(canon(rows[:, h.images]), batched)


def _bfs_layer_sizes(act):
    seen, layer, sizes = {0}, [0], []
    while layer:
        sizes.append(len(layer))
        nxt = []
        for x in layer:
            for g in act.generators:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        layer = nxt
    return sizes


@pytest.mark.parametrize("group,sub", [("M11", "L2(11)"), ("M23", "L3(4).2_2")])
def test_coset_action_does_not_depend_on_the_batch_size(monkeypatch, catalog, natural,
                                                        group, sub):
    chain = natural(group).chain
    h = catalog[group].subgroup(sub).generators
    reference = coset_action(chain, h)
    # batches of one rep (one row in image_of), then of 7 reps, which
    # split a breadth-first layer of cosets between two batches
    assert any(size % 7 for size in _bfs_layer_sizes(reference))
    per_rep = len(chain.strong_generators()) * chain.degree
    for entries in (1, 7 * per_rep):
        monkeypatch.setattr(bsgs, "_BATCH_ENTRIES", entries)
        act = coset_action(chain, h)
        assert act.generators == reference.generators, entries
        assert act.base_stabilizer() == reference.base_stabilizer(), entries
        assert all(act.image_of(g) == reference.image_of(g)
                   for g in catalog[group].generators), entries


def test_m11_coset_action_degree_11(catalog):
    chain = bsgs_build(catalog["M11"].generators)
    h = stabilizer_gens(chain, 0)
    assert bsgs_build(h, 11).order() == 720
    act = coset_action(chain, h)
    assert act.degree == 11
    assert act.order == 7920


def test_index_times_subgroup_order(catalog):
    entry = catalog["M23"]
    chain = bsgs_build(entry.generators)
    for sub in entry.subgroups:
        act = coset_action(chain, sub.generators)
        assert act.degree * sub.order == chain.order()


@pytest.mark.parametrize("which", ["m11_action12", "hs_action176", "suzuki8"])
def test_point_stabilizer_generators_fix_the_point(request, which):
    act = request.getfixturevalue(which)
    if which == "suzuki8":
        act = act[0]
    points = range(0, act.degree, 16) if which == "hs_action176" else range(act.degree)
    inputs = [act.base_stabilizer()] + [(pt, point_stabilizer_gens(act, pt)) for pt in points]
    for pt, stab in inputs:
        assert all(g(pt) == pt for g in stab), pt
        assert bsgs_build(stab, act.degree).order() * act.degree == act.order, pt
    with pytest.raises(InputError):
        point_stabilizer_gens(act, act.degree)


def transversal_stabilizer_gens(act, point):
    """The stabilizer generators at the base point conjugated by the row of
    `orbit_transversal` that carries the base point to `point`."""
    base, stab = act.base_stabilizer()
    _, rows, trans = orbit_transversal(act.generators, base, act.degree)
    u = Permutation(trans[rows[point]])
    return [compose(compose(inverse(u), s), u) for s in stab]


@pytest.mark.parametrize("which", ["HS on 176", "McL on 2025"])
def test_point_stabilizer_gens_follow_the_transversal(request, which):
    if which == "HS on 176":
        act = request.getfixturevalue("hs_action176")
    else:
        act = action_for("McL", "M22", 2)
    assert act.degree == int(which.split()[-1])
    for point in (0, 1, 17, act.degree // 2, act.degree - 1):
        assert point_stabilizer_gens(act, point) == transversal_stabilizer_gens(act, point)


def test_profile_actions_build_no_extra_chain(monkeypatch):
    # validation and the ten profiles build each catalog group's chain once,
    # on its catalog entry; point 0 of a coset action is H, whose image
    # generates its stabilizer, so neither the action nor its subdegrees need
    # Schreier-Sims on the image, and a natural action reads the entry's chain
    from ftdesigns import bsgs, groupdata
    from ftdesigns.pipeline import PROFILE_SOURCES, action_for

    fresh = tuple(groupdata.parse_catalog(groupdata._data_text("catalog.txt")))
    monkeypatch.setattr(groupdata, "_bundled_catalog", lambda: fresh)
    calls = []

    def recording(gens, degree=None, base_hint=None, _build=bsgs.bsgs_build):
        chain = _build(gens, degree, base_hint)
        calls.append((list(gens), chain.degree, base_hint))
        return chain

    for module in (bsgs, actions, groupdata):
        monkeypatch.setattr(module, "bsgs_build", recording)
    for entry in fresh:
        assert groupdata.validate_entry(entry).passed, entry.name
    for key, source in sorted(PROFILE_SOURCES.items()):
        before = len(calls)
        act = action_for(*source)
        assert subdegrees(act).total() == act.degree, key
        new = calls[before:]
        if source[1] is None:
            assert new == [], key
            assert act.chain is groupdata.catalog_entry(source[0]).chain, key
        else:
            assert all(degree != act.degree for _, degree, _ in new), key
    for entry in fresh:
        built = [c for c in calls if c[2] is None and c[0] == entry.generators]
        assert len(built) == 1, entry.name


SMALL_ACTIONS = {
    "C4": [parse_cycles("(1,2,3,4)", 4)],
    "D8 based at 1": [parse_cycles("(2,4)", 4), parse_cycles("(1,2,3,4)", 4)],
    "S4 based at 1": [parse_cycles("(2,3)", 4), parse_cycles("(1,2,3,4)", 4)],
    "S3wrC2": [parse_cycles("(1,2,3)", 6), parse_cycles("(1,2)", 6),
               parse_cycles("(1,4)(2,5)(3,6)", 6)],
    "C2xC2": [parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)],
    "A5": [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2,3)", 5)],
}


@pytest.mark.parametrize("which", [*SMALL_ACTIONS, "M11", "M22", "m11_action12",
                                   "hs_action176", "suzuki8", "M23 on 253", "M11 on 110"])
def test_is_primitive_matches_the_all_pairs_reference(request, catalog, natural, which):
    if which in SMALL_ACTIONS:
        act = GroupAction.natural(which, SMALL_ACTIONS[which])
    elif which in ("M11", "M22"):
        act = natural(which)
    elif which == "M23 on 253":
        act = coset_action(natural("M23").chain,
                           catalog["M23"].subgroup("L3(4).2_2").generators)
    elif which == "M11 on 110":
        # cosets of a two-point stabilizer: blocks of 2 and of 10 cosets
        chain = natural("M11").chain
        act = coset_action(chain, chain.levels[2].gens)
        assert act.degree == 110 and not is_primitive(act)
    else:
        act = request.getfixturevalue(which)
        act = act[0] if which == "suzuki8" else act
    assert is_primitive(act) == all_pairs_is_primitive(act)


def test_is_transitive():
    assert is_transitive(GroupAction.natural("C5", [parse_cycles("(1,2,3,4,5)", 5)]))
    assert not is_transitive(GroupAction.natural("C2", [parse_cycles("(1,2)", 3)], 3))


def test_m22_transitive(catalog):
    assert is_transitive(GroupAction.natural("M22", catalog["M22"].generators))


def test_c4_imprimitive():
    act = GroupAction.natural("C4", [parse_cycles("(1,2,3,4)", 4)])
    assert not is_primitive(act)


def test_two_transitive_implies_primitive(catalog):
    act = GroupAction.natural("M11", catalog["M11"].generators)
    assert is_primitive(act)


def test_primitivity_needs_transitive():
    with pytest.raises(InputError):
        is_primitive(GroupAction.natural("C2", [parse_cycles("(1,2)", 4)], 4))


def test_m23_degree_253_primitive(catalog):
    entry = catalog["M23"]
    chain = bsgs_build(entry.generators)
    act = coset_action(chain, entry.subgroup("L3(4).2_2").generators)
    assert act.degree == 253
    assert is_primitive(act)


def test_imprimitive_block_found_in_wreath():
    # S3 wr C2 on 6 points preserves {0,1,2} | {3,4,5}
    gens = [parse_cycles("(1,2,3)", 6), parse_cycles("(1,2)", 6),
            parse_cycles("(1,4)(2,5)(3,6)", 6)]
    act = GroupAction.natural("S3wrC2", gens)
    assert is_transitive(act)
    assert not is_primitive(act)


def test_subdegrees_m23_octad_class(profiles):
    assert profiles[("M23", "2^4:A7", 3)].entries == [(1, 1), (112, 1), (140, 1)]


def test_subdegrees_hs(profiles):
    assert profiles[("HS", "M22", 1)].entries == [(1, 1), (22, 1), (77, 1)]


def test_subdegrees_j1_1540(profiles):
    assert profiles[("J1", "19:6", 4)].entries == [(1, 1), (19, 1), (38, 4), (57, 6), (114, 9)]


def test_subdegree_sum_is_degree(profiles):
    degrees = {("M23", "L3(4).2_2", 2): 253, ("M23", "2^4:A7", 3): 253,
               ("M23", "M11", 5): 1288, ("M24", "M22.2", 2): 276,
               ("J1", "19:6", 4): 1540, ("J1", "11:10", 5): 1596,
               ("HS", "M22", 1): 100, ("HS:2", "M22.2", 2): 100,
               ("McL", "M22", 2): 2025, ("McL", "M22", 3): 2025}
    for key, profile in profiles.items():
        assert profile.total() == degrees[key]


def test_subdegrees_base_point_invariance(catalog):
    entry = catalog["M23"]
    chain = bsgs_build(entry.generators)
    act = coset_action(chain, entry.subgroup("L3(4).2_2").generators)
    reference = subdegrees(act)
    # subdegrees reads the profile at the first base point only; a spread
    # of 11 of the 253 points shows the stabilizer orbits agree elsewhere
    for point in range(0, act.degree, 23):
        stab = point_stabilizer_gens(act, point)
        lengths, seen = [], set()
        for x in range(act.degree):
            if x not in seen:
                ob = orbit(stab, x, act.degree)
                lengths.append(len(ob))
                seen.update(ob)
        assert sorted(lengths) == reference.lengths(), point


def test_subdegrees_reject_intransitive():
    with pytest.raises(InputError):
        subdegrees(GroupAction.natural("C2", [parse_cycles("(1,2)", 3)], 3))


def test_profile_parse_format_round_trip():
    p = SubdegreeProfile([(1, 1), (38, 4), (114, 9)])
    assert SubdegreeProfile.parse(str(p)) == p
