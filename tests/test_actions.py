import functools
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftdesigns import actions, bsgs
from ftdesigns.actions import (GroupAction, SubdegreeProfile, coset_action,
                               is_primitive, is_transitive, point_stabilizer_gens,
                               subdegrees)
from ftdesigns.bsgs import bsgs_build, orbit, orbit_transversal, stabilizer_gens
from ftdesigns.cli import _NAMED_DESIGNS
from ftdesigns.errors import InputError, ResourceLimitError
from ftdesigns.groupdata import catalog_entry
from ftdesigns.perm import Permutation, compose, inverse, parse_cycles
from ftdesigns.pipeline import PROFILE_SOURCES, action_for
from oracles import (all_pairs_is_primitive, canonical_hom, canonical_rep, chain_digest,
                     coset_action_images, scalar_row_orbit)

S4 = [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)]


def test_coset_action_s4_on_point_stabilizer():
    chain = bsgs_build(S4)
    h = stabilizer_gens(chain, 3)
    act = coset_action(chain, bsgs_build(h, 4))
    assert act.degree == 4
    assert act.order == 24
    assert is_transitive(act)
    # equivalent to the natural action: 2-transitive, hence primitive
    assert is_primitive(act)


def test_coset_action_on_whole_group_is_trivial():
    chain = bsgs_build(S4)
    act = coset_action(chain, chain)
    assert act.degree == 1
    assert act.order == 1


def test_coset_action_on_the_trivial_subgroup_is_regular():
    chain = bsgs_build(S4)
    act = coset_action(chain, bsgs_build([], 4))
    assert act.degree == 24
    assert act.order == 24
    assert act.base_stabilizer() == (0, [])
    assert subdegrees(act) == SubdegreeProfile([(1, 24)])
    assert act.generators == coset_action_images(chain, [])[0]


@pytest.mark.parametrize("h", [[], S4], ids=["trivial", "whole group"])
def test_canonical_images_when_h_is_trivial_or_the_whole_group(h):
    G, hchain = bsgs_build(S4), bsgs_build(h, 4)
    rows = np.array([G.element_at(i).images for i in range(24)])
    points = [3, 0, 3]
    got = actions._Canonicaliser(hchain).images_at(rows, points)
    if h:   # one coset: every element has the identity's representative
        want = canonical_rep(hchain, np.arange(4))[points]
        assert (got == want).all()
    else:   # every element is its own coset and representative
        assert np.array_equal(got, rows[:, points])


def test_coset_action_rejects_non_subgroup():
    chain = bsgs_build([parse_cycles("(1,2,3)", 4)])
    with pytest.raises(InputError):
        coset_action(chain, bsgs_build([parse_cycles("(1,2)", 4)]))


def test_coset_action_index_limit(monkeypatch):
    monkeypatch.setattr(actions, "COSET_INDEX_LIMIT", 10)
    chain = bsgs_build(S4)
    with pytest.raises(ResourceLimitError):
        coset_action(chain, bsgs_build([], 4))


def test_coset_action_homomorphism_property():
    from ftdesigns.perm import compose

    chain = bsgs_build(S4)
    h = stabilizer_gens(chain, 3)
    act = coset_action(chain, bsgs_build(h, 4))
    for g1 in S4:
        for g2 in S4:
            assert act.image_of(compose(g1, g2)) == compose(act.image_of(g1),
                                                            act.image_of(g2))


def test_coset_enumeration_checks_the_index(monkeypatch):
    # a wrong index stops the enumeration: a claimed index of 2 as soon as
    # a third coset turns up, a claimed index of 8 after the 4 cosets
    chain = bsgs_build(S4)
    h = bsgs_build(stabilizer_gens(chain, 3), 4)
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
    act = coset_action(chain, bsgs_build(h, chain.degree))
    assert act.generators == gens
    assert act.base_stabilizer() == (0, stab)


@pytest.mark.parametrize("group,sub,kind", [("M23", "M11", "set"),
                                            ("HS", "U3(5).2", "canonicaliser")])
def test_coset_enumeration_tree_matches_the_scalar_queue(catalog, natural, group, sub, kind):
    # the first coset key reaches the index: the set O^u of M11's 11-point
    # orbit, or (U3(5).2 is transitive) the canonical representative
    G = natural(group).chain
    H = bsgs_build(catalog[group].subgroup(sub).generators, G.degree)
    gens = G.strong_generators()
    start, canon, key = next(actions._coset_keys(G, H))
    assert (canon is not None, key is not None) == (kind == "set", kind == "canonicaliser")
    rows, action, tree = bsgs.row_orbit(bsgs.image_matrix(gens, G.degree), start, canon,
                                        G.order() // H.order(), key)
    if kind == "set":
        want = scalar_row_orbit(gens, tuple(sorted(start)),
                                lambda g, s: tuple(sorted(int(g.images[x]) for x in s)))
    else:
        def rep(images):
            return tuple(canonical_rep(H, images).tolist())

        want = scalar_row_orbit(gens, rep(np.arange(G.degree)),
                                lambda g, x: rep(g.images[np.array(x)]))
    assert len(rows) == len(want[0]) == G.order() // H.order()
    assert action.tolist() == want[1]
    assert tree.tolist() == list(want[2])


IMAGE_CASES = [source for source in PROFILE_SOURCES.values() if source[1] is not None]
IMAGE_CASES += [("M11", "L2(11)", None), ("HS", "U3(5).2", None)]


@pytest.mark.parametrize("group,sub,nr", IMAGE_CASES,
                         ids=[f"{g}/{s}" + (f"#{n}" if n else "") for g, s, n in IMAGE_CASES])
def test_tree_word_images_match_the_canonicalising_reference(catalog, group, sub, nr):
    # every element maps through the coset keys, as the generators do
    entry = catalog[group]
    G = entry.chain
    h = next(s for s in entry.subgroups if s.name == sub and nr in (None, s.nr)).generators
    act, reference = coset_action(G, bsgs_build(h, G.degree)), canonical_hom(G, h)
    assert act.base_stabilizer() == (0, [reference(x) for x in h])
    rng = random.Random(7)
    draws = [G.element_at(rng.randrange(G.order())) for _ in range(20)]
    for g in [*h, *entry.generators, *draws]:
        assert act.image_of(g) == reference(g)
    outside = parse_cycles("(1,2)", G.degree)   # no group here holds a transposition
    assert outside not in G
    with pytest.raises(InputError, match="outside G"):
        act.image_of(outside)


@functools.cache
def _chains(group, sub, hinted):
    entry = catalog_entry(group)
    return (bsgs_build(entry.generators, entry.degree),
            bsgs_build(entry.subgroup(sub).generators, entry.degree,
                       base_hint=range(entry.degree) if hinted else None))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("M11", "L2(11)"), ("M23", "M11")]), st.booleans(), st.data())
def test_batched_canonical_reps_match_the_scalar_reference(pair, hinted, data):
    G, hchain = _chains(*pair, hinted)
    picks = data.draw(st.lists(st.integers(0, G.order() - 1), min_size=1, max_size=12))
    h = hchain.element_at(data.draw(st.integers(0, hchain.order() - 1)))
    points = data.draw(st.lists(st.integers(0, G.degree - 1), min_size=1, max_size=G.degree))
    rows = np.array([G.element_at(i).images for i in picks])
    canon = actions._Canonicaliser(hchain)
    batched = canon.images_at(rows, range(G.degree))
    assert batched.shape == rows.shape
    for row, rep in zip(rows, batched):
        assert np.array_equal(rep, canonical_rep(hchain, row))
    # any list of points reads the same columns
    assert np.array_equal(canon.images_at(rows, G.base), batched[:, G.base])
    assert np.array_equal(canon.images_at(rows, points), batched[:, points])
    # h * g lies in the coset H * g, so it has the same representative
    assert np.array_equal(canon.images_at(rows[:, h.images], range(G.degree)), batched)
    assert np.array_equal(canon.images_at(rows[:, h.images], G.base), batched[:, G.base])


def _digest(perms):
    text = "\n".join(" ".join(map(str, p.images.tolist())) for p in perms)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the generator images and of the base_stabilizer() images, one
# permutation a line, for every coset action the pipeline and the CLI build
LABEL_DIGESTS = {
    ("M23", "L3(4).2_2", 2): ("eed32e5fe51e8f0c8c685238b70feb95fce28154bf04f80cac782af667242d27",
                              "1abd72f3903bfcdd92325d1c3aebc204dc781b590daab09c46d9a618ec60b06b"),
    ("M23", "2^4:A7", 3): ("9ce425c1a30549d95a5380f84e6ef97f0913da8833ba099b5e7f8ce304d43386",
                           "81c9b27d9758b7fa20d176a0725fe6fce1312586db8190b5141249ca41ef0c39"),
    ("M23", "M11", 5): ("66d99d3eee6e8707bdc3231e3529c68c56e56f51d52ba85132c07588a1051d84",
                        "2d8ff20abb4ff78d5997de6ae6f9cb2b1505611f7f81651d0c7919217bbf5925"),
    ("M24", "M22.2", 2): ("34a1e006390fe1d77c5a5cce8968a0bebbb16c1ea417e8a5ec45ffa3bfa7a7e5",
                          "76be6c90e9a07cc5f31bc4750d8dc9d4e54424ddbb2cbdfcf20875572d5c6ee1"),
    ("J1", "11:10", 5): ("db23e27fe1345e5846563c43072a4fd4e1f6c85890a45a4277ae2ed02b636983",
                         "2de239c2f1182fe94bf36742658cbbe3a9dcb6a09a74182b13d26808bcefebbf"),
    ("McL", "M22", 2): ("f20971e91ebee78f554d3f8ff1b06ccc44e9e937eff967aefdb6d48455e3c885",
                        "f23f7cfafaf864fa75714ab09fd29daaa2187cd1e5d2e7a797af2396b2230205"),
    ("McL", "M22", 3): ("ae487c321b350f088ba72bc50f52130f14b0e494cd507bc5347946345eedcd2d",
                        "1ab4b83db493d121123e566525583e78a94774632bc57a2f5088c3638ff639ce"),
    ("M11", "L2(11)"): ("1fc6ccda91f001397e6397bf731afd9aef4b2c6b597c3e9c902596dbc8e3db59",
                        "2e0134c57c3ac45db6dde4f8abe6bffd1b1df43b25d583d165549c3bcdb774cb"),
    ("HS", "U3(5).2"): ("d5156f1b1e15c49df2429e346b6dd21039301d9904e2e6fc1d2beb771414acab",
                        "cc145a6f5ed242188d9b49dcf963afc7aabcd441c07369fcd667b84fe6e02d23"),
}


def test_label_digests_cover_every_profile_and_design_action():
    built = {source for source in PROFILE_SOURCES.values() if source[1] is not None}
    built |= {source for source, _ in _NAMED_DESIGNS.values() if source[1] is not None}
    assert set(LABEL_DIGESTS) == built


@pytest.mark.parametrize("source", list(LABEL_DIGESTS), ids=lambda s: "/".join(map(str, s)))
def test_coset_labels_match_their_pinned_digests(source):
    act = action_for(*source)
    point, stab = act.base_stabilizer()
    assert point == 0
    assert (_digest(act.generators), _digest(stab)) == LABEL_DIGESTS[source]


@pytest.mark.parametrize("source", list(LABEL_DIGESTS), ids=lambda s: "/".join(map(str, s)))
def test_a_bound_changes_no_coset_action_chain(monkeypatch, source):
    # each group is simple, so its image has order |G|, the bound; the bound
    # ends verification early and leaves the chain full verification gives
    act, G = action_for(*source), catalog_entry(source[0]).chain
    assert act._bound == G.order()
    verify, levels = bsgs._verify_level, []
    monkeypatch.setattr(bsgs, "_verify_level",
                        lambda chain, i: levels.append(i) or verify(chain, i))
    bounded = chain_digest(act.chain)
    stopped = len(levels)
    assert bounded == chain_digest(bsgs_build(act.generators, act.degree))
    assert stopped < len(levels) - stopped
    assert act.order == G.order()


class _Descent(Exception):
    """Raised in place of building a `_Canonicaliser`: the descent was reached."""


def _no_descent(hchain):
    raise _Descent


SET_PATH_CASES = [source for source in PROFILE_SOURCES.values() if source[1] is not None]


@pytest.mark.parametrize("source", SET_PATH_CASES, ids=lambda s: "/".join(map(str, s)))
def test_profile_coset_actions_need_no_descent(monkeypatch, catalog, source):
    # each of these subgroups is the setwise stabilizer of one of its orbits,
    # so its action is a set orbit and the labels are those of the descent
    entry, (_, sub, nr) = catalog[source[0]], source
    h = next(s for s in entry.subgroups if s.name == sub and s.nr == nr).generators
    reference = canonical_hom(entry.chain, h)
    monkeypatch.setattr(actions, "_Canonicaliser", _no_descent)
    act = action_for(*source)
    point, stab = act.base_stabilizer()
    assert (_digest(act.generators), _digest(stab)) == LABEL_DIGESTS[source]
    assert (point, stab) == (0, [reference(x) for x in h])
    for g in entry.generators:
        assert act.image_of(g) == reference(g)


@pytest.mark.parametrize("group,sub", [("M11", "L2(11)"), ("HS", "U3(5).2"), ("M11", "A6")])
def test_subgroups_without_a_stabilized_orbit_reach_the_descent(monkeypatch, catalog, group,
                                                                 sub):
    # L2(11) and U3(5).2 are transitive; A6 fixes a point of M11, and the
    # point and the other 10 points are both stabilized by M10
    entry = catalog[group]
    monkeypatch.setattr(actions, "_Canonicaliser", _no_descent)
    with pytest.raises(_Descent):
        coset_action(entry.chain, bsgs_build(entry.subgroup(sub).generators, entry.degree))


def test_a_wrong_index_fails_on_both_paths(monkeypatch):
    # the set path alone: the fixed point of S3 has 4 images, more than a
    # claimed index of 2; the descent: C4 is transitive, so it has no set path
    chain = bsgs_build(S4)
    s3, c4 = bsgs_build(stabilizer_gens(chain, 3), 4), bsgs_build(S4[:1], 4)
    monkeypatch.setattr(chain, "order", lambda: 12)
    with monkeypatch.context() as patch:
        patch.setattr(actions, "_Canonicaliser", _no_descent)
        with pytest.raises(AssertionError, match="does not match the index"):
            coset_action(chain, s3)
    with pytest.raises(AssertionError, match="does not match the index"):
        coset_action(chain, c4)


def test_the_set_path_tries_the_next_orbit(monkeypatch):
    # S3 on the points 1..3 (from 0) fixing point 0, and H the transposition
    # of 1 and 2: the G-orbit of the fixed point 0 is one set, that of 3 the
    # 3 cosets
    gens = [parse_cycles("(2,3,4)", 4), parse_cycles("(2,3)", 4)]
    G, h = bsgs_build(gens), gens[1:]
    want = coset_action_images(G, h)
    monkeypatch.setattr(actions, "_Canonicaliser", _no_descent)
    act = coset_action(G, bsgs_build(h, 4))
    assert (act.generators, act.base_stabilizer()) == (want[0], (0, want[1]))


@pytest.mark.parametrize("h", [[], S4], ids=["trivial", "whole group"])
def test_both_ends_of_the_key_list_match_the_scalar_queue(monkeypatch, h):
    # H = 1: each singleton orbit has 4 images, not 24, so every one is
    # passed over and the descent gives the regular action; H = G is
    # transitive, so no orbit is tried, and there is one coset
    G, H = bsgs_build(S4), bsgs_build(h, 4)
    descents, build = [], actions._Canonicaliser
    monkeypatch.setattr(actions, "_Canonicaliser", lambda c: descents.append(c) or build(c))
    gens, stab = coset_action_images(G, H.levels[0].gens if H.levels else [])
    act = coset_action(G, H)
    assert (act.degree, len(descents)) == (24 // H.order(), 1)
    assert (act.generators, act.base_stabilizer()) == (gens, (0, stab))


SYMMETRIC = {n: bsgs_build([parse_cycles(f"({','.join(map(str, range(1, n + 1)))})", n),
                            parse_cycles("(1,2)", n)], n) for n in (6, 7)}


@st.composite
def _on_a_subset(draw, n):
    """A permutation of {0..n-1} that moves only points of a drawn subset."""
    points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    images = list(range(n))
    for p, q in zip(points, draw(st.permutations(points))):
        images[p] = q
    return Permutation(images)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([6, 7]), st.data())
def test_small_coset_actions_match_the_scalar_queue_enumeration(n, data):
    # subgroups of S_6 and S_7 on 1 to 3 elements, each moving a drawn set of
    # points, so that many are intransitive: an orbit whose stabilizer is
    # larger than H is tried and passed over, for the next or for the descent
    G = SYMMETRIC[n]
    H = bsgs_build(data.draw(st.lists(_on_a_subset(n), min_size=1, max_size=3)), n)
    gens, stab = coset_action_images(G, H.levels[0].gens if H.levels else [])
    act = coset_action(G, H)
    assert act.generators == gens
    assert act.base_stabilizer() == (0, stab)


@pytest.mark.parametrize("group,sub", [("M11", "L2(11)"), ("M23", "M11"), ("HS", "U3(5).2")])
def test_coset_action_does_not_depend_on_the_base_of_H(catalog, group, sub):
    # a chain of H in any base gives one representative per coset, and the
    # labels are the first-reach order of the cosets, so the images agree
    entry = catalog[group]
    h, n = entry.subgroup(sub).generators, entry.degree
    chains = [bsgs_build(h, n, base_hint=hint) for hint in (None, range(n), range(n)[::-1])]
    assert chains[2].base != chains[0].base
    acts = [coset_action(entry.chain, H) for H in chains]
    for act in acts[1:]:
        assert act.generators == acts[0].generators
        assert act.base_stabilizer() == acts[0].base_stabilizer()


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
    h = bsgs_build(catalog[group].subgroup(sub).generators, chain.degree)
    reference = coset_action(chain, h)
    # batches of one rep, then of 7 reps, which split a breadth-first
    # layer of cosets between two batches
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
    act = coset_action(chain, bsgs_build(h, 11))
    assert act.degree == 11
    assert act.order == 7920


def test_index_times_subgroup_order(catalog):
    entry = catalog["M23"]
    chain = bsgs_build(entry.generators)
    for sub in entry.subgroups:
        act = coset_action(chain, bsgs_build(sub.generators, chain.degree))
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


def test_carriers_build_no_whole_transversal(monkeypatch, hs_action176):
    # a carrier is the product along one tree word; `tree_products` would
    # fill every row of the (degree, degree) transversal
    def whole_transversal(*args):
        raise AssertionError("the whole transversal was built")

    monkeypatch.setattr(bsgs, "tree_products", whole_transversal)
    assert is_primitive(hs_action176)
    for point in (1, 175):
        assert all(g(point) == point for g in point_stabilizer_gens(hs_action176, point))


def test_a_natural_action_maps_only_its_own_group(natural):
    act = natural("M11")
    assert all(act.image_of(g) == g for g in act.generators)
    with pytest.raises(InputError, match="outside G"):
        act.image_of(parse_cycles("(1,2)", 11))
    with pytest.raises(InputError):
        act.image_of(parse_cycles("(1,2)", 12))


def test_profile_actions_build_no_extra_chain(monkeypatch):
    # validation and the ten profiles build each catalog group's and each
    # catalog subgroup's chain once, on its catalog entry; point 0 of a coset
    # action is H, whose image generates its stabilizer, so neither the action
    # nor its subdegrees need Schreier-Sims on the image, and every action
    # reads the chains that validation built
    from ftdesigns import bsgs, groupdata
    from ftdesigns.pipeline import PROFILE_SOURCES, action_for

    fresh = tuple(groupdata.parse_catalog(groupdata._data_text("catalog.txt")))
    monkeypatch.setattr(groupdata, "_bundled_catalog", lambda: fresh)
    calls = []

    def recording(gens, degree=None, base_hint=None, _build=bsgs.bsgs_build):
        calls.append((list(gens), base_hint))
        return _build(gens, degree, base_hint)

    for module in (bsgs, actions, groupdata):
        monkeypatch.setattr(module, "bsgs_build", recording)
    for entry in fresh:
        assert groupdata.validate_entry(entry).passed, entry.name
    for key, source in sorted(PROFILE_SOURCES.items()):
        before = len(calls)
        act = action_for(*source)
        assert sum(l * m for l, m in subdegrees(act).entries) == act.degree, key
        assert calls[before:] == [], key
        if source[1] is None:
            assert act.chain is groupdata.catalog_entry(source[0]).chain, key
    built = [e.generators for e in fresh] + [s.generators for e in fresh
                                             for s in e.subgroups if s.generators]
    assert len(calls) == len(built) == 22
    for gens in built:
        assert calls.count((gens, None)) == 1


def test_chain_building_sifts_fewer_rows_than_every_pair_needs(monkeypatch):
    # rows sifted by `catalog validate` and the ten profile actions on fresh
    # catalog entries; 17,930 when every (x, g) pair is sifted, tree edges
    # included, so a count at or above it means the edges came back
    from ftdesigns import groupdata
    from ftdesigns.cli import main

    fresh = tuple(groupdata.parse_catalog(groupdata._data_text("catalog.txt")))
    monkeypatch.setattr(groupdata, "_bundled_catalog", lambda: fresh)
    rows, strip = [], bsgs._strip

    def counting(levels, first, res):
        rows.append(len(res))
        return strip(levels, first, res)

    monkeypatch.setattr(bsgs, "_strip", counting)
    assert main(["catalog", "validate"]) == 0
    for key, source in sorted(PROFILE_SOURCES.items()):
        act = action_for(*source)
        assert sum(l * m for l, m in subdegrees(act).entries) == act.degree, key
    assert sum(rows) < 17_930, sum(rows)


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
        gens = SMALL_ACTIONS[which]
        act = GroupAction(which, gens[0].degree, gens)
    elif which in ("M11", "M22"):
        act = natural(which)
    elif which == "M23 on 253":
        act = coset_action(natural("M23").chain,
                           bsgs_build(catalog["M23"].subgroup("L3(4).2_2").generators, 23))
    elif which == "M11 on 110":
        # cosets of a two-point stabilizer: blocks of 2 and of 10 cosets
        chain = natural("M11").chain
        act = coset_action(chain, bsgs_build(chain.levels[2].gens, 11))
        assert act.degree == 110 and not is_primitive(act)
    else:
        act = request.getfixturevalue(which)
        act = act[0] if which == "suzuki8" else act
    assert is_primitive(act) == all_pairs_is_primitive(act)


@pytest.mark.parametrize("source,primitive",
                         [(source, True) for source in PROFILE_SOURCES.values()]
                         + [(("M11", "A6", None), False)],
                         ids=lambda s: "/".join(map(str, s)) if isinstance(s, tuple) else None)
def test_pipeline_actions_are_primitive(source, primitive):
    # the pipeline reads its subgroups as maximal, so every action it builds is
    # primitive; A6 < M10 < M11 is not, and its 22 cosets pair up into M10's 11
    assert is_primitive(action_for(*source)) == primitive


def test_is_transitive():
    assert is_transitive(GroupAction("C5", 5, [parse_cycles("(1,2,3,4,5)", 5)]))
    assert not is_transitive(GroupAction("C2", 3, [parse_cycles("(1,2)", 3)]))


def test_m22_transitive(catalog):
    assert is_transitive(GroupAction("M22", 22, catalog["M22"].generators))


def test_c4_imprimitive():
    act = GroupAction("C4", 4, [parse_cycles("(1,2,3,4)", 4)])
    assert not is_primitive(act)


def test_two_transitive_implies_primitive(catalog):
    act = GroupAction("M11", 11, catalog["M11"].generators)
    assert is_primitive(act)


def test_primitivity_needs_transitive():
    with pytest.raises(InputError):
        is_primitive(GroupAction("C2", 4, [parse_cycles("(1,2)", 4)]))


def test_m23_degree_253_primitive(catalog):
    entry = catalog["M23"]
    chain = bsgs_build(entry.generators)
    act = coset_action(chain, bsgs_build(entry.subgroup("L3(4).2_2").generators, 23))
    assert act.degree == 253
    assert is_primitive(act)


def test_imprimitive_block_found_in_wreath():
    # S3 wr C2 on 6 points preserves {0,1,2} | {3,4,5}
    gens = [parse_cycles("(1,2,3)", 6), parse_cycles("(1,2)", 6),
            parse_cycles("(1,4)(2,5)(3,6)", 6)]
    act = GroupAction("S3wrC2", 6, gens)
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
        assert sum(l * m for l, m in profile.entries) == degrees[key]


def test_subdegrees_base_point_invariance(catalog):
    entry = catalog["M23"]
    chain = bsgs_build(entry.generators)
    act = coset_action(chain, bsgs_build(entry.subgroup("L3(4).2_2").generators, 23))
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
        assert sorted(lengths) == [l for l, m in reference.entries for _ in range(m)], point


def test_subdegrees_reject_intransitive():
    with pytest.raises(InputError):
        subdegrees(GroupAction("C2", 3, [parse_cycles("(1,2)", 3)]))


def test_profile_format():
    p = SubdegreeProfile([(1, 1), (38, 4), (114, 9)])
    assert str(p) == "1^1 38^4 114^9"
