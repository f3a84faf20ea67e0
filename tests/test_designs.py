import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ftdesigns import designs
from ftdesigns.actions import GroupAction
from ftdesigns.bsgs import bsgs_build
from ftdesigns.designs import (Design, ParameterSet, block_search, block_stabilizer_order,
                               coset_geometry, design_from_text, design_to_text,
                               is_flag_transitive, iso_check, orbit_block_search,
                               suzuki_design, verify_2design)
from ftdesigns.errors import DesignError, InputError, ParseError, ResourceLimitError
from ftdesigns.perm import Permutation, parse_cycles, point_dtype
from oracles import scalar_flag_transitive, scalar_orbits, scalar_row_orbit

S4 = [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)]


def test_complete_design():
    blocks = list(combinations(range(5), 3))
    params = verify_2design(Design(5, blocks))
    assert params.astuple() == (5, 10, 6, 3, 3)


def test_m11_design_parameters(m11_design):
    assert verify_2design(m11_design).astuple() == (12, 22, 11, 6, 5)


def test_block_removal_detected(m11_design):
    mutated = Design(m11_design.v, m11_design.blocks[1:])
    with pytest.raises(DesignError):
        verify_2design(mutated)


def test_repeated_block_rejected():
    blocks = list(combinations(range(5), 3)) + [(0, 1, 2)]
    with pytest.raises(DesignError) as err:
        verify_2design(Design(5, blocks))
    assert "repeated" in str(err.value)


def test_non_uniform_block_sizes():
    with pytest.raises(InputError) as err:
        Design(5, [(0, 1, 2, 3), (0, 1, 2)])
    assert str(err.value) == "not k-uniform: block sizes 3 and 4"


def test_design_rejects_points_out_of_range():
    for blocks in ([(0, 1, 5)], [(-1, 1, 2)], np.array([[4, 1, 5]])):
        with pytest.raises(InputError, match="outside point range 0..4"):
            Design(5, blocks)


def test_pair_coverage_refuses_a_block_with_more_pairs_than_a_chunk(monkeypatch):
    # chunks of 5 pair codes hold the 3 pairs of a Fano line; the 6 pairs of
    # a 4-point block are refused before any pair array is made
    monkeypatch.setattr(designs, "PAIR_CHUNK_SIZE", 5)
    fano = [tuple(sorted((x + i) % 7 for x in (0, 1, 3))) for i in range(7)]
    assert verify_2design(Design(7, fano)).astuple() == (7, 7, 3, 3, 1)
    complement = [tuple(sorted(set(range(7)) - set(line))) for line in fano]
    monkeypatch.setattr(np, "triu_indices", None)
    with pytest.raises(ResourceLimitError, match="block size 4 has more than 5 point pairs"):
        verify_2design(Design(7, complement))


@st.composite
def _block_rows(draw):
    """v up to 300, across the uint8 and uint16 dtypes, and up to 12 blocks
    of one size k >= 0 as an int64 array."""
    v = draw(st.integers(3, 300))
    k = draw(st.integers(0, min(v, 8)))
    block = st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True)
    rows = draw(st.lists(block, min_size=1, max_size=12))
    return v, np.array(rows, dtype=np.int64).reshape(len(rows), k)


@settings(max_examples=200, deadline=None)
@given(_block_rows(), st.randoms(use_true_random=False))
def test_design_blocks_are_one_sorted_array(case, rnd):
    v, rows = case
    expected = Design(v, rows).blocks
    assert expected.dtype == point_dtype(v)
    assert expected.tolist() == sorted(sorted(row) for row in rows.tolist())
    shuffled = rows[rnd.sample(range(len(rows)), len(rows))]
    permuted = np.array([rnd.sample(row, len(row)) for row in rows.tolist()],
                        dtype=np.int64).reshape(rows.shape)
    for blocks in (shuffled, permuted, rows.tolist()):
        got = Design(v, blocks).blocks
        assert got.dtype == point_dtype(v) and np.array_equal(got, expected)


def test_parameter_identities():
    good = ParameterSet(11, 55, 15, 3, 3)
    good.check_identities()
    with pytest.raises(InputError):
        ParameterSet(11, 55, 14, 3, 3).check_identities()
    assert good.v < good.b


@pytest.mark.parametrize("params", [(4, 6, 3, 2, 1), (7, 7, 6, 6, 5)], ids=["k-2", "k-v-1"])
def test_a_trivial_block_size_names_the_accepted_range(params):
    # both pass the three counting identities; only k is out of range
    with pytest.raises(InputError, match=r"trivial \(k outside 3\.\.v-2\)"):
        ParameterSet(*params).check_identities()


def test_coset_geometry_pairs():
    chain = bsgs_build(S4)
    act = GroupAction("S4", 4, S4)
    design = coset_geometry(chain, act, [parse_cycles("(1,2)", 4)])
    assert np.array_equal(design.blocks[0], (0, 1))
    assert verify_2design(design).astuple() == (4, 6, 3, 2, 1)


def test_coset_geometry_m11(catalog, m11_action12):
    entry = catalog["M11"]
    chain = bsgs_build(entry.generators)
    design = coset_geometry(chain, m11_action12, entry.subgroup("A6").generators)
    assert verify_2design(design).astuple() == (12, 22, 11, 6, 5)
    assert block_stabilizer_order(m11_action12, design) == 360


def test_coset_geometry_hs(hs_design, hs_action176):
    assert verify_2design(hs_design).astuple() == (176, 1100, 50, 8, 2)
    assert block_stabilizer_order(hs_action176, hs_design) == 40320


def test_coset_geometry_rejects_outside_k():
    chain = bsgs_build([parse_cycles("(1,2,3)", 4)])
    act = GroupAction("C3", 4, [parse_cycles("(1,2,3)", 4)])
    with pytest.raises(InputError):
        coset_geometry(chain, act, [parse_cycles("(1,2)", 4)])


def test_coset_geometry_degenerate_block():
    chain = bsgs_build(S4)
    act = GroupAction("S4", 4, S4)
    with pytest.raises(InputError):
        coset_geometry(chain, act, S4)   # K transitive: block = everything


def test_orbit_block_search_s4():
    act = GroupAction("S4", 4, S4)
    found = orbit_block_search(act, ParameterSet(4, 6, 3, 2, 1))
    assert len(found) == 1
    assert np.array_equal(found[0].blocks, sorted(combinations(range(4), 2)))


def test_orbit_block_search_m11_unique(m11_design, m11_action12):
    found = orbit_block_search(m11_action12, ParameterSet(12, 22, 11, 6, 5))
    assert len(found) == 1
    assert np.array_equal(found[0].blocks, m11_design.blocks)


def test_orbit_block_search_m22_unique(m22_design):
    assert verify_2design(m22_design).astuple() == (22, 77, 21, 6, 5)


def test_orbit_block_search_bound(monkeypatch):
    monkeypatch.setattr(designs, "SUBSET_ENUM_LIMIT", 3)
    act = GroupAction("S4", 4, S4)
    with pytest.raises(ResourceLimitError):
        orbit_block_search(act, ParameterSet(4, 6, 3, 2, 1))


@pytest.mark.parametrize("name", ["M11 on 12 points", "M22", "M22:2"])
def test_block_search_matches_the_exhaustive_search(name, m11_action12, m11_design,
                                                    natural, m22_design):
    if name == "M11 on 12 points":
        action, expected = m11_action12, [m11_design]
    elif name == "M22":
        action, expected = natural("M22"), [m22_design]
    else:
        action = natural("M22:2")
        expected = orbit_block_search(action, ParameterSet(22, 77, 21, 6, 5))
    found = block_search(action, verify_2design(expected[0]))
    assert len(found) == len(expected) == 1
    assert np.array_equal(found[0].blocks, expected[0].blocks)


def test_block_search_matches_the_coset_geometry(hs_action176, hs_design):
    found = block_search(hs_action176, ParameterSet(176, 1100, 50, 8, 2))
    assert len(found) == 1
    assert np.array_equal(found[0].blocks, hs_design.blocks)


def test_block_search_finds_the_suzuki_tits_design(suzuki8):
    act, design = suzuki8
    found = block_search(act, ParameterSet(65, 520, 64, 8, 7))
    assert len(found) == 1
    assert np.array_equal(found[0].blocks, design.blocks)


def test_block_search_finds_the_f20_design_of_sz8(suzuki8):
    # blocks are orbits of a C5 whose stabilizer is the Frobenius group 5:4
    act, _ = suzuki8
    found = block_search(act, ParameterSet(65, 1456, 112, 5, 7))
    assert len(found) == 1
    assert verify_2design(found[0]).astuple() == (65, 1456, 112, 5, 7)
    assert is_flag_transitive(act, found[0]).flag_transitive
    assert block_stabilizer_order(act, found[0]) == 20


def test_block_search_finds_nothing_where_no_design_exists(suzuki8):
    act, _ = suzuki8
    assert block_search(act, ParameterSet(65, 1040, 80, 5, 5)) == []


@pytest.mark.parametrize("action,target", [
    # b does not divide |Sz(8)| = 29120
    ("Sz(8)", ParameterSet(65, 2704, 208, 5, 13)),
    # both primes of |S4| = 24 divide b = 6
    ("S4", ParameterSet(4, 6, 3, 2, 1)),
])
def test_block_search_refusals(action, target, suzuki8, monkeypatch):
    act = suzuki8[0] if action == "Sz(8)" else GroupAction("S4", 4, S4)
    monkeypatch.setattr(designs, "set_orbit", _no_orbit)
    with pytest.raises(InputError):
        block_search(act, target)


@pytest.mark.parametrize("search", [block_search, orbit_block_search])
def test_searches_refuse_a_target_on_another_degree(search, monkeypatch):
    monkeypatch.setattr(designs, "set_orbit", _no_orbit)
    with pytest.raises(InputError, match="target has v=5, the action has degree 4"):
        search(GroupAction("S4", 4, S4), ParameterSet(5, 10, 4, 2, 1))


def test_block_search_bound(monkeypatch, m11_action12):
    # M11 on 12 points has 4 unions of cycles of its order-5 elements
    monkeypatch.setattr(designs, "SUBSET_ENUM_LIMIT", 3)
    monkeypatch.setattr(designs, "set_orbit", _no_orbit)
    with pytest.raises(ResourceLimitError):
        block_search(m11_action12, ParameterSet(12, 22, 11, 6, 5))


def _no_orbit(*args, **kwargs):
    raise AssertionError("an orbit was built before the refusal")


def test_flag_transitive_pairs():
    act = GroupAction("S4", 4, S4)
    design = Design(4, list(combinations(range(4), 2)))
    report = is_flag_transitive(act, design)
    assert report.flag_transitive
    assert report.r_witness == 3


def test_flag_transitive_m11(m11_design, m11_action12):
    report = is_flag_transitive(m11_action12, m11_design)
    assert report.flag_transitive
    assert report.r_witness == 11


def test_not_flag_transitive_under_point_stabilizer(m11_design, m11_action12):
    # the point stabilizer preserves the design but is intransitive
    from ftdesigns.actions import point_stabilizer_gens

    stab = point_stabilizer_gens(m11_action12, 0)
    act = GroupAction("M11_0", 12, stab)
    report = is_flag_transitive(act, m11_design)
    assert not report.flag_transitive


def test_not_flag_transitive_under_a_point_transitive_group():
    # D10 is transitive on the 5 points, but the stabilizer of a point, of
    # order 2, has two orbits on the 4 pairs through it
    act = GroupAction("D10", 5, [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(2,5)(3,4)", 5)])
    report = is_flag_transitive(act, Design(5, list(combinations(range(5), 2))))
    assert (report.flag_transitive, report.r_witness) == (False, 4)


def test_a_design_without_blocks_has_no_flag_to_move():
    report = is_flag_transitive(GroupAction("S4", 4, S4), Design(4, []))
    assert (report.flag_transitive, report.r_witness) == (True, 0)


@st.composite
def groups_and_block_orbits(draw):
    """A subgroup of S_n, n <= 6, given by one or two random generators,
    and a union of one or two of its orbits on k-sets that covers every
    point."""
    n = draw(st.integers(min_value=3, max_value=6))
    gens = draw(st.lists(st.permutations(range(n)).map(Permutation), min_size=1, max_size=2))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    bases = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=k, max_size=k),
                          min_size=1, max_size=2))
    blocks = sorted({b for base in bases for b in scalar_row_orbit(
        gens, tuple(sorted(base)), lambda g, s: tuple(sorted(g(x) for x in s)))[0]})
    assume(len(set().union(*blocks)) == n)
    return n, gens, blocks


@settings(max_examples=150, deadline=None)
@given(groups_and_block_orbits())
def test_flag_transitivity_matches_the_scalar_flag_orbit(case):
    n, gens, blocks = case
    report = is_flag_transitive(GroupAction("G", n, gens), Design(n, blocks))
    assert report.flag_transitive == scalar_flag_transitive(gens, blocks)
    transitive = len(scalar_orbits(gens, n)) == 1
    assert report.r_witness == (len(blocks) * len(blocks[0]) // n if transitive else 0)


def test_flag_transitivity_rejects_non_preserving():
    act = GroupAction("S4", 4, S4)
    design = Design(4, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        is_flag_transitive(act, design)


C5 = GroupAction("C5", 5, [parse_cycles("(1,2,3,4,5)", 5)])


@pytest.mark.parametrize("v", [3, 7])
def test_block_stabilizer_order_checks_the_degree(v):
    # the orbit of {0, 1} under C5 has 5 blocks whatever v is, so |G_B| would read 1
    with pytest.raises(InputError, match=f"design on {v} points, action on 5"):
        block_stabilizer_order(C5, Design(v, list(combinations(range(v), 2))))


@pytest.mark.parametrize("v", [3, 7])
def test_flag_transitivity_checks_the_degree(v):
    # on 7 points the generator's images would be read past its degree
    with pytest.raises(InputError, match=f"design on {v} points, action on 5"):
        is_flag_transitive(C5, Design(v, list(combinations(range(v), 2))))


def test_suzuki_design(suzuki8):
    act, design = suzuki8
    params = verify_2design(design)
    assert params.astuple() == (65, 520, 64, 8, 7)
    assert block_stabilizer_order(act, design) == 56
    assert is_flag_transitive(act, design).flag_transitive


def test_suzuki_design_pair_coverage_identity():
    # 520 * C(8,2) = 7 * C(65,2)
    assert 520 * 28 == 7 * (65 * 64 // 2)


def test_suzuki_design_rejects_non_mersenne_q():
    with pytest.raises(InputError):
        suzuki_design(512)


def _relabelled(design, seed):
    relabel = list(range(design.v))
    random.Random(seed).shuffle(relabel)
    return Design(design.v, [tuple(relabel[x] for x in b) for b in design.blocks])


def _vf2_isomorphic(d1, d2):
    """networkx VF2 on the point-block incidence graphs, as an oracle."""
    def incidence(design):
        graph = nx.Graph()
        graph.add_nodes_from(range(design.v), side="point")
        for i, b in enumerate(design.blocks):
            graph.add_node(("block", i), side="block")
            graph.add_edges_from((("block", i), x) for x in b)
        return graph

    return nx.is_isomorphic(incidence(d1), incidence(d2),
                            node_match=lambda a, b: a["side"] == b["side"])


def test_iso_check_relabelling(m11_design):
    assert iso_check(m11_design, _relabelled(m11_design, 5))


def test_iso_check_different_parameters(m11_design):
    other = Design(12, list(combinations(range(12), 6))[:22])
    try:
        result = iso_check(m11_design, other)
    except DesignError:
        result = False
    assert result in (False,)


def test_iso_check_complement(m11_design):
    complement = Design(12, [tuple(sorted(set(range(12)) - set(b)))
                             for b in m11_design.blocks])
    assert verify_2design(complement).astuple() == (12, 22, 11, 6, 5)
    assert iso_check(m11_design, complement) is _vf2_isomorphic(m11_design, complement)


def test_iso_check_m22_relabelling(m22_design):
    # S(3,6,22): the relabelling that triple counts could not decide
    assert iso_check(m22_design, _relabelled(m22_design, 1)) is True


def test_iso_check_hs_and_suzuki_relabellings(hs_design, suzuki8):
    # both are larger than the old backtracker accepted (v <= 100, b <= 500)
    for design in (hs_design, suzuki8[1]):
        assert iso_check(design, _relabelled(design, 3)) is True


def test_iso_check_non_isomorphic_steiner_triple_systems():
    # PG(3,2) and Bose's STS(15) on Z5 x Z3 have the same parameters
    pg = Design(15, {tuple(sorted((a - 1, b - 1, (a ^ b) - 1)))
                     for a, b in combinations(range(1, 16), 2)})

    def pt(x, i):
        return 5 * i + x

    bose = Design(15, [(pt(x, 0), pt(x, 1), pt(x, 2)) for x in range(5)]
                  + [(pt(x, i), pt(y, i), pt((x + y) * 3 % 5, (i + 1) % 3))
                     for x, y in combinations(range(5), 2) for i in range(3)])
    assert verify_2design(pg) == verify_2design(bose)
    assert iso_check(pg, bose) is False


def test_iso_check_backtracks_past_a_wrong_first_choice():
    # two triangles and a hexagon, as blocks of size 2: refinement alone
    # cannot tell a triangle point from a hexagon point
    def cycle(points):
        return [(a, b) for a, b in zip(points, points[1:] + points[:1])]

    d1 = Design(12, cycle([0, 1, 2]) + cycle([3, 4, 5]) + cycle(list(range(6, 12))))
    d2 = Design(12, cycle(list(range(6))) + cycle([6, 7, 8]) + cycle([9, 10, 11]))
    assert iso_check(d1, d2) is True
    assert iso_check(Design(6, cycle([0, 1, 2]) + cycle([3, 4, 5])),
                     Design(6, cycle(list(range(6))))) is False


@st.composite
def _structure_pairs(draw):
    """Two structures on v <= 9 points, each with one block size drawn for
    it: a relabelling or an independent draw."""
    v = draw(st.integers(1, 9))
    n_blocks = draw(st.integers(0, 10))

    def structure():
        k = draw(st.integers(0, v))
        block = st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True)
        return Design(v, draw(st.lists(block, min_size=n_blocks, max_size=n_blocks)))

    d1 = structure()
    if draw(st.booleans()):
        relabel = draw(st.permutations(range(v)))
        return d1, Design(v, [tuple(relabel[x] for x in b) for b in d1.blocks])
    return d1, structure()


@settings(max_examples=300, deadline=None)
@given(_structure_pairs())
def test_iso_check_agrees_with_vf2(pair):
    d1, d2 = pair
    assert iso_check(d1, d2) is _vf2_isomorphic(d1, d2)


def test_design_text_round_trip(m11_design):
    text = design_to_text(m11_design)
    again = design_from_text(text)
    assert again.v == m11_design.v
    assert np.array_equal(again.blocks, m11_design.blocks)
    assert design_to_text(again) == text


def test_design_text_is_one_indexed():
    text = design_to_text(Design(3, [(0, 1, 2)]))
    assert text == "v 3\n1 2 3\n"


def test_design_text_past_the_uint8_range():
    assert design_to_text(Design(256, [(0, 254, 255)])) == "v 256\n1 255 256\n"


def test_design_text_across_chunk_boundaries(monkeypatch, m22_design, hs_design):
    # no bundled design reaches TEXT_CHUNK_SIZE points, so shrink it: every
    # block of M22 and HS then ends a chunk
    texts = [design_to_text(d) for d in (m22_design, hs_design)]
    monkeypatch.setattr(designs, "TEXT_CHUNK_SIZE", 7)
    for design, text in zip((m22_design, hs_design), texts):
        assert design_to_text(design) == text
        again = design_from_text(text)
        assert again.v == design.v and np.array_equal(again.blocks, design.blocks)


def test_design_rejects_a_point_past_int64():
    for point in (2**63, 2**64 + 1, -2**63 - 1):
        with pytest.raises(InputError, match=f"point {point} does not fit int64"):
            Design(5, [(0, 1, 2), (1, 2, point)])


def test_design_rejects_a_point_count_past_int64():
    # the last point, v - 1, must fit int64 even when no block reaches it
    for v in (2**63 + 1, 2**65):
        with pytest.raises(InputError, match=f"point {v - 1} does not fit int64"):
            Design(v, [(0, 1, 2**63 - 1)])
    assert Design(2**63, [(0, 1, 2**63 - 1)]).blocks.dtype == np.uint64


# Tokens of the design format, so that fuzzed text reaches past the
# `v` line; integers stay small except one past int64 and one too long
# to convert.
_DESIGN_TOKENS = st.sampled_from(["v", "V", "0", "1", "2", "3", "5", "12", "-1",
                                  "+4", "1.5", "x", str(2**64 + 1), "9" * 5000, ""])
_DESIGN_LINES = st.lists(_DESIGN_TOKENS, max_size=6).map(" ".join)
_DESIGN_TEXTS = st.one_of(st.text(), st.lists(_DESIGN_LINES, max_size=10).map("\n".join))


@settings(max_examples=300, deadline=None)
@given(_DESIGN_TEXTS)
@example("v 18446744073709551617\n1 2 18446744073709551617\n2 3 4\n")
def test_design_parser_raises_only_parse_or_input_errors(text):
    try:
        design_from_text(text)
    except (ParseError, InputError):
        pass


def test_counted_identities_on_all_designs(m11_design, m22_design, hs_design, suzuki8):
    for design in (m11_design, m22_design, hs_design, suzuki8[1]):
        p = verify_2design(design)
        assert p.b * p.k == p.v * p.r
        assert p.r * (p.k - 1) == p.lam * (p.v - 1)
