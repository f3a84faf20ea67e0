"""The array-based block layer against the tuple and dict code it replaced."""
import hashlib
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftdesigns import bsgs, designs
from ftdesigns.bsgs import orbits
from ftdesigns.designs import (Design, ParameterSet, _rows_through, design_to_text,
                               set_orbit, verify_2design)
from ftdesigns.errors import DesignError, InputError, ResourceLimitError
from ftdesigns.perm import Permutation
from ftdesigns.suzuki import circles

# sha256 of `design build --name m22 --out` as written by the tuple-based search
M22_DESIGN_SHA256 = "6a31ed9a33c441ae2662d5a2e27583eded1e6ddb72a96a3fe596c84ebe9c559f"
BUNDLED_M11 = Path(__file__).resolve().parents[1] / "src/ftdesigns/data/designs/m11.design"


def dict_verify_2design(design: Design) -> ParameterSet:
    """The dict-based verifier the array code replaced, kept as the oracle.
    Two changes: an unevenly covered pair is reported as the first in
    lexicographic order, where the old code took the first in the order
    the pairs were met, and with fewer incidences than points the least
    point in no block is reported before replication is counted."""
    v, blocks = design.v, list(map(tuple, design.blocks.tolist()))
    if v < 3 or not blocks:
        raise InputError("need v >= 3 and at least one block")
    if len(set(blocks)) != len(blocks):
        dup = next(b for i, b in enumerate(blocks) if b in blocks[:i])
        raise DesignError(f"repeated block {dup}", witness=dup)
    k = dict_uniform_size(blocks)
    if v > len(blocks) * k:
        x = min(set(range(v)) - {p for b in blocks for p in b})
        raise DesignError(f"point {x} lies in no block", witness=x)
    r_count = [0] * v
    pair_count = {}
    for b in blocks:
        for x in b:
            r_count[x] += 1
        for pr in combinations(b, 2):
            pair_count[pr] = pair_count.get(pr, 0) + 1
    r = r_count[0]
    for x, rx in enumerate(r_count):
        if rx != r:
            raise DesignError(
                f"replication not constant: r({0})={r}, r({x})={rx}",
                witness=(0, x))
    if len(pair_count) != v * (v - 1) // 2:
        missing = next(pr for pr in combinations(range(v), 2) if pr not in pair_count)
        raise DesignError(f"pair {missing} lies in no block", witness=missing)
    lam_values = set(pair_count.values())
    if len(lam_values) != 1:
        lam0 = pair_count[(0, 1)] if (0, 1) in pair_count else None
        bad = min(pr for pr, c in pair_count.items() if c != lam0)
        raise DesignError(
            f"pair coverage not constant: {bad} lies in {pair_count[bad]} blocks",
            witness=bad)
    params = ParameterSet(v, len(blocks), r, k, lam_values.pop())
    if params.r * (params.k - 1) != params.lam * (params.v - 1):
        raise DesignError(f"counted parameters violate r(k-1)=lambda(v-1): {params}")
    if params.v * params.r != params.b * params.k:
        raise DesignError(f"counted parameters violate vr=bk: {params}")
    return params


def dict_uniform_size(blocks):
    """The oracle's block size check on its sorted tuples, which the Design
    constructor now makes; returns the size or raises with its message."""
    k = len(blocks[0])
    for b in blocks:
        if len(b) != k:
            raise InputError(f"not k-uniform: block sizes {k} and {len(b)}")
    return k


@st.composite
def incidence_structures(draw):
    """Unions of orbits of a few base blocks under the cyclic group, which
    have constant replication but any pair coverage, optionally broken by
    one repeated, dropped, added or resized block.  Drawn as v and a list
    of blocks, since a resized block makes no Design."""
    v = draw(st.integers(min_value=3, max_value=9))
    k = draw(st.integers(min_value=1, max_value=v - 1))
    bases = draw(st.lists(st.sets(st.integers(0, v - 1), min_size=k, max_size=k),
                          min_size=1, max_size=3))
    blocks = [tuple(sorted((x + i) % v for x in base)) for base in bases for i in range(v)]
    blocks = list(dict.fromkeys(blocks))    # still a union of orbits
    mutation = draw(st.sampled_from(["none", "repeat", "drop", "add", "resize"]))
    if mutation == "repeat":
        blocks.append(draw(st.sampled_from(blocks)))
    elif mutation == "drop" and len(blocks) > 1:
        blocks.pop(draw(st.integers(0, len(blocks) - 1)))
    elif mutation == "add":
        blocks.append(tuple(draw(st.sets(st.integers(0, v - 1), min_size=k, max_size=k))))
    elif mutation == "resize":
        blocks.append(tuple(draw(st.sets(st.integers(0, v - 1), min_size=1, max_size=v))))
    return v, blocks


def outcome(verify, design):
    try:
        return ("ok", verify(design))
    except (DesignError, InputError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "witness", None))


@settings(max_examples=400, deadline=None)
@given(incidence_structures(), st.booleans())
def test_verify_2design_matches_dict_oracle(structure, banded):
    v, blocks = structure
    sizes = outcome(dict_uniform_size, sorted(tuple(sorted(b)) for b in blocks))
    if sizes[0] != "ok":    # a resized block: the constructor refuses it
        assert outcome(lambda bs: Design(v, bs), blocks) == sizes
        return
    design = Design(v, blocks)
    # banded: one row of pair counters and one pair code at a time
    table, chunk = (design.v, 1) if banded else (designs.PAIR_TABLE_SIZE,
                                                 designs.PAIR_CHUNK_SIZE)
    with mock.patch.multiple(designs, PAIR_TABLE_SIZE=table, PAIR_CHUNK_SIZE=chunk):
        assert outcome(verify_2design, design) == outcome(dict_verify_2design, design)


def test_verify_2design_witness_is_lexicographic():
    # the blocks meet (0, 3) before (0, 2), and both lie in 1 block, not 2
    blocks = [tuple((x + i) % 7 for x in base) for base in [(0, 1, 3), (0, 1, 4)]
              for i in range(7)]
    with pytest.raises(DesignError) as err:
        verify_2design(Design(7, blocks))
    assert err.value.witness == (0, 2)
    assert str(err.value) == "pair coverage not constant: (0, 2) lies in 1 blocks"


def test_set_orbit_returns_sorted_rows(m11_action12, m11_design):
    base = m11_design.blocks[5]
    orbit = set_orbit(m11_action12.generators, base)
    assert orbit.shape == (22, 6) and orbit.dtype == np.uint8
    assert np.array_equal(orbit[0], base)
    assert (np.diff(orbit.astype(int), axis=1) > 0).all()
    assert np.array_equal(sorted(map(tuple, orbit.tolist())), m11_design.blocks)


def test_set_orbit_limit_boundary(m11_action12, m11_design):
    base = m11_design.blocks[0]
    assert len(set_orbit(m11_action12.generators, base, limit=22)) == 22
    with pytest.raises(ResourceLimitError):
        set_orbit(m11_action12.generators, base, limit=21)


@st.composite
def groups_and_sets(draw):
    """A few random permutations of degree at most 12 and a point set."""
    degree = draw(st.integers(1, 12))
    gens = draw(st.lists(st.permutations(range(degree)).map(Permutation), max_size=3))
    return gens, draw(st.sets(st.integers(0, degree - 1), min_size=1))


def set_closure(gens, base):
    """Every image of the base set under words in the generators, as
    sorted tuples, by repeated application until nothing new turns up."""
    reached, todo = {tuple(sorted(base))}, [tuple(sorted(base))]
    while todo:
        s = todo.pop()
        for g in gens:
            t = tuple(sorted(g(x) for x in s))
            if t not in reached:
                reached.add(t)
                todo.append(t)
    return reached


@settings(max_examples=150, deadline=None)
@given(groups_and_sets())
def test_set_orbit_is_the_closure_of_the_base_set(case):
    gens, base = case
    whole = set_orbit(gens, base)
    assert whole[0].tolist() == sorted(base)
    assert sorted(map(tuple, whole.tolist())) == sorted(set_closure(gens, base))
    # one row per batch: the same rows in the same order
    with mock.patch.object(bsgs, "_BATCH_ENTRIES", 1):
        assert np.array_equal(set_orbit(gens, base), whole)


def test_distinguished_point_matches_orbit_length_definition(suzuki8):
    # a circle through alpha is distinguished at alpha, by the definition
    # that removing alpha leaves a block orbit of length q(q^2+1), exactly
    # when its orbit under the stabilizer of alpha has length q
    act, design = suzuki8
    q, circ = 8, circles(8)
    longest = q * (q * q + 1)
    alpha, alpha_stab = act.base_stabilizer()
    through, stab = _rows_through(circ, alpha, alpha_stab)
    by_length = []
    for i, c in enumerate(through.tolist()):
        try:
            ob = set_orbit(act.generators, [x for x in c if x != alpha], limit=longest)
        except ResourceLimitError:
            continue
        if len(ob) == longest:
            by_length.append(i)
    by_orbit = [o for o in orbits(stab, len(through)) if len(o) == q]
    assert len(by_orbit) == 1 and sorted(by_orbit[0]) == by_length
    punctured = set_orbit(act.generators, [x for x in through[by_length[0]] if x != alpha])
    assert np.array_equal(sorted(map(tuple, punctured.tolist())), design.blocks)


def test_orbit_block_search_finds_the_same_designs(m11_design, m22_design):
    assert design_to_text(m11_design) == BUNDLED_M11.read_text()
    text = design_to_text(m22_design).encode()
    assert hashlib.sha256(text).hexdigest() == M22_DESIGN_SHA256


def test_flag_transitivity_needs_uniform_blocks():
    # blocks of one size are a property of the type: no Design has two
    with pytest.raises(InputError) as err:
        Design(4, [(0, 1), (1, 2, 3)])
    assert str(err.value) == "not k-uniform: block sizes 2 and 3"
