"""Acceptance criteria, one test per criterion.

Each test prints a `criterion N: PASS (X.Xs)` line; tolerances are exact
(no numeric slack anywhere) and each criterion asserts its runtime
budget.
"""
import time
from importlib import resources

import numpy as np
import pytest

from ftdesigns.actions import is_primitive
from ftdesigns.bsgs import bsgs_build, orbit, stabilizer_gens
from ftdesigns.designs import (Design, block_stabilizer_order, is_flag_transitive,
                               verify_2design)
from ftdesigns.errors import DesignError
from ftdesigns.families import (g2_orbit_forcing, g2_params,
                                lemma38_block_stabilizer_order, suzuki_params)
from ftdesigns.pipeline import (emit_count_summary, emit_eliminated, emit_report,
                                enumerate_all, run_filters)
from oracles import element_closure


def _golden(name):
    return resources.files("ftdesigns.data").joinpath(f"goldens/{name}").read_text()


def _report(n, t0, budget):
    elapsed = time.time() - t0
    print(f"criterion {n}: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget


def test_criterion_1_candidate_counts():
    t0 = time.time()
    records = enumerate_all()
    summary = emit_count_summary(records)
    assert summary == _golden("table3.csv")
    assert len(records) == 124
    _report(1, t0, 5)


def test_criterion_2_candidate_tuples():
    t0 = time.time()
    records = enumerate_all()
    assert emit_report(records) == _golden("table5.csv")
    # spot checks quoted in the statement of the criterion
    by_key = {}
    for r in records:
        by_key.setdefault((r.group, r.subgroup, r.nr), []).append(r.params.astuple())
    assert by_key[("M11", "A6.2_3", 1)] == [(11, 55, 15, 3, 3)]
    assert len(by_key[("M11", "3^2:Q8.2", 3)]) == 3
    assert len(by_key[("M23", "L3(4).2_2", 2)]) == 19
    _report(2, t0, 5)


def test_criterion_3_subdegrees():
    t0 = time.time()
    from ftdesigns.pipeline import compute_profiles

    profiles = compute_profiles()
    expected = {
        ("M23", "L3(4).2_2", 2): "1^1 42^1 210^1",
        ("M23", "2^4:A7", 3): "1^1 112^1 140^1",
        ("M24", "M22.2", 2): "1^1 44^1 231^1",
        ("J1", "19:6", 4): "1^1 19^1 38^4 57^6 114^9",
        ("J1", "11:10", 5): "1^1 11^1 22^2 55^2 110^13",
        ("HS", "M22", 1): "1^1 22^1 77^1",
        ("McL", "M22", 2): "1^1 330^1 462^1 1232^1",
        ("McL", "M22", 3): "1^1 330^1 462^1 1232^1",
        ("M23", "M11", 5): "1^1 165^1 330^1 792^1",
    }
    for key, profile_text in expected.items():
        assert str(profiles[key]) == profile_text, key
    filtered = run_filters(enumerate_all(), profiles=profiles)
    assert emit_eliminated(filtered) == _golden("table4.csv")
    _report(3, t0, 60)


def test_criterion_4_sporadic_designs():
    t0 = time.time()
    from ftdesigns.actions import GroupAction, coset_action
    from ftdesigns.designs import ParameterSet, coset_geometry, orbit_block_search
    from ftdesigns.groupdata import catalog_entry

    m11 = catalog_entry("M11")
    m11_nat = GroupAction("M11", m11.degree, m11.generators)
    act12 = coset_action(m11_nat.chain,
                         bsgs_build(m11.subgroup("L2(11)").generators, m11.degree),
                         name="M11 on 12 points")
    m11_designs = orbit_block_search(act12, ParameterSet(12, 22, 11, 6, 5))
    assert len(m11_designs) == 1

    m22 = catalog_entry("M22")
    m22_nat = GroupAction("M22", m22.degree, m22.generators)
    m22_designs = orbit_block_search(m22_nat, ParameterSet(22, 77, 21, 6, 5))
    assert len(m22_designs) == 1

    hs = catalog_entry("HS")
    hs_nat = GroupAction("HS", hs.degree, hs.generators)
    act176 = coset_action(hs_nat.chain,
                          bsgs_build(hs.subgroup("U3(5).2").generators, hs.degree),
                          name="HS on 176 points")
    hs_design = coset_geometry(hs_nat.chain, act176, hs.subgroup("S8").generators)

    cases = [
        (act12, m11_designs[0], (12, 22, 11, 6, 5)),
        (m22_nat, m22_designs[0], (22, 77, 21, 6, 5)),
        (act176, hs_design, (176, 1100, 50, 8, 2)),
    ]
    # the same 77-block design under the doubled group
    m222 = GroupAction("M22:2", 22, catalog_entry("M22:2").generators)
    found = orbit_block_search(m222, ParameterSet(22, 77, 21, 6, 5))
    assert len(found) == 1 and np.array_equal(found[0].blocks, m22_designs[0].blocks)
    cases.append((m222, found[0], (22, 77, 21, 6, 5)))

    for action, design, expected in cases:
        assert verify_2design(design).astuple() == expected
        assert is_flag_transitive(action, design).flag_transitive
        assert is_primitive(action)
    _report(4, t0, 120)


def test_criterion_5_suzuki_design():
    t0 = time.time()
    from ftdesigns.designs import suzuki_design
    from ftdesigns.suzuki import suzuki_action

    action, design = suzuki_action(8), suzuki_design(8)
    params = verify_2design(design)
    assert params.astuple() == (65, 520, 64, 8, 7)
    assert len(design.blocks) == 520
    assert action.order == 29120
    assert bsgs_build(action.generators, 65).order() == 29120
    assert is_flag_transitive(action, design).flag_transitive
    assert block_stabilizer_order(action, design) == 56
    _report(5, t0, 30)


def test_criterion_6_family_arithmetic():
    t0 = time.time()
    fam = g2_params(4)
    assert fam.params.astuple() == (2016, 20475, 325, 32, 5)
    assert fam.condition_holds

    forcing = g2_orbit_forcing(4)
    assert forcing.k_j == [16, 15]
    assert forcing.r_j == [5, 5]
    assert forcing.b_j == 325
    for length, k, r in zip(forcing.orbit_lengths, forcing.k_j, forcing.r_j):
        assert forcing.b_j * k == length * r

    value = lemma38_block_stabilizer_order(4, 1)
    assert value == 12288
    assert value * fam.params.b == 251596800   # |G2(4)|

    for q in (8, 32, 128):
        assert suzuki_params(q).condition_holds
    assert not suzuki_params(512).condition_holds
    _report(6, t0, 1)


def test_criterion_7_property_suites(catalog, m11_design, m22_design, hs_design,
                                     suzuki8):
    t0 = time.time()
    from ftdesigns.perm import parse_cycles

    # (a) stabilizer-chain membership equals brute-force closure, order <= 5000
    corpus = [
        ("S4", [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)], 4),
        ("A5", [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2,3)", 5)], 5),
        ("S5", [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)], 5),
        ("D12", [parse_cycles("(1,2,3,4,5,6)", 6), parse_cycles("(2,6)(3,5)", 6)], 6),
        ("PGL2(7)", [parse_cycles("(3,4,6,7)(5,8)", 8),
                     parse_cycles("(1,2,3)(4,5,6)", 8)], 8),
    ]
    for entry in catalog.values():
        for sub in entry.subgroups:
            if sub.generators and sub.order <= 5000:
                corpus.append((f"{entry.name}:{sub.name}", sub.generators,
                               entry.degree))
    for name, gens, degree in corpus:
        closure = element_closure(gens, degree)
        chain = bsgs_build(gens, degree)
        assert chain.order() == len(closure), name
        assert all(p in chain for p in closure), name

    # (b) orbit-stabilizer identity
    for name, gens, degree in corpus:
        chain = bsgs_build(gens, degree)
        for pt in range(0, degree, max(1, degree // 4)):
            stab = stabilizer_gens(chain, pt)
            so = bsgs_build(stab, degree).order() if stab else 1
            assert len(orbit(gens, pt, degree)) * so == chain.order(), name

    # (c) identities from counted values on every verified design
    for design in (m11_design, m22_design, hs_design, suzuki8[1]):
        p = verify_2design(design)
        assert p.b * p.k == p.v * p.r
        assert p.r * (p.k - 1) == p.lam * (p.v - 1)

    # (d) single-block deletion always breaks verification
    for design in (m11_design, m22_design, hs_design):
        for drop in range(len(design.blocks)):
            mutated = Design(design.v, np.delete(design.blocks, drop, axis=0))
            with pytest.raises(DesignError):
                verify_2design(mutated)
    _report(7, t0, 60)
