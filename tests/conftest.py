import pytest

from ftdesigns.actions import coset_action
from ftdesigns.bsgs import bsgs_build
from ftdesigns.groupdata import load_catalog
from ftdesigns.pipeline import action_for


@pytest.fixture(scope="session")
def catalog():
    return {e.name: e for e in load_catalog()}


@pytest.fixture(scope="session")
def natural():
    # the entries, and so their chains, are shared: one chain per group
    return lambda name: action_for(name, None)


@pytest.fixture(scope="session")
def m11_action12(catalog, natural):
    entry = catalog["M11"]
    return coset_action(natural("M11").chain,
                        bsgs_build(entry.subgroup("L2(11)").generators, entry.degree),
                        name="M11 on 12 points")


@pytest.fixture(scope="session")
def m11_design(m11_action12):
    from ftdesigns.designs import ParameterSet, orbit_block_search

    found = orbit_block_search(m11_action12, ParameterSet(12, 22, 11, 6, 5))
    assert len(found) == 1
    return found[0]


@pytest.fixture(scope="session")
def m22_design(natural):
    from ftdesigns.designs import ParameterSet, orbit_block_search

    found = orbit_block_search(natural("M22"), ParameterSet(22, 77, 21, 6, 5))
    assert len(found) == 1
    return found[0]


@pytest.fixture(scope="session")
def hs_action176(catalog, natural):
    entry = catalog["HS"]
    return coset_action(natural("HS").chain,
                        bsgs_build(entry.subgroup("U3(5).2").generators, entry.degree),
                        name="HS on 176 points")


@pytest.fixture(scope="session")
def hs_design(catalog, natural, hs_action176):
    from ftdesigns.designs import coset_geometry

    entry = catalog["HS"]
    return coset_geometry(natural("HS").chain, hs_action176,
                          entry.subgroup("S8").generators)


@pytest.fixture(scope="session")
def suzuki8():
    from ftdesigns.designs import suzuki_design
    from ftdesigns.suzuki import suzuki_action

    return suzuki_action(8), suzuki_design(8)


@pytest.fixture(scope="session")
def profiles():
    from ftdesigns.pipeline import compute_profiles

    return compute_profiles()
