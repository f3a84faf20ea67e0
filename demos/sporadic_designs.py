"""Build the three sporadic flag-transitive designs and verify everything.

- 2-(12,22,11,6,5): hexad orbit on 12 points, found by exhaustive
  6-subset search under the 7920-element group.
- 2-(22,77,21,6,5): the hexads of the triple system on 22 points, found
  the same way under the 443520-element group and its double.
- 2-(176,1100,50,8,2): the octad geometry on 176 points, realized as a
  coset geometry with the bundled 40320-element block stabilizer.

Run:  python demos/sporadic_designs.py
"""
import numpy as np

from ftdesigns.actions import GroupAction, coset_action, is_primitive
from ftdesigns.designs import (ParameterSet, block_stabilizer_order,
                               coset_geometry, design_to_text,
                               is_flag_transitive, orbit_block_search,
                               verify_2design)
from ftdesigns.groupdata import catalog_entry


def show(label, action, design):
    params = verify_2design(design)
    report = is_flag_transitive(action, design)
    print(f"{label}: 2-({params.v},{params.b},{params.r},{params.k},{params.lam})")
    print(f"  flag-transitive: {report.flag_transitive} (r = {report.r_witness})")
    print(f"  point-primitive: {is_primitive(action)}")
    print(f"  block stabilizer order: {block_stabilizer_order(action, design)}")


m11 = catalog_entry("M11")
natural = GroupAction.natural("M11", m11.generators)
act12 = coset_action(natural.chain, m11.subgroup("L2(11)").generators,
                     name="M11 on 12 points")
design = orbit_block_search(act12, 6, ParameterSet(12, 22, 11, 6, 5))[0]
show("M11 on 12 points", act12, design)
print("  canonical export starts:",
      design_to_text(design).splitlines()[1], "...")

m22 = catalog_entry("M22")
act22 = GroupAction.natural("M22", m22.generators)
design22 = orbit_block_search(act22, 6, ParameterSet(22, 77, 21, 6, 5))[0]
show("M22 on 22 points", act22, design22)

m222 = catalog_entry("M22:2")
act222 = GroupAction.natural("M22:2", m222.generators)
design222 = orbit_block_search(act222, 6, ParameterSet(22, 77, 21, 6, 5))[0]
show("M22:2 on 22 points", act222, design222)
print("  same block set as under M22:", np.array_equal(design222.blocks, design22.blocks))

hs = catalog_entry("HS")
hs_nat = GroupAction.natural("HS", hs.generators)
act176 = coset_action(hs_nat.chain, hs.subgroup("U3(5).2").generators,
                      name="HS on 176 points")
design176 = coset_geometry(hs_nat.chain, act176, hs.subgroup("S8").generators)
show("HS on 176 points", act176, design176)
