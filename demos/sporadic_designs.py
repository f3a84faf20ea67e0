"""Build the three sporadic flag-transitive designs and verify everything.

Each design is found by `block_search`: for a prime p that divides the
group order but not the block count, a block stabilizer holds a Sylow
p-subgroup, so some block is a union of cycles of an element of order
p, and the orbits of those few unions are built and verified.

- 2-(12,22,11,6,5): hexad orbit on 12 points under the 7920-element
  group.
- 2-(22,77,21,6,5): the hexads of the triple system on 22 points, under
  the 443520-element group and its double.
- 2-(176,1100,50,8,2): the octad geometry on 176 points, whose block
  stabilizer has order 40320.

Run:  python demos/sporadic_designs.py
"""
import numpy as np

from ftdesigns.actions import is_primitive
from ftdesigns.designs import (ParameterSet, block_search, block_stabilizer_order,
                               design_to_text, is_flag_transitive, verify_2design)
from ftdesigns.pipeline import action_for


def show(label, action, design):
    params = verify_2design(design)
    report = is_flag_transitive(action, design)
    print(f"{label}: 2-({params.v},{params.b},{params.r},{params.k},{params.lam})")
    print(f"  flag-transitive: {report.flag_transitive} (r = {report.r_witness})")
    print(f"  point-primitive: {is_primitive(action)}")
    print(f"  block stabilizer order: {block_stabilizer_order(action, design)}")


act12 = action_for("M11", "L2(11)")
design = block_search(act12, ParameterSet(12, 22, 11, 6, 5))[0]
show("M11 on 12 points", act12, design)
print("  canonical export starts:",
      design_to_text(design).splitlines()[1], "...")

act22 = action_for("M22", None)
design22 = block_search(act22, ParameterSet(22, 77, 21, 6, 5))[0]
show("M22 on 22 points", act22, design22)

act222 = action_for("M22:2", None)
design222 = block_search(act222, ParameterSet(22, 77, 21, 6, 5))[0]
show("M22:2 on 22 points", act222, design222)
print("  same block set as under M22:", np.array_equal(design222.blocks, design22.blocks))

act176 = action_for("HS", "U3(5).2")
design176 = block_search(act176, ParameterSet(176, 1100, 50, 8, 2))[0]
show("HS on 176 points", act176, design176)
