"""The ovoid in projective 3-space over GF(8) and its design.

The 65 ovoid points are cut by the 585 planes in sections of size 1 or
9; the 520 size-9 sections are the circles of an inversive plane.
Removing the distinguished point of each circle leaves the blocks of a
flag-transitive 2-(65, 8, 7) design for the 29120-element group.

Run:  python demos/suzuki_ovoid.py
"""
from itertools import combinations

from ftdesigns.designs import (block_stabilizer_order, is_flag_transitive,
                               suzuki_design, verify_2design)
from ftdesigns.gfield import GF
from ftdesigns.suzuki import circles, ovoid_points, suzuki_action

f = GF(3)
print("GF(8) with x^3 = x + 1:")
print("  powers of x:", [f.pow(2, i) for i in range(8)])

ov = ovoid_points(8)
print(f"\novoid: {len(ov.points)} points; first three: {ov.points[:3]}")

act = suzuki_action(8)
print(f"group: degree {act.degree}, order {act.order} = 64*65*7")

circ = circles(8, ov)
print(f"circles: {len(circ)}, all of size {len(circ[0])}")
pair_counts = {}
for c in circ:
    for pr in combinations(c, 2):
        pair_counts[pr] = pair_counts.get(pr, 0) + 1
print("every point pair lies on", set(pair_counts.values()), "circles")

design = suzuki_design(8)
params = verify_2design(design)
print(f"\ndesign: 2-({params.v},{params.b},{params.r},{params.k},{params.lam})")
print("flag-transitive:", is_flag_transitive(act, design).flag_transitive)
print("block stabilizer order:", block_stabilizer_order(act, design))
