"""Walk through the three-stage candidate pipeline.

Stage 1 needs only group and subgroup orders; it finds 124 feasible
(v, b, r, k, lambda) tuples.  Stage 2 removes tuples whose block count
no maximal-subgroup index divides.  Stage 3 computes point-stabilizer
orbit lengths from the bundled permutation catalog and removes every
tuple with r not dividing lambda * e for some subdegree e.

Run:  python demos/classification_pipeline.py
"""
from ftdesigns.pipeline import (STATUS_FEASIBLE, STATUS_SUBDEGREE,
                                compute_profiles, emit_count_summary,
                                enumerate_all, run_filters)

records = enumerate_all()
print("stage 1: feasible parameter tuples per group")
print(emit_count_summary(records))

print("sample tuples for one subgroup of the 23-point group:")
for rec in records:
    if rec.group == "M23" and rec.nr == 5:
        print("  ", rec.params)

print("\nstage 3 subdegree profiles (computed from the catalog):")
profiles = compute_profiles()
for key, profile in sorted(profiles.items()):
    print(f"  {key[0]:5s} / {key[1]:10s} nr {key[2]}: {profile}")

filtered = run_filters(records, profiles=profiles)
eliminated = [r for r in filtered if r.status == STATUS_SUBDEGREE]
survivors = [r for r in filtered if r.status == STATUS_FEASIBLE]
print(f"\n{len(eliminated)} tuples eliminated by a subdegree; "
      f"{len(survivors)} still feasible after both filters")
print("the survivors are the ones needing block-orbit analysis, e.g.:")
for rec in survivors[:6]:
    print("  ", rec.group, rec.subgroup, rec.params)
