#!/usr/bin/env python3
"""Which of the twenty star-canonical types does the tileability test need?

Run:  python demos/05_necessity_scan.py
"""

from eotile import (
    SearchBudget,
    are_order_isomorphic,
    d_graph,
    find_embedding,
    star_canonical_clique,
)
from eotile.canonical import ALL_STAR_TYPES, CANONICAL_COINCIDENT_TYPES
from eotile.necessity import (
    ESTABLISHED_NECESSARY,
    necessity_witness,
    sufficiency_probe,
)

print("Eight types have established small witnesses of necessity:")
for kind in ESTABLISHED_NECESSARY:
    print(f"  {kind.label}")

print()
print("A bounded witness scan over all graphs on at most 4 vertices asks,")
print("per type, for a graph embeddable in the other nineteen orderings")
print("but not the target's.  Scan result at f_max = 4, all twenty scans on")
print("one budget, so that they read one profile table:")
budget = SearchBudget()
found_any = False
for kind in ALL_STAR_TYPES:
    report = necessity_witness(kind, 4, budget)
    if report.witness is not None:
        found_any = True
        print(f"  {kind.label:22s} witness on {report.witness.n} vertices")
if not found_any:
    print("  no type has a witness this small; larger graphs are needed")
    print("  (the reports record the frontier, so 'none' stays a bounded claim)")
print(f"  all twenty scans took {budget.nodes} search nodes")

print()
print("Sufficiency probing drops types and searches for a separating graph.")
print("The four types coinciding with the canonical orderings are exactly")
print("the Turanability test; they do NOT suffice for tileability:")
counterexample = sufficiency_probe(set(CANONICAL_COINCIDENT_TYPES), 4)
print(f"  counterexample found on {counterexample.n} vertices,",
      f"isomorphic to D_4: {are_order_isomorphic(counterexample, d_graph(4)) is not None}")
target = next(
    k for k in ALL_STAR_TYPES
    if k not in CANONICAL_COINCIDENT_TYPES
    and find_embedding(counterexample, star_canonical_clique(k, 4)[0]) is None
)
print(f"  it passes all four canonical types yet fails {target.label}")

print()
print("Dropping nothing leaves nothing to separate:")
print("  probe(all twenty) =", sufficiency_probe(set(ALL_STAR_TYPES), 4))
