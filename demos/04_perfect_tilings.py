#!/usr/bin/env python3
"""Perfect tilings: exact search, T(F), the dense tiler, extremal limits.

Run:  python demos/04_perfect_tilings.py
"""

import numpy as np

from eotile import (
    build_graph,
    canonical_clique,
    extremal_construction,
    local_absorbers,
    monotone_path_graph,
    path_with_ranks,
    perfect_tiling_exact,
    tile_dense_paths,
    tile_via_cliques,
    tiling_number,
    verify_tiling,
)
from eotile.canonical import CanonicalType

print("Exact perfect tilings, smallest example first:")
host = canonical_clique(CanonicalType.MIN, 4)
piece = path_with_ranks("132")
tiling = perfect_tiling_exact(host, piece)
print(f"  min K_4 tiled by the path 132: piece {tiling.pieces[0].vertex_map}")

print()
print("T(F) is the least clique size whose every ordering tiles perfectly:")
print("  T(K_3 ordering) =", tiling_number(canonical_clique(CanonicalType.MIN, 3), 5))
print("  T(path 132)     =", tiling_number(piece, 5))
print("  T(path 1423)    =", tiling_number(path_with_ranks("1423"), 5), "(not tileable)")

print()
print("Local absorbers, the absorbing method's flexible sets: each (2k+1)-set")
print("below tiles together with either endpoint of the pair (v_1, v_2).")
k9 = canonical_clique(CanonicalType.MIN, 9)
absorbers = list(local_absorbers(k9, 0, 1, 2))
print(f"  min K_9, k=2: {len(absorbers)} absorber sets; first = "
      f"{sorted(absorbers[0].vertices)}")

print()
print("The dense tiler runs the lazy least-vertex exact cover on the whole host:")
rng = np.random.default_rng(17)
pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
while True:
    mask = rng.random(len(pairs)) < 0.9
    chosen = [p for p, keep in zip(pairs, mask) if keep]
    degrees = [0] * 12
    for u, v in chosen:
        degrees[u] += 1
        degrees[v] += 1
    if min(degrees) >= 9:
        break
ranks = rng.permutation(len(chosen)) + 1
dense = build_graph(12, [(u, v, int(r)) for (u, v), r in zip(chosen, ranks)])
tiling = tile_dense_paths(dense, 3)
print(f"  12-vertex host, min degree {dense.min_degree()}: "
      f"{len(tiling.pieces)} monotone paths, verified = "
      f"{verify_tiling(dense, monotone_path_graph(3), tiling)}")

print()
print("The clique-cover route tiles via equitable cliques:")
k12 = canonical_clique(CanonicalType.INV_MAX, 12)
tiling = tile_via_cliques(k12, piece, 4)
print(f"  inv-max K_12 by 132 through K_4 blocks: {len(tiling.pieces)} pieces")

print()
print("Two near-equal cliques, neither divisible by k+1, block everything:")
for n, k in ((8, 3), (12, 1)):
    g = extremal_construction("TwoCliques", n, k)
    refuted = perfect_tiling_exact(g, monotone_path_graph(k)) is None
    print(f"  n={n}, k={k}: min degree {g.min_degree()}, perfect tiling exists: "
          f"{not refuted}")
