"""Edge-ordered graph tilings: canonical orderings, embeddings, and tilers."""

from types import ModuleType as _ModuleType

from .canonical import (
    ALL_STAR_TYPES,
    CANONICAL_COINCIDENT_TYPES,
    CANONICAL_ORDER,
    CanonicalType,
    StarFamily,
    StarType,
    canonical_clique,
    canonical_labels,
    monotone_hamilton_cycle,
    star_canonical_clique,
    star_labels,
)
from .characterize import (
    Verdict,
    add_pendant,
    add_two_pendants,
    c4_1243,
    d_graph,
    d_minus,
    d_plus,
    extremal_vertices,
    family_graph,
    is_tileable,
    is_turanable,
    is_universally_tileable,
    monotone_cycle,
    path_with_ranks,
    turanable_four_coloring,
)
from .core import (
    EdgeOrderedGraph,
    build_graph,
    canonical_form,
    chromatic_number,
    enumerate_orderings,
    induced_subgraph,
    reverse,
)
from .embed import (
    Embedding,
    SearchBudget,
    StarColor,
    are_order_isomorphic,
    classify_star_canonical,
    count_copies,
    count_order_automorphisms,
    find_embedding,
    find_monotone_path,
    find_star_canonical_subclique,
    iter_embeddings,
    monotone_path_graph,
    monotone_star_subsequence,
    order_isomorphisms,
    star_edge_coloring,
    verify_embedding,
)
from .errors import (
    BadAnchor,
    BadDivisibility,
    BadSize,
    BadSpec,
    BadSplit,
    BadVertex,
    CertificateError,
    DuplicateEdge,
    EotileError,
    Inconclusive,
    MissingEdge,
    NotComplete,
    NotTuranable,
    ParseError,
    RankCollision,
)
from .necessity import (
    ESTABLISHED_NECESSARY,
    NecessityReport,
    necessity_witness,
    scan_classes,
    sufficiency_probe,
)
from .tiling import (
    AbsorberSet,
    DegreeBoundWarning,
    Tiling,
    TilerConfig,
    extremal_construction,
    local_absorbers,
    perfect_tiling_exact,
    tile_dense_paths,
    tile_via_cliques,
    tiling_number,
    verify_tiling,
)

# Submodules stay reachable as ``eotile.core`` and so on, but are not exported.
__all__ = [
    name
    for name, value in sorted(globals().items())
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]
__version__ = "0.1.0"
