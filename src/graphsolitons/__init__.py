"""Exact soliton geometry of graph Lie algebras.

A graph G on p vertices with q edges determines a two-step nilpotent Lie
algebra on R^(p+q).  This package decides, in exact rational arithmetic,
whether G is *positive* (the edge-weight system has a positive solution),
builds the corresponding nilsoliton metric and its solvable Einstein/soliton
extensions, and classifies those extensions up to isometry through the action
of the graph's automorphism group on subspaces of R^p.
"""

from .algebra import (
    MetricLieAlgebra,
    NotSoliton,
    SolitonCertificate,
    check_soliton,
    derivation_space,
    graph_algebra,
    graph_ricci_diagonal,
    is_derivation,
    leibniz_rows,
    ricci,
    symmetric_derivation_dimension,
)
from .census import (
    MAX_CENSUS_P,
    canonical_form,
    graph_classes,
    graph_classes_with_aut_order,
    is_connected,
)
from .errors import (
    DegenerateGram,
    DimensionMismatch,
    DuplicateEdge,
    EmptyEdgeSet,
    GraphFormatError,
    GraphSolitonsError,
    GroupTooLarge,
    IndexOutOfRange,
    InvalidArgument,
    InvalidFamilySpec,
    MalformedLine,
    NotAnAutomorphism,
    NotAPermutation,
    NotGraphAlgebra,
    NotPositiveGraph,
    NotReducedEchelon,
    NotSymmetric,
    RankDeficientBasis,
    SelfLoop,
    SingularMatrix,
    UnknownFamily,
    WeightingMismatch,
)
from .graphs import (
    MAX_ALGEBRA_DIM,
    CoherentDecomposition,
    Graph,
    Permutation,
    automorphism_order,
    automorphisms,
    coherent_components,
    induced_edge_permutation,
    line_graph,
    parse_graph,
)
from .positivity import (
    TABLE_ROWS,
    FamilySpec,
    NotPositive,
    PositivityDecision,
    Weighting,
    check_positive_definite,
    edge_similarity_classes,
    family_graph,
    is_positive,
    positivity_matrix,
    solve_weights,
    table1_criterion,
)
from .subspaces import (
    EquivalenceResult,
    SubspaceParam,
    apply_vertex_permutation,
    build_solsoliton,
    canonical_subspace,
    classify_subspaces,
    diagonal_derivation,
    einstein_direction,
    parse_subspace,
    subspace_equivalent,
)

__version__ = "0.1.0"
