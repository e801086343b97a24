"""Exact-arithmetic stability polytopes and theta-divisor wall crossing for universal Jacobians.

The package computes, over the moduli space of stable marked curves of genus
g with n markings:

* stable marked dual graphs, their contractions and boundary combinatorics;
* stability parameters for degree g-1 rank-1 torsion-free sheaves, the
  polytope decomposition of the stability space, and the twist action on
  polytopes;
* the unique stable multidegree on graphs of loop-free circuit rank 0, with
  a brute-force oracle;
* divisor classes in the lambda/psi/delta basis: theta pullbacks,
  wall-crossing differences, and the Hain, Mueller, and stable-pairs
  comparison classes.

Everything uses exact rational arithmetic; no floating point is involved
anywhere.
"""

from .divisor_classes import (
    DivisorClass,
    basis_labels,
    binom2,
    hain_class,
    mueller_class,
    mueller_comparison,
    stable_pairs_class,
    theta_pullback,
    twist_divisor_coeffs,
    wall_crossing,
)
from .errors import (
    BasisMismatch,
    DegenerateParameter,
    DegreeSumMismatch,
    EmptyOrFullSubset,
    EmptySubset,
    GraphMismatch,
    InadmissiblePair,
    InvalidGN,
    InvalidGraph,
    InvalidParameter,
    JacwallError,
    LoopEdge,
    MalformedInput,
    NoNegativeDegree,
    NonAmple,
    NotTreeLike,
)
from .graphs import (
    BoundaryPair,
    MarkedGraph,
    admissible_pairs,
    boundary_pair_of_edge,
    contract,
    crossing_edge_indices,
    elementary_subgraphs,
    elementary_subgraphs_bruteforce,
    enumerate_tree_type_graphs,
    genus,
    loop_free_circuit_rank,
    normalize_pair,
    two_vertex_graph,
)
from .multidegrees import (
    Multidegree,
    TorsionFreeDegree,
    all_stable_multidegrees_bruteforce,
    is_semistable,
    partial_degree,
    stability_inequality,
    stable_multidegree,
)
from .stability import (
    GraphParameter,
    PolytopeLabel,
    StabilityParameter,
    canonical_parameter,
    check_compatibility,
    connecting_twist,
    dualizing_degree,
    ell,
    extend_to_graph,
    first_wall,
    is_theta_flat,
    is_theta_reduced,
    phi_from_degrees,
    phi_from_label,
    phi_from_slope,
    polytope_label,
    twist_label,
    twist_parameter,
)

__version__ = "0.1.0"
