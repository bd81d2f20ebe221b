"""diffchar: differential characters on finite simplicial complexes.

Exact-arithmetic toolkit for secondary invariants on triangulated
spaces: cochain sparks and their character groups, star products and
duality pairings, torsion linking forms, discrete Hodge theory with
Abel-Jacobi maps, discrete Morse flows, and low-degree geometric models
(circle-valued functions, U(1) lattice connections, gerbes).
"""

from .builders import build_space
from .characters import (
    CharacterStructure,
    DualStructure,
    character_structure,
    character_table,
    dual_structure,
    duality_match,
    verify_sequences,
)
from .cohomology import (
    AbelianGroupStructure,
    circle_cohomology_structure,
    cohomology_generators,
    cohomology_structure,
    homology_structure,
    poincare_dual,
)
from .complexes import Chain, Cochain, ComplexError, SimplicialComplex
from .hodge import (
    HodgeContext,
    HodgeError,
    abel_jacobi,
    is_principal,
    point_abel_jacobi,
    spark_from_cocycle,
)
from .morse import Matching, MorseFlow, greedy_matching, morse_spark
from .sparks import (
    Spark,
    SparkError,
    curvature,
    d2_class,
    duality_pair,
    holonomy,
    linking_number,
    pullback_spark,
    spark_equivalent,
    star,
    torsion_linking_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "Chain",
    "CharacterStructure",
    "Cochain",
    "ComplexError",
    "DualStructure",
    "HodgeContext",
    "HodgeError",
    "Matching",
    "MorseFlow",
    "SimplicialComplex",
    "Spark",
    "SparkError",
    "abel_jacobi",
    "build_space",
    "character_structure",
    "character_table",
    "circle_cohomology_structure",
    "cohomology_generators",
    "cohomology_structure",
    "curvature",
    "d2_class",
    "dual_structure",
    "duality_match",
    "duality_pair",
    "greedy_matching",
    "holonomy",
    "homology_structure",
    "is_principal",
    "linking_number",
    "morse_spark",
    "poincare_dual",
    "point_abel_jacobi",
    "pullback_spark",
    "spark_equivalent",
    "spark_from_cocycle",
    "star",
    "torsion_linking_matrix",
    "verify_sequences",
]
