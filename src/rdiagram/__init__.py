"""R-diagrams for modules over p-pullback rings.

Exact-arithmetic computation of normal-form presentations (R-diagrams) for
finitely generated modules over the subring of Z + Z of pairs (m, n) with
m = n mod p, in particular for homology of chain complexes of free modules.

The layers, bottom up: ``intlinalg`` (integer matrices, lattices, HNF/SNF),
``fplinalg`` (F_p matrices and subspaces), ``presentations`` (Z-module
presentations and maps), ``pullback`` (diagrams, separation, diagram
morphisms), ``reduction`` (presentation-to-R-diagram calculus), ``homology``
(chain complexes and the kernel presentation pipeline), ``oracle``
(brute-force underlying-group invariants), ``cli`` (command line),
``randomgen`` (seeded random inputs for tests and the self-test).
``morphisms`` (mono/epi criteria) is outside the pipeline and not loaded here.
"""

from .intlinalg import IntMatrix, Lattice
from .fplinalg import FpMatrix, FpSubspace
from .presentations import ModuleMap, ZModulePresentation
from .pullback import (
    DiagramMorphism,
    LatticeRModule,
    PullbackDiagram,
    Separation,
    is_separated,
    separate,
    separate_presented,
)
from .reduction import (
    RDiagram,
    SeparatedPresentation,
    SubDiagram,
    free_diagram,
    quotient_presentation,
    reduce_K,
    reduce_barf,
    reduce_combined,
    reduce_monos,
    reduce_sequential,
    validate_rdiagram,
)
from .homology import (
    CanonicalKernel,
    ChainComplexR,
    ClosedFormComponents,
    GeneratorSets,
    canonical_kernel_presentation,
    closed_form_components,
    congruent_kernel_lattice,
    generator_sets,
    homology_presentation,
    homology_presentations,
    homology_rdiagram,
    kernel_split,
    reduce_homology,
    rewrite_differential,
    validate_complex,
)
from .oracle import (
    GroupInvariants,
    integer_homology_invariants,
    invariants_equal,
    underlying_invariants_of_presentation,
    underlying_invariants_of_rdiagram,
)

__version__ = "0.1.0"

__all__ = [
    "IntMatrix",
    "Lattice",
    "FpMatrix",
    "FpSubspace",
    "ModuleMap",
    "ZModulePresentation",
    "DiagramMorphism",
    "LatticeRModule",
    "PullbackDiagram",
    "Separation",
    "is_separated",
    "separate",
    "separate_presented",
    "RDiagram",
    "SeparatedPresentation",
    "SubDiagram",
    "free_diagram",
    "quotient_presentation",
    "reduce_K",
    "reduce_barf",
    "reduce_combined",
    "reduce_monos",
    "reduce_sequential",
    "validate_rdiagram",
    "CanonicalKernel",
    "ChainComplexR",
    "ClosedFormComponents",
    "GeneratorSets",
    "canonical_kernel_presentation",
    "closed_form_components",
    "congruent_kernel_lattice",
    "generator_sets",
    "homology_presentation",
    "homology_presentations",
    "homology_rdiagram",
    "kernel_split",
    "reduce_homology",
    "rewrite_differential",
    "validate_complex",
    "GroupInvariants",
    "integer_homology_invariants",
    "invariants_equal",
    "underlying_invariants_of_presentation",
    "underlying_invariants_of_rdiagram",
    "__version__",
]
