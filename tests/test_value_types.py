"""Every value class is a frozen slotted dataclass with unchanged equality.

Six classes compare by value (their fields, memo fields excluded); the
rest compare by identity.  Memo fields (cached normal form, separation
report, R-diagram report, complex report, echelon form, kernel) and
derived fields never take part in ``==``, ``hash`` or ``repr``.
"""

import dataclasses

import pytest

from rdiagram.fplinalg import FpMatrix, FpSubspace, null_space
from rdiagram.homology import (
    ChainComplexR,
    canonical_kernel_presentation,
    closed_form_components,
    generator_sets,
    homology_presentation,
    reduce_homology,
    validate_complex,
)
from rdiagram.intlinalg import IntMatrix, Lattice, kernel_basis
from rdiagram.oracle import underlying_invariants_of_rdiagram
from rdiagram.presentations import ModuleMap, ZModulePresentation
from rdiagram.morphisms import epi_conditions, kernel_diagram, pullback_group
from rdiagram.pullback import (
    DiagramMorphism,
    LatticeRModule,
    is_separated,
    separate,
    separate_presented,
)
from rdiagram.reduction import SubDiagram, free_diagram, validate_rdiagram

from helpers import free_rmodule, identity_map, identity_morphism

VALUE_EQUALITY = {
    "IntMatrix",
    "Lattice",
    "FpMatrix",
    "FpSubspace",
    "ZModulePresentation",
    "GroupInvariants",
}

IDENTITY_EQUALITY = {
    "ModuleMap",
    "LatticeRModule",
    "PullbackDiagram",
    "SeparationReport",
    "Separation",
    "PullbackModule",
    "DiagramMorphism",
    "KernelDiagram",
    "EpiReport",
    "ChainComplexR",
    "ComplexReport",
    "GeneratorSets",
    "CanonicalKernel",
    "ClosedFormComponents",
    "SeparatedPresentation",
    "SubDiagram",
    "RDiagram",
    "RDiagramReport",
}


def _build() -> dict:
    """One instance of every value class, keyed by class name."""
    rows = IntMatrix.from_rows
    C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
    d1, d2 = C.pair(0)
    pres = homology_presentation(C, 1)
    rd = reduce_homology(pres)
    sep = separate(free_rmodule(3, 1))
    m = identity_morphism(sep.diagram)
    K = free_diagram(3, 1)
    objects = [
        IntMatrix.identity(2),
        Lattice.scaled_full(2, 3),
        FpMatrix.from_rows(3, [[1, 2], [2, 1]]),
        FpSubspace.zero(3, 2).complement(),
        ZModulePresentation.fp_elementary(3, 2),
        identity_map(ZModulePresentation.free(2)),
        free_rmodule(3, 1),
        sep,
        sep.diagram,
        is_separated(sep.diagram),
        pullback_group(sep.diagram),
        m,
        kernel_diagram(m),
        epi_conditions(m),
        C,
        validate_complex(C),
        generator_sets(d1, d2, C.p),
        canonical_kernel_presentation(d1, d2, C.p),
        pres,
        closed_form_components(pres),
        rd,
        validate_rdiagram(rd),
        underlying_invariants_of_rdiagram(rd),
        SubDiagram(K, Lattice.zero(1), FpSubspace.zero(3, 1), Lattice.zero(1)),
    ]
    return {type(obj).__name__: obj for obj in objects}


VALUES = _build()
# replace() rebuilds through __init__, which needs every init-only parameter
INIT_ONLY = {"SubDiagram": {"K": free_diagram(3, 1)}}


def test_every_value_class_is_covered():
    assert set(VALUES) == VALUE_EQUALITY | IDENTITY_EQUALITY
    assert len(VALUES) == 24


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_class_is_a_frozen_slotted_dataclass(name):
    obj = VALUES[name]
    cls = type(obj)
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    assert "__slots__" in vars(cls) and not hasattr(obj, "__dict__")
    public = [f.name for f in dataclasses.fields(cls) if not f.name.startswith("_")]
    assert public
    for field_name in public:
        with pytest.raises(AttributeError):
            setattr(obj, field_name, getattr(obj, field_name))
    for f in dataclasses.fields(cls):
        if f.name.startswith("_"):
            assert not (f.init or f.compare or f.repr), f.name


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_is_by_value_or_identity_as_before(name):
    obj = VALUES[name]
    twin = dataclasses.replace(obj, **INIT_ONLY.get(name, {}))
    assert obj == obj
    if name in VALUE_EQUALITY:
        assert twin == obj and hash(twin) == hash(obj)
    else:
        assert twin != obj
        assert type(obj).__hash__ is object.__hash__


def test_memo_fields_do_not_affect_equality_or_hash():
    P, fresh = ZModulePresentation.fp_elementary(3, 2), ZModulePresentation.fp_elementary(3, 2)
    P.normal_form()
    assert P._normal_form is not None and fresh._normal_form is None
    assert P == fresh and hash(P) == hash(fresh)

    M, fresh = FpMatrix.from_rows(3, [[1, 2], [2, 1]]), FpMatrix.from_rows(3, [[1, 2], [2, 1]])
    M.rank()
    assert M._kernel is not None and fresh._kernel is None
    assert M == fresh and hash(M) == hash(fresh)

    D = free_diagram(3, 2)
    before = hash(D)
    is_separated(D)
    assert D._sep_cache is not None
    assert hash(D) == before and D == D
    assert D != free_diagram(3, 2)

    rd = VALUES["RDiagram"]
    before = hash(rd)
    validate_rdiagram(rd)
    assert rd._report is not None and hash(rd) == before

    A, fresh = IntMatrix.from_rows([[2, 4]]), IntMatrix.from_rows([[2, 4]])
    kernel_basis(A)
    assert A._kernel is not None and not hasattr(fresh, "_kernel")
    assert A == fresh and hash(A) == hash(fresh) and repr(A) == repr(fresh)

    C = ChainComplexR(2, [(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[0]]))])
    before = hash(C)
    validate_complex(C)
    C.pair(-1)
    assert C._report is not None and hash(C) == before and C == C


def test_fp_subspace_equality_ignores_pivots():
    # the constructor checks that the pivots are those of the RREF basis,
    # so == compares the basis alone and a mismatched pivot list is refused
    W = FpSubspace.zero(3, 2).complement()
    assert [f.name for f in dataclasses.fields(W) if f.compare] == ["p", "ambient", "basis"]
    with pytest.raises(ValueError, match="pivots"):
        dataclasses.replace(W, pivots=())


def _float_entry_points(x):
    """Each library entry point that converts entries, handed the float ``x``."""
    ring = free_rmodule(2, 1).lattice
    return {
        "IntMatrix.from_rows": lambda: IntMatrix.from_rows([[x]]),
        "IntMatrix.from_cols": lambda: IntMatrix.from_cols([[x]]),
        "Lattice.from_generators": lambda: Lattice.from_generators(1, [(x,)]),
        "Lattice.solve": lambda: Lattice.full(1).solve((x,)),
        "FpMatrix.from_rows": lambda: FpMatrix.from_rows(3, [[x]]),
        "FpMatrix.solve_many": lambda: FpMatrix.identity(3, 1).solve_many([(x,)]),
        "FpSubspace.from_vectors": lambda: FpSubspace.from_vectors(3, 1, [(x,)]),
        "FpSubspace.coords_in": lambda: FpSubspace.zero(3, 1).complement().coords_in((x,)),
        "null_space": lambda: null_space(3, [[x]], 1),
        "ChainComplexR ranks": lambda: ChainComplexR(3, [], ranks=[x]),
        "separate_presented generators": lambda: separate_presented(
            2, 1, 1, ring, Lattice.zero(2), generators=[(x, x)]
        ),
        "ZModulePresentation.elements_equal": lambda: ZModulePresentation.free(1).elements_equal(
            (x,), (0,)
        ),
    }


@pytest.mark.parametrize("x", [2.5, 0.4, 2.0])
@pytest.mark.parametrize("name", sorted(_float_entry_points(0)))
def test_library_entry_points_refuse_float_entries(name, x):
    # int() would truncate 2.5 to 2, and even an integral float is refused:
    # the library computes on integers only
    with pytest.raises(TypeError):
        _float_entry_points(x)[name]()
