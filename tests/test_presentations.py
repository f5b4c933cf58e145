"""Tests for presented abelian groups and maps between them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiagram.intlinalg import IntMatrix, Lattice, preimage_lattice
from rdiagram.presentations import (
    ModuleMap,
    ZModulePresentation,
    check_map,
    quotient,
)


def pres(gens, rel_vectors):
    return ZModulePresentation(gens, Lattice.from_generators(gens, rel_vectors))


@st.composite
def presentations(draw, max_gens=5, max_entry=10):
    g = draw(st.integers(0, max_gens))
    k = draw(st.integers(0, g + 1))
    rels = [[draw(st.integers(-max_entry, max_entry)) for _ in range(g)] for _ in range(k)]
    return pres(g, rels)


def p_torsion(M, p):
    """Generators of ``M[p] = {x : p*x = 0}``: the preimage of the relations under p."""
    return preimage_lattice(IntMatrix.identity(M.gens).scale(p), M.relations).basis


@st.composite
def unimodular(draw, n, ops=6):
    """Product of elementary matrices: shear, swap, negate."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, ops))):
        kind = draw(st.integers(0, 2))
        if n < 1:
            break
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if kind == 0 and i != j:
            c = draw(st.integers(-3, 3))
            for col in range(n):
                M[i][col] += c * M[j][col]
        elif kind == 1:
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-x for x in M[i]]
    return IntMatrix.from_rows(M, cols=n)


# --------------------------------------------------------------------------
# frozen small cases
# --------------------------------------------------------------------------


def test_normalize_cyclic():
    P = pres(1, [(2,)])
    assert P.normal_form() == (0, (2,))


def test_normalize_free():
    assert pres(2, []).normal_form() == (2, ())


def test_normalize_diag_2_4():
    P = pres(2, [(2, 0), (0, 4)])
    assert P.normal_form() == (0, (2, 4))


def test_check_map_identity():
    P = pres(2, [(2, 0)])
    assert check_map(ModuleMap.identity(P))


def test_check_map_projection_to_z2():
    f = ModuleMap(ZModulePresentation.free(1), pres(1, [(2,)]), IntMatrix.from_rows([[1]]))
    assert check_map(f)


def test_check_map_rejects_z2_into_z():
    with pytest.raises(ValueError, match="does not carry source relations"):
        ModuleMap(pres(1, [(2,)]), ZModulePresentation.free(1), IntMatrix.from_rows([[1]]))


def test_quotient_by_nothing():
    P = pres(2, [(2, 0)])
    Q, proj = quotient(P, [])
    assert Q == P
    assert proj.matrix == IntMatrix.identity(2)


def test_quotient_z_by_2():
    Q, _ = quotient(ZModulePresentation.free(1), [(2,)])
    assert Q.normal_form() == (0, (2,))


def test_quotient_z2_by_diag():
    Q, _ = quotient(ZModulePresentation.free(2), [(2, 0), (0, 4)])
    assert Q.normal_form() == (0, (2, 4))


def test_kernel_of_projection_to_z2():
    f = ModuleMap(ZModulePresentation.free(1), pres(1, [(2,)]), IntMatrix.from_rows([[1]]))
    assert f.kernel_lattice().basis == ((2,),)


def test_kernel_z4_to_z2_brute_force():
    f = ModuleMap(pres(1, [(4,)]), pres(1, [(2,)]), IntMatrix.from_rows([[1]]))
    gens = f.kernel_lattice().basis
    assert gens == ((2,),)
    # brute force over the four elements of Z/4
    kernel_elements = {x for x in range(4) if x % 2 == 0}
    generated = {(g[0] * k) % 4 for g in gens for k in range(4)}
    assert generated == kernel_elements


def test_kernel_lattice_is_computed_once_per_map():
    f = ModuleMap(ZModulePresentation.free(2), pres(1, [(3,)]), IntMatrix.from_rows([[1, 2]]))
    first = f.kernel_lattice()
    assert f.kernel_lattice() is first
    assert first == preimage_lattice(f.matrix, f.target.relations)


def test_kernel_of_injective_map_is_relations():
    f = ModuleMap.identity(ZModulePresentation.free(2))
    assert f.kernel_lattice() == f.source.relations
    assert f.kernel_lattice().basis == ()


def test_p_torsion_of_free_module():
    assert p_torsion(ZModulePresentation.free(1), 3) == ()


def test_p_torsion_of_zp_is_everything():
    got = p_torsion(pres(1, [(3,)]), 3)
    assert got == ((1,),)


def test_p_torsion_of_z9_brute_force():
    got = p_torsion(pres(1, [(9,)]), 3)
    assert got == ((3,),)
    torsion_elements = {x for x in range(9) if (3 * x) % 9 == 0}
    generated = {(g[0] * k) % 9 for g in got for k in range(9)}
    assert generated == torsion_elements


def test_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        ZModulePresentation(2, Lattice.from_generators(3, [(1, 0, 0)]))
    with pytest.raises(ValueError):
        ModuleMap(
            ZModulePresentation.free(2),
            ZModulePresentation.free(2),
            IntMatrix.from_rows([[1, 0, 0]]),
        )


# --------------------------------------------------------------------------
# properties
# --------------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_normal_form_is_isomorphism_invariant(data):
    P = data.draw(presentations())
    U = data.draw(unimodular(P.gens))
    moved = [U.mul_vec(col) for col in P.relations.basis]
    changed = pres(P.gens, moved)
    assert changed.normal_form() == P.normal_form()


@given(st.data())
def test_iterated_quotient_is_quotient_by_sum(data):
    P = data.draw(presentations(max_gens=4))
    a = [
        [data.draw(st.integers(-5, 5)) for _ in range(P.gens)]
        for _ in range(data.draw(st.integers(0, 2)))
    ]
    b = [
        [data.draw(st.integers(-5, 5)) for _ in range(P.gens)]
        for _ in range(data.draw(st.integers(0, 2)))
    ]
    Q1, _ = quotient(P, a)
    Q2, _ = quotient(Q1, b)
    Q12, _ = quotient(P, a + b)
    assert Q2 == Q12


@given(st.data())
def test_kernel_generators_die_in_target(data):
    src = data.draw(presentations(max_gens=4))
    tgt = data.draw(presentations(max_gens=4))
    entries = [
        [data.draw(st.integers(-4, 4)) for _ in range(src.gens)] for _ in range(tgt.gens)
    ]
    try:
        raw = ModuleMap(src, tgt, IntMatrix.from_rows(entries, cols=src.gens))
    except ValueError:  # the matrix is no homomorphism
        return
    for g in raw.kernel_lattice().basis:
        assert tgt.relations.contains(raw.matrix.mul_vec(g))


@given(st.data())
def test_p_torsion_generators_are_killed_by_p(data):
    P = data.draw(presentations(max_gens=4))
    p = data.draw(st.sampled_from((2, 3, 5)))
    for g in p_torsion(P, p):
        scaled = [p * x for x in g]
        assert P.relations.contains(scaled)
