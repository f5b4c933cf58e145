"""Tests for the exact integer linear algebra layer.

The small expected values in this file were worked out by hand first and
then frozen, so that the implementation is checked against independent
arithmetic rather than against itself.
"""

import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiagram.intlinalg import (
    IntMatrix,
    _hnf_in_place,
    Lattice,
    column_span,
    det,
    hnf,
    is_unimodular,
    kernel_basis,
    lattice_intersection,
    preimage_lattice,
    snf,
    solve_in_span,
    solve_many,
)
from rdiagram.randomgen import random_unimodular


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


@st.composite
def matrices(draw, max_dim=5, max_entry=50, min_dim=0):
    m = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(min_dim, max_dim))
    entries = [
        [draw(st.integers(-max_entry, max_entry)) for _ in range(n)] for _ in range(m)
    ]
    return IntMatrix(m, n, tuple(tuple(r) for r in entries))


@st.composite
def lattices(draw, ambient=None, max_dim=5, max_entry=20):
    a = ambient if ambient is not None else draw(st.integers(0, max_dim))
    k = draw(st.integers(0, a + 1))
    gens = [
        [draw(st.integers(-max_entry, max_entry)) for _ in range(a)] for _ in range(k)
    ]
    return Lattice.from_generators(a, gens)


def assert_canonical_column_hnf(H: IntMatrix):
    """Structural check of the canonical column Hermite form."""
    last_pivot = -1
    seen_zero = False
    for j in range(H.cols):
        col = H.column(j)
        r = next((i for i, x in enumerate(col) if x), None)
        if r is None:
            seen_zero = True
            continue
        assert not seen_zero, "zero column precedes a nonzero column"
        assert r > last_pivot, "pivot rows must strictly increase"
        assert col[r] > 0, "pivot must be positive"
        for k in range(j):
            assert 0 <= H.entries[r][k] < col[r], "entry left of pivot not reduced"
        last_pivot = r


# --------------------------------------------------------------------------
# frozen small cases
# --------------------------------------------------------------------------


def test_hnf_identity():
    H, U = hnf(IntMatrix.identity(2))
    assert H == IntMatrix.identity(2)
    assert U == IntMatrix.identity(2)


def test_hnf_single_row():
    # gcd of (2, 4) is 2, so the canonical form is [[2, 0]].
    M = mat([[2, 4]])
    H, U = hnf(M)
    assert H == mat([[2, 0]])
    assert M @ U == H
    assert det(U) in (1, -1)


def test_hnf_zero_matrix():
    M = IntMatrix.zeros(2, 3)
    H, U = hnf(M)
    assert H == M
    assert is_unimodular(U)


def test_hnf_degenerate_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        M = IntMatrix.zeros(*shape)
        H, U = hnf(M)
        assert (H.rows, H.cols) == shape
        assert U.rows == U.cols == shape[1]


def test_snf_identity():
    U, D, V = snf(IntMatrix.identity(3))
    assert D == IntMatrix.identity(3)


def test_snf_diag_2_3():
    # diag(2,3) ~ diag(1,6): 1 = 3 - 2 and then 2*3 = 6 is forced by the
    # determinant, giving the divisibility chain 1 | 6.
    M = mat([[2, 0], [0, 3]])
    U, D, V = snf(M)
    assert D == mat([[1, 0], [0, 6]])
    assert U @ M @ V == D
    assert is_unimodular(U) and is_unimodular(V)


def test_snf_zero():
    M = IntMatrix.zeros(2, 2)
    _, D, _ = snf(M)
    assert D == M


def test_kernel_of_identity():
    assert kernel_basis(IntMatrix.identity(3)) == Lattice.zero(3)


def test_kernel_single_row():
    # 2x - y = 0 has primitive solution (1, 2).
    K = kernel_basis(mat([[2, -1]]))
    assert K.basis == ((1, 2),)
    # saturation: invariant factors of the basis matrix are all 1
    _, D, _ = snf(K.basis_matrix())
    factors = [D.entries[i][i] for i in range(min(D.rows, D.cols)) if D.entries[i][i]]
    assert factors == [1]


def test_kernel_zero_map():
    assert kernel_basis(IntMatrix.zeros(1, 2)) == Lattice.full(2)


def test_intersection_2z_3z():
    two = Lattice.from_generators(1, [(2,)])
    three = Lattice.from_generators(1, [(3,)])
    six = Lattice.from_generators(1, [(6,)])
    assert lattice_intersection(two, three) == six
    # mutual containment, spelled out
    assert two.contains_lattice(six) and three.contains_lattice(six)


def test_intersection_idempotent_and_disjoint():
    L = Lattice.from_generators(2, [(1, 0)])
    M = Lattice.from_generators(2, [(0, 1)])
    assert lattice_intersection(L, L) == L
    assert lattice_intersection(L, M) == Lattice.zero(2)


def test_preimage_trivial_cases():
    M = mat([[1, 2], [3, 4]])
    assert preimage_lattice(M, Lattice.full(2)) == Lattice.full(2)
    L = Lattice.from_generators(2, [(2, 0), (1, 3)])
    assert preimage_lattice(IntMatrix.identity(2), L) == L


def test_preimage_sum_map_even_targets():
    # x + y even <=> x = y mod 2: generated by (1,1) and (0,2).
    L = preimage_lattice(mat([[1, 1]]), Lattice.from_generators(1, [(2,)]))
    assert L.basis == ((1, 1), (0, 2))


def test_solve_in_span_cases():
    assert solve_in_span(IntMatrix.identity(2), (5, -7)) == (5, -7)
    assert solve_in_span(mat([[2]]), (3,)) is None
    x = solve_in_span(mat([[2, 0], [0, 3]]), (4, 9))
    assert x == (2, 3)


def test_det_small_cases():
    assert det(mat([[3]])) == 3
    assert det(mat([[1, 2], [3, 4]])) == -2
    assert det(IntMatrix.zeros(0, 0)) == 1
    assert det(mat([[2, 0, 1], [0, 1, 0], [1, 0, 1]])) == 1


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        mat([[1, 2], [3]])
    with pytest.raises(ValueError):
        mat([[1]]) @ mat([[1, 2], [3, 4]])


def test_lattice_rejects_bad_vectors():
    with pytest.raises(ValueError):
        Lattice.from_generators(2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        Lattice(2, ((0, 0),))


# --------------------------------------------------------------------------
# properties
# --------------------------------------------------------------------------


@given(matrices())
def test_hnf_reconstruction_and_canonicity(M):
    H, U = hnf(M)
    assert M @ U == H
    assert is_unimodular(U)
    assert_canonical_column_hnf(H)
    assert column_span(H) == column_span(M)
    # canonical forms are fixed points
    H2, _ = hnf(H)
    assert H2 == H


def _nonzero_columns(H: IntMatrix) -> list[tuple[int, ...]]:
    return [col for col in H.columns() if any(col)]


@given(matrices())
@settings(deadline=None)
def test_hnf_span_agrees_with_sympy(M):
    # sympy's Hermite form is canonical per column span and shares no code
    # with ours, so equal sympy forms mean H spans what M spans.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    H, _ = hnf(M)
    kept = _nonzero_columns(H)
    ours = sympy.Matrix(M.rows, len(kept), lambda i, j: kept[j][i])
    theirs = sympy.Matrix(M.rows, M.cols, lambda i, j: M.entries[i][j])
    assert hermite_normal_form(ours) == hermite_normal_form(theirs)


@given(matrices())
def test_lattice_basis_is_the_hnf_without_zero_columns(M):
    # the lattice path runs without a transform, hnf with one
    assert list(Lattice.from_generators(M.rows, M.columns()).basis) == _nonzero_columns(hnf(M)[0])


@given(matrices(max_dim=4, max_entry=20), st.integers(0, 2**32 - 1), st.data())
def test_lattice_equality_is_subgroup_equality(M, seed, data):
    # M U for a unimodular U, plus integer combinations of M's columns, spans
    # what M spans: two generator sets of one subgroup give one Lattice
    U = random_unimodular(random.Random(seed), M.cols)
    combos = data.draw(
        st.lists(st.lists(st.integers(-5, 5), min_size=M.cols, max_size=M.cols), max_size=3)
    )
    other = (M @ U).columns() + [M.mul_vec(c) for c in combos]
    assert Lattice.from_generators(M.rows, other) == Lattice.from_generators(M.rows, M.columns())


@given(matrices())
def test_snf_reconstruction(M):
    U, D, V = snf(M)
    assert U @ M @ V == D
    assert is_unimodular(U) and is_unimodular(V)
    diag = [D.entries[i][i] for i in range(min(D.rows, D.cols))]
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D.entries[i][j] == 0
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


@given(matrices())
def test_kernel_is_saturated_full_kernel(M):
    K = kernel_basis(M)
    for col in K.basis:
        assert all(x == 0 for x in M.mul_vec(col))
    _, D, _ = snf(M)
    rank = sum(1 for i in range(min(D.rows, D.cols)) if D.entries[i][i])
    assert K.rank == M.cols - rank
    if K.basis:
        _, DK, _ = snf(K.basis_matrix())
        factors = [
            DK.entries[i][i] for i in range(min(DK.rows, DK.cols)) if DK.entries[i][i]
        ]
        assert all(f == 1 for f in factors)


@given(matrices(max_dim=4, max_entry=20), matrices(max_dim=4, max_entry=20))
def test_preimage_of_kernel_is_kernel_of_composite(M, N):
    # {x : Mx in ker N} = ker(N M), whenever the shapes compose.
    if N.cols != M.rows:
        N = IntMatrix.zeros(2, M.rows)
    assert preimage_lattice(M, kernel_basis(N)) == kernel_basis(N @ M)


@given(st.data())
def test_intersection_laws(data):
    a = data.draw(st.integers(0, 4))
    A = data.draw(lattices(ambient=a))
    B = data.draw(lattices(ambient=a))
    C = data.draw(lattices(ambient=a))
    AB = lattice_intersection(A, B)
    assert AB == lattice_intersection(B, A)
    assert lattice_intersection(A, A) == A
    assert lattice_intersection(AB, C) == lattice_intersection(
        A, lattice_intersection(B, C)
    )
    assert A.contains_lattice(AB) and B.contains_lattice(AB)


@given(st.data())
def test_preimage_both_containments(data):
    M = data.draw(matrices(max_dim=4, max_entry=15))
    L = data.draw(lattices(ambient=M.rows, max_entry=15))
    P = preimage_lattice(M, L)
    for col in P.basis:
        assert L.contains(M.mul_vec(col))
    # the preimage contains the kernel and pulls back sums correctly
    assert P.contains_lattice(kernel_basis(M))


@given(st.data())
def test_solve_in_span_roundtrip(data):
    M = data.draw(matrices(max_dim=4, max_entry=15))
    x = [data.draw(st.integers(-10, 10)) for _ in range(M.cols)]
    b = M.mul_vec(x)
    sol = solve_in_span(M, b)
    assert sol is not None
    assert M.mul_vec(sol) == b


@given(st.data())
def test_solve_in_span_sound_on_arbitrary_rhs(data):
    M = data.draw(matrices(max_dim=4, max_entry=15))
    b = [data.draw(st.integers(-20, 20)) for _ in range(M.rows)]
    sol = solve_in_span(M, b)
    if sol is not None:
        assert M.mul_vec(sol) == tuple(b)
    else:
        assert not column_span(M).contains(b)


@given(st.data())
def test_solve_many_solves_exactly_the_vectors_in_the_span(data):
    M = data.draw(matrices(max_dim=4, max_entry=15))
    span = column_span(M)
    rhs = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):
            rhs.append(M.mul_vec([data.draw(st.integers(-10, 10)) for _ in range(M.cols)]))
        else:
            rhs.append(tuple(data.draw(st.integers(-20, 20)) for _ in range(M.rows)))
    sols = solve_many(M, rhs)
    assert len(sols) == len(rhs)
    for b, x in zip(rhs, sols):
        assert (x is None) == (not span.contains(b))
        if x is not None:
            assert len(x) == M.cols and M.mul_vec(x) == b


def test_solve_many_edge_cases():
    M = mat([[2, 0], [0, 3]])
    assert solve_many(M, []) == []
    empty = IntMatrix.zeros(2, 0)
    assert solve_many(empty, [(0, 0), (1, 0)]) == [(), None]
    with pytest.raises(ValueError, match="wrong length"):
        solve_many(M, [(4, 9), (1,)])


@given(st.data())
def test_lattice_solve_roundtrip(data):
    L = data.draw(lattices())
    coords = [data.draw(st.integers(-8, 8)) for _ in range(L.rank)]
    v = [0] * L.ambient
    for c, col in zip(coords, L.basis):
        for i in range(L.ambient):
            v[i] += c * col[i]
    assert L.solve(v) == tuple(coords)
    assert L.contains(v)


@given(st.data())
def test_lattice_sum_contains_both(data):
    a = data.draw(st.integers(0, 4))
    A = data.draw(lattices(ambient=a))
    B = data.draw(lattices(ambient=a))
    S = A.sum(B)
    assert S.contains_lattice(A) and S.contains_lattice(B)


@given(matrices(max_dim=3, max_entry=10))
def test_det_matches_leibniz(M):
    if M.rows != M.cols:
        return
    n = M.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= M.entries[i][perm[i]]
        total += term
    assert det(M) == total


# --------------------------------------------------------------------------
# the lattice kernels against hnf of the stacked columns
# --------------------------------------------------------------------------


def lower_reference(cols, top: int, ambient: int) -> Lattice:
    """Bottom parts of the canonical columns with a zero top, from public ``hnf``."""
    H, _ = hnf(IntMatrix.from_cols(cols, rows=top + ambient))
    lower = [c[top:] for c in H.columns() if any(c) and not any(c[:top])]
    return Lattice(ambient, tuple(lower))


@given(matrices(max_dim=5, max_entry=30), st.data())
def test_lattice_kernels_match_hnf_of_the_stacked_columns(M, data):
    m, n = M.rows, M.cols
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    graph = [c + e for c, e in zip(M.columns(), units)]
    assert kernel_basis(M) == lower_reference(graph, m, n)

    L = data.draw(lattices(ambient=m, max_entry=30))
    padded = [l + (0,) * n for l in L.basis]
    assert preimage_lattice(M, L) == lower_reference(graph + padded, m, n)

    A = data.draw(lattices(ambient=m, max_entry=30))
    stacked = [a + a for a in A.basis] + [l + (0,) * m for l in L.basis]
    assert lattice_intersection(A, L) == lower_reference(stacked, m, m)


def test_hnf_in_place_takes_no_transform():
    # hnf and solve_many read U off identity rows stacked below the matrix
    params = list(inspect.signature(_hnf_in_place).parameters)
    assert params == ["cols", "height", "top"]
