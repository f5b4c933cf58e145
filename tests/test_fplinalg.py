"""Tests for linear algebra over F_p."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rdiagram.fplinalg as fplinalg
from rdiagram.fplinalg import (
    FpMatrix,
    FpSubspace,
    lift_kernel,
    lift_span,
    quotient_projection,
    relative_complement,
    validate_prime,
)
from rdiagram.intlinalg import IntMatrix, Lattice, preimage_lattice

PRIMES = (2, 3, 5)


@st.composite
def fp_matrices(draw, max_dim=5):
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    entries = [[draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(m)]
    return FpMatrix(p, m, n, tuple(tuple(r) for r in entries))


@st.composite
def fp_subspaces(draw, p=None, ambient=None, max_dim=5):
    pp = p if p is not None else draw(st.sampled_from(PRIMES))
    a = ambient if ambient is not None else draw(st.integers(0, max_dim))
    k = draw(st.integers(0, a + 1))
    vecs = [[draw(st.integers(0, pp - 1)) for _ in range(a)] for _ in range(k)]
    return FpSubspace.from_vectors(pp, a, vecs)


def test_validate_prime_accepts_primes():
    for p in (2, 3, 5, 7, 97, 65537):
        assert validate_prime(p) == p


def test_validate_prime_rejects_composites_and_junk():
    for bad in (0, 1, -3, 4, 9, 91, 2.0, "2", True):
        with pytest.raises(ValueError):
            validate_prime(bad)


def test_kernel_of_identity_is_zero():
    M = FpMatrix.identity(3, 4)
    assert M.kernel().dim == 0
    assert M.rank() == 4


def test_kernel_mod2_sum_map():
    # x + y = 0 over F_2 is the diagonal line.
    M = FpMatrix.from_rows(2, [[1, 1]])
    K = M.kernel()
    assert K.dim == 1
    assert K.basis == ((1, 1),)
    assert all(x == 0 for x in M.mul_vec(K.basis[0]))


def test_kernel_of_zero_map_is_everything():
    M = FpMatrix.zeros(3, 2, 4)
    assert M.kernel() == FpSubspace.full(3, 4)


def test_complement_trivial_cases():
    assert FpSubspace.full(5, 3).complement().dim == 0
    assert FpSubspace.zero(5, 3).complement() == FpSubspace.full(5, 3)


def test_complement_of_diagonal_mod2():
    W = FpSubspace.from_vectors(2, 2, [(1, 1)])
    U = W.complement()
    # pivot in column 0 leaves e_2 as the deterministic choice
    assert U.basis == ((0, 1),)
    assert W.sum(U) == FpSubspace.full(2, 2)
    assert W.intersect(U).dim == 0


def test_solve_small():
    M = FpMatrix.from_rows(5, [[2, 0], [0, 3]])
    x = M.solve((4, 1))
    assert x == (2, 2)
    assert FpMatrix.zeros(5, 2, 2).solve((1, 0)) is None


def test_inverse_roundtrip_small():
    M = FpMatrix.from_rows(7, [[2, 1], [5, 3]])
    assert M @ M.inverse() == FpMatrix.identity(7, 2)
    with pytest.raises(ValueError):
        FpMatrix.from_rows(7, [[1, 1], [2, 2]]).inverse()


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        FpMatrix.identity(2, 2) @ FpMatrix.identity(3, 2)


@given(fp_matrices())
def test_kernel_and_rank_consistent(M):
    K = M.kernel()
    assert K.dim + M.rank() == M.cols
    for v in K.basis:
        assert all(x == 0 for x in M.mul_vec(v))


@given(fp_matrices(), st.data())
def test_solve_roundtrip(M, data):
    x = [data.draw(st.integers(0, M.p - 1)) for _ in range(M.cols)]
    b = M.mul_vec(x)
    sol = M.solve(b)
    assert sol is not None
    assert M.mul_vec(sol) == b


@given(fp_subspaces())
def test_complement_is_complement(W):
    U = W.complement()
    assert W.dim + U.dim == W.ambient
    assert W.sum(U) == FpSubspace.full(W.p, W.ambient)
    assert W.intersect(U).dim == 0


@given(st.data())
def test_dimension_formula(data):
    p = data.draw(st.sampled_from(PRIMES))
    a = data.draw(st.integers(0, 5))
    U = data.draw(fp_subspaces(p=p, ambient=a))
    W = data.draw(fp_subspaces(p=p, ambient=a))
    s = U.sum(W)
    i = U.intersect(W)
    assert U.dim + W.dim == s.dim + i.dim
    assert s.contains_subspace(U) and s.contains_subspace(W)
    assert U.contains_subspace(i) and W.contains_subspace(i)


@given(st.data())
def test_relative_complement_extends_basis(data):
    p = data.draw(st.sampled_from(PRIMES))
    a = data.draw(st.integers(0, 5))
    outer = data.draw(fp_subspaces(p=p, ambient=a))
    inner_vecs = [
        v for v in outer.basis if data.draw(st.booleans())
    ]
    inner = FpSubspace.from_vectors(p, a, inner_vecs)
    added = relative_complement(inner, outer)
    assert len(added) == outer.dim - inner.dim
    span = inner
    for v in added:
        assert outer.contains(v)
        span = span.sum(FpSubspace.from_vectors(p, a, [v]))
    assert span == outer


@given(fp_subspaces())
def test_quotient_projection_contract(W):
    proj, section = quotient_projection(W)
    n, d = W.ambient, W.dim
    assert (proj.rows, proj.cols) == (n - d, n)
    assert (section.rows, section.cols) == (n, n - d)
    assert proj @ section == FpMatrix.identity(W.p, n - d)
    for v in W.basis:
        assert all(x == 0 for x in proj.mul_vec(v))
    assert proj.kernel() == W


@given(fp_subspaces())
def test_coords_in_roundtrip(W):
    if W.dim == 0:
        assert W.coords_in([0] * W.ambient) == ()
        return
    combo = [0] * W.ambient
    for k, row in enumerate(W.basis):
        for i in range(W.ambient):
            combo[i] = (combo[i] + (k + 1) * row[i]) % W.p
    coords = W.coords_in(combo)
    assert coords is not None
    rebuilt = [0] * W.ambient
    for c, row in zip(coords, W.basis):
        for i in range(W.ambient):
            rebuilt[i] = (rebuilt[i] + c * row[i]) % W.p
    assert rebuilt == combo


# --------------------------------------------------------------------------
# integer lattices between p Z^n and Z^n, built from echelon forms
# --------------------------------------------------------------------------


@given(st.data())
def test_lift_span_and_lift_kernel_equal_the_integer_lattices(data):
    p = data.draw(st.sampled_from((2, 3, 5, 1_000_000_007)))
    n = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, 6))
    entry = st.integers(-2 * p, 2 * p)
    vecs = [[data.draw(entry) for _ in range(n)] for _ in range(k)]
    scaled_units = [[p * int(i == j) for i in range(n)] for j in range(n)]
    assert lift_span(p, n, vecs) == Lattice.from_generators(n, vecs + scaled_units)
    A = IntMatrix.from_rows(vecs, cols=n)
    assert lift_kernel(p, vecs, n) == preimage_lattice(A, Lattice.scaled_full(k, p))


@pytest.mark.parametrize("p", [2, 3, 5, 1_000_000_007])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_lift_span_and_lift_kernel_of_nothing(p, n):
    assert lift_span(p, n, []) == Lattice.scaled_full(n, p)
    assert lift_kernel(p, [], n) == Lattice.full(n)


def test_lift_constructors_reject_wrong_lengths():
    with pytest.raises(ValueError, match="wrong length"):
        lift_span(3, 2, [[1, 2, 0]])
    with pytest.raises(ValueError, match="wrong length"):
        lift_kernel(3, [[1]], 2)


def test_lift_constructors_trust_their_prime(monkeypatch):
    calls = []
    monkeypatch.setattr(fplinalg, "validate_prime", lambda p: calls.append(p) or p)
    p = 1_000_000_007
    lift_span(p, 3, [[1, 2, 3], [p + 1, 0, 5]])
    lift_kernel(p, [[1, 2, 3], [4, 5, 6]], 3)
    assert calls == []
    FpSubspace.zero(p, 3)  # the counter does see a constructor that validates
    assert calls == [p]
