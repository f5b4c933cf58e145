"""Tests for linear algebra over F_p."""

import ast
import dataclasses
import json
import pathlib
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rdiagram.fplinalg as fplinalg
from rdiagram.fplinalg import (
    PRIME_BOUND,
    FpMatrix,
    FpSubspace,
    lift_kernel,
    lift_span,
    quotient_projection,
    relative_complement,
    validate_prime,
)
from rdiagram import cli, homology, pullback, reduction
from rdiagram.homology import (
    ChainComplexR,
    canonical_kernel_presentation,
    generator_sets,
    homology_rdiagram,
)
from rdiagram.intlinalg import IntMatrix, Lattice, kernel_basis, preimage_lattice
from rdiagram.presentations import ModuleMap, ZModulePresentation
from rdiagram.pullback import (
    DiagramMorphism,
    LatticeRModule,
    PullbackDiagram,
    quotient_ring_check,
    separate_presented,
)
from rdiagram.randomgen import random_complex_differentials
from rdiagram.reduction import RDiagram, free_diagram

PRIMES = (2, 3, 5)


def transpose(M):
    return FpMatrix(M.p, M.cols, M.rows, tuple(M.column(j) for j in range(M.cols)))


def inverse(M):
    """Gauss-Jordan on [M | I]; the reference constructions below use it."""
    if M.rows != M.cols:
        raise ValueError("only square matrices can be inverted")
    n, p = M.rows, M.p
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(M.entries)]
    rows, pivots = fplinalg._rref(p, aug, 2 * n)
    if list(pivots[:n]) != list(range(n)):
        raise ValueError("matrix is singular")
    return FpMatrix(p, n, n, tuple(tuple(rows[i][n:]) for i in range(n)))


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


def test_validate_prime_rejects_moduli_from_the_bound_on():
    largest = 4_294_967_291  # the largest prime below 2**32
    assert PRIME_BOUND == 2**32 and validate_prime(largest) == largest
    # 2**61 - 1 is prime: trial division would run for minutes on it
    for big in (PRIME_BOUND, 4_294_967_311, 2**61 - 1):
        with pytest.raises(ValueError, match=r"too large: primes must be below 2\*\*32"):
            validate_prime(big)


def test_kernel_of_identity_is_zero():
    M = FpMatrix.identity(3, 4)
    assert M.kernel().dim == 0
    assert M.rank() == 4
    with pytest.raises(ValueError, match="nonnegative"):
        FpMatrix.identity(3, -1)


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


@pytest.mark.parametrize(
    "basis, pivots, message",
    [
        (((3, 1),), (0,), "reduced row echelon"),
        (((2, 0),), (0,), "reduced row echelon"),
        (((0, 1),), (0,), "reduced row echelon"),
        (((1, 1), (0, 1)), (0, 1), "reduced row echelon"),
        (((1, 7),), (0,), r"\[0, p\)"),
        (((1, 0, 0),), (0,), "wrong length"),
        (((1, 0), (0, 1)), (1, 0), "pivots"),
        (((1, 0),), (), "pivots"),
        (((1, 0),), (2,), "pivots"),
    ],
    ids=[
        "3 at the pivot",
        "2 at the pivot",
        "0 at the pivot",
        "not zero above a pivot",
        "entry past p",
        "row longer than ambient",
        "pivots decreasing",
        "pivot missing",
        "pivot past ambient",
    ],
)
def test_a_basis_not_in_reduced_echelon_form_is_refused(basis, pivots, message):
    # contains() and == rely on the RREF: with the basis (3, 1) the span
    # would not contain (1, 2), and (2, 0) would differ from (1, 0)
    with pytest.raises(ValueError, match=message):
        FpSubspace(5, 2, basis, pivots)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FpSubspace(5, -1, (), ()),
        lambda: FpSubspace.zero(5, -1),
        lambda: FpSubspace.full(5, -1),
        lambda: FpSubspace.from_vectors(5, -1, []),
    ],
    ids=["FpSubspace", "zero", "full", "from_vectors"],
)
def test_a_negative_ambient_dimension_is_refused(build):
    with pytest.raises(ValueError, match="nonnegative"):
        build()


def test_solve_small():
    M = FpMatrix.from_rows(5, [[2, 0], [0, 3]])
    x = M.solve((4, 1))
    assert x == (2, 2)
    assert FpMatrix.zeros(5, 2, 2).solve((1, 0)) is None


def test_inverse_roundtrip_small():
    M = FpMatrix.from_rows(7, [[2, 1], [5, 3]])
    assert M @ inverse(M) == FpMatrix.identity(7, 2)
    with pytest.raises(ValueError):
        inverse(FpMatrix.from_rows(7, [[1, 1], [2, 2]]))


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


# --------------------------------------------------------------------------
# objects read off one echelon form equal the longer constructions
# --------------------------------------------------------------------------
#
# The references below are the constructions the echelon-form readings
# replaced.  Each result has a unique form (an RREF, or the inverse of a
# fixed basis), so the two must agree exactly, pivots included.

EQ_PRIMES = (2, 3, 5, 1_000_000_007)


def ref_kernel(M):
    """Two passes: the RREF of M, its null vectors, then their RREF."""
    p, n = M.p, M.cols
    rows, pivots = fplinalg._rref(p, [list(r) for r in M.entries], n)
    vecs = []
    for c in range(n):
        if c in pivots:
            continue
        v = [0] * n
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][c] % p
        vecs.append(v)
    return FpSubspace.from_vectors(p, n, vecs)


def ref_complement(W):
    n = W.ambient
    units = [[int(t == c) for t in range(n)] for c in range(n) if c not in W.pivots]
    return FpSubspace.from_vectors(W.p, n, units)


def ref_intersect(A, B):
    """Combinations of A's basis given by the kernel of the stacked bases."""
    p, n = A.p, A.ambient
    if not A.basis or not B.basis:
        return FpSubspace.zero(p, n)
    ker = ref_kernel(transpose(FpMatrix.from_rows(p, list(A.basis) + list(B.basis))))
    vecs = []
    for z in ker.basis:
        combo = [0] * n
        for coeff, row in zip(z[: A.dim], A.basis):
            combo = [(x + coeff * y) % p for x, y in zip(combo, row)]
        vecs.append(combo)
    return FpSubspace.from_vectors(p, n, vecs)


def ref_relative_complement(inner, outer):
    """Greedy, with a subspace rebuilt for every added vector."""
    span, added = inner, []
    for v in outer.basis:
        if not span.contains(v):
            added.append(v)
            span = span.sum(FpSubspace.from_vectors(span.p, span.ambient, [v]))
    return added


def ref_quotient_projection(W):
    """Invert the basis [W | complement] and keep the complement rows."""
    p, n, d = W.p, W.ambient, W.dim
    comp = ref_complement(W)
    if n == 0:
        return FpMatrix.zeros(p, 0, 0), FpMatrix.zeros(p, 0, 0)
    B = transpose(FpMatrix.from_rows(p, list(W.basis) + list(comp.basis), cols=n))
    proj = FpMatrix(p, n - d, n, inverse(B).entries[d:])
    if not comp.basis:
        return proj, FpMatrix.zeros(p, n, 0)
    return proj, transpose(FpMatrix.from_rows(p, comp.basis, cols=n))


def ref_solve(M, b):
    """One elimination of [M | b]; a pivot in the last column means no solution."""
    p, n = M.p, M.cols
    aug = [list(r) + [bv % p] for r, bv in zip(M.entries, b)]
    rows, pivots = fplinalg._rref(p, aug, n + 1)
    if n in pivots:
        return None
    x = [0] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return tuple(x)


def fp_entries(p):
    # small entries and -1 make dependencies likely at large p as well
    return st.one_of(st.sampled_from((0, 0, 1, p - 1)), st.integers(0, p - 1))


@st.composite
def fp_vectors(draw, p, n, max_count=7):
    count = draw(st.integers(0, max_count))
    return [[draw(fp_entries(p)) for _ in range(n)] for _ in range(count)]


@st.composite
def eq_case(draw):
    p = draw(st.sampled_from(EQ_PRIMES))
    n = draw(st.integers(0, 6))
    return p, n


def assert_same_subspace(new, ref):
    assert new == ref
    assert (new.basis, new.pivots) == (ref.basis, ref.pivots)


@given(eq_case(), st.data())
def test_kernel_equals_the_two_pass_kernel(case, data):
    p, n = case
    rows = data.draw(fp_vectors(p, n))
    M = FpMatrix.from_rows(p, rows, cols=n)
    ref = ref_kernel(M)
    assert_same_subspace(M.kernel(), ref)
    assert M.rank() == n - ref.dim
    assert lift_kernel(p, rows, n) == lift_span(p, n, ref.basis)


@given(eq_case(), st.data())
def test_complement_and_projection_equal_the_inverse_construction(case, data):
    p, n = case
    W = FpSubspace.from_vectors(p, n, data.draw(fp_vectors(p, n)))
    comp = W.complement()
    assert_same_subspace(comp, ref_complement(W))
    assert quotient_projection(W) == ref_quotient_projection(W)


@given(eq_case(), st.data())
def test_intersect_and_relative_complement_equal_the_references(case, data):
    p, n = case
    A = FpSubspace.from_vectors(p, n, data.draw(fp_vectors(p, n)))
    B = FpSubspace.from_vectors(p, n, data.draw(fp_vectors(p, n)))
    meet = A.intersect(B)
    assert_same_subspace(meet, ref_intersect(A, B))
    assert relative_complement(meet, A) == ref_relative_complement(meet, A)
    assert relative_complement(meet, B) == ref_relative_complement(meet, B)
    inner = FpSubspace.from_vectors(p, n, [v for v in A.basis if data.draw(st.booleans())])
    assert relative_complement(inner, A) == ref_relative_complement(inner, A)


@given(eq_case(), st.data())
def test_solve_many_agrees_with_solve_vector_by_vector(case, data):
    p, n = case
    m = data.draw(st.integers(0, 6))
    entries = [[data.draw(fp_entries(p)) for _ in range(n)] for _ in range(m)]
    M = FpMatrix.from_rows(p, entries, cols=n)
    # images of random vectors (solvable) next to arbitrary vectors (often not)
    rhs = [M.mul_vec(v) for v in data.draw(fp_vectors(p, n, max_count=3))]
    rhs += data.draw(fp_vectors(p, m, max_count=3))
    rhs = data.draw(st.permutations(rhs))
    sols = M.solve_many(rhs)
    assert sols == [M.solve(b) for b in rhs] == [ref_solve(M, b) for b in rhs]
    for b, x in zip(rhs, sols):
        assert x is None or M.mul_vec(x) == tuple(bv % p for bv in b)


def test_solve_many_edge_cases():
    M = FpMatrix.from_rows(5, [[2, 0], [0, 3]])
    assert M.solve_many([]) == []
    assert M.solve_many([(4, 1), (0, 0), (1, 1)]) == [(2, 2), (0, 0), (3, 2)]
    Z = FpMatrix.zeros(5, 2, 2)
    assert Z.solve_many([(0, 0), (1, 0)]) == [(0, 0), None]
    assert FpMatrix.zeros(3, 0, 2).solve_many([()]) == [(0, 0)]
    with pytest.raises(ValueError, match="wrong length"):
        M.solve_many([(1, 1), (1,)])


def test_derived_objects_take_one_elimination_at_most(monkeypatch):
    calls = []
    real = fplinalg._rref

    def counting(p, rows, width):
        calls.append(width)
        return real(p, rows, width)

    monkeypatch.setattr(fplinalg, "_rref", counting)
    W = FpSubspace.from_vectors(3, 5, [[1, 2, 0, 1, 1], [0, 0, 1, 2, 0]])
    calls.clear()
    quotient_projection(W)
    W.complement()
    FpSubspace.full(3, 4)
    assert calls == []
    lift_kernel(3, [[1, 2, 0, 1, 1], [0, 0, 1, 2, 0]], 5)
    assert len(calls) == 1
    M = FpMatrix.from_rows(3, [[1, 2, 0], [2, 1, 0]])
    M.kernel(), M.kernel()
    assert len(calls) == 2
    M.rank(), M.rank()
    assert len(calls) == 3
    W.intersect(FpSubspace.from_vectors(3, 5, [[1, 2, 1, 0, 1]]))
    assert len(calls) == 5  # the from_vectors above, then the intersection
    relative_complement(FpSubspace.zero(3, 5), W)
    M.solve_many([(1, 2), (0, 1)])
    assert len(calls) == 6


# --------------------------------------------------------------------------
# the trust boundary: a bare p is validated, derived values are not rechecked
# --------------------------------------------------------------------------


def assert_public_matrix(M):
    """M is the public construction from its entries, with empty memo slots."""
    assert type(M) is FpMatrix
    assert M == FpMatrix(M.p, M.rows, M.cols, M.entries)
    assert M._rank is None and M._kernel is None


def assert_public_subspace(W):
    """W is the public construction from its basis, pivots included."""
    assert type(W) is FpSubspace
    assert_same_subspace(W, FpSubspace.from_vectors(W.p, W.ambient, W.basis))
    assert W == FpSubspace(W.p, W.ambient, W.basis, W.pivots)


@given(eq_case(), st.data())
def test_derived_values_equal_the_public_constructions(case, data):
    p, n = case
    m = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, 6))
    a = [[data.draw(fp_entries(p)) for _ in range(n)] for _ in range(m)]
    b = [[data.draw(fp_entries(p)) for _ in range(k)] for _ in range(n)]
    A = FpMatrix.from_rows(p, a, cols=n)
    B = FpMatrix.from_rows(p, b, cols=k)
    AB = A @ B
    assert_public_matrix(AB)
    # the integer product, reduced by the public constructor
    assert AB == FpMatrix.from_int(IntMatrix.from_rows(a, cols=n) @ IntMatrix.from_rows(b, cols=k), p)
    ker = A.kernel()
    assert_public_subspace(ker)
    assert all(not any(A.mul_vec(v)) for v in ker.basis)
    V = FpSubspace.from_vectors(p, n, data.draw(fp_vectors(p, n)))
    W = FpSubspace.from_vectors(p, n, data.draw(fp_vectors(p, n)))
    for derived in (V.sum(W), V.intersect(W), V.complement(), W.complement()):
        assert_public_subspace(derived)
    assert V.sum(W) == FpSubspace.from_vectors(p, n, V.basis + W.basis)
    proj, section = quotient_projection(V)
    assert_public_matrix(proj)
    assert_public_matrix(section)


def residues(p):
    """Integers in [0, p), negative ones and ones at or past p."""
    return st.one_of(fp_entries(p), st.integers(-3 * p, -1), st.integers(p, 3 * p))


@given(eq_case(), st.data())
def test_constructors_given_a_checked_prime_equal_the_bare_ones(case, data):
    # given a checked p, a constructor skips only the primality test: the
    # references reduce mod p in FpMatrix.__post_init__, and from_int still
    # reduces its entries itself
    p, n = case
    checked = validate_prime(p)
    m = data.draw(st.integers(0, 6))
    M = IntMatrix.from_rows([[data.draw(residues(p)) for _ in range(n)] for _ in range(m)], cols=n)
    reduced = FpMatrix(p, m, n, M.entries)
    for got, ref in (
        (FpMatrix.from_int(M, checked), reduced),
        (FpMatrix.identity(checked, n), FpMatrix(p, n, n, IntMatrix.identity(n).entries)),
    ):
        assert type(got) is FpMatrix
        assert got == ref  # the same p, shape and entries
        assert got._rank is None and got._kernel is None
    assert FpMatrix.from_int(M, p) == reduced
    W = FpSubspace.from_vectors(checked, n, M.entries)
    assert type(W) is FpSubspace
    assert_same_subspace(W, FpSubspace.from_vectors(p, n, reduced.entries))
    assert all(W.contains(v) for v in reduced.entries) and W.dim == reduced.rank()


@pytest.fixture
def prime_checks(monkeypatch):
    """Record the trial divisions: ``validate_prime`` calls on a value not yet checked.

    The real function runs under every name the package binds it to; a
    call given a checked value returns at once and is not recorded.
    """
    calls = []
    real = fplinalg.validate_prime

    def recording(p):
        if type(p) is not fplinalg._Prime:
            calls.append(p)
        return real(p)

    for mod in (fplinalg, pullback, reduction, homology, cli):
        monkeypatch.setattr(mod, "validate_prime", recording)
    return calls


def test_the_checked_value_is_the_prime():
    p = validate_prime(7)
    assert type(p) is fplinalg._Prime and p == 7 and hash(p) == hash(7)
    assert validate_prime(p) is p
    assert (str(p), repr(p), json.dumps({"p": p})) == ("7", "7", '{"p": 7}')
    assert type(p + 0) is int and type(FpMatrix.identity(p, 1).p) is fplinalg._Prime


def test_derived_values_do_not_recheck_the_prime(prime_checks):
    p = validate_prime(1_000_000_007)
    A = FpMatrix.from_rows(p, [[1, 2, 3], [2, 4, 6]])
    B = FpMatrix.from_rows(p, [[1, 0], [0, p - 1], [5, 7]])
    V = FpSubspace.from_vectors(p, 3, [[1, 2, 3]])
    W = FpSubspace.from_vectors(p, 3, [[0, 1, 1], [1, 0, 0]])
    zero = FpSubspace.zero(p, 3)
    D = free_diagram(p, 2)
    f = ModuleMap.identity(D.M1)
    eye = FpMatrix.identity(p, 2)
    prime_checks.clear()
    A @ B
    A.kernel(), A.rank(), A.solve_many([(1, 2)]), A.mul_vec((1, 1, 1))
    V.sum(W), W.sum(V), V.intersect(W), V.complement(), V.contains_subspace(W)
    quotient_projection(W)
    relative_complement(V, V.sum(W))
    zero.sum(V), V.intersect(zero)
    DiagramMorphism(D, D, f, f, eye)
    PullbackDiagram(D.p, D.M1, D.M2, 2, eye, eye)
    RDiagram(D.p, 0, D, IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 0))
    assert prime_checks == []


def test_every_bare_prime_constructor_validates_once(prime_checks):
    p = 7
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    free = ZModulePresentation.free(2)
    eye = FpMatrix.identity(p, 2)
    D = PullbackDiagram(p, free, free, 2, eye, eye)
    constructions = [
        lambda: PullbackDiagram(p, free, free, 2, eye, eye),
        lambda: RDiagram(p, 0, D, IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 0)),
        lambda: ChainComplexR(p, [(M, M)]),
        lambda: FpMatrix(p, 1, 2, ((1, 9),)),
        lambda: FpMatrix.from_rows(p, [[1, 9]]),
        lambda: FpMatrix.from_int(M, p),
        lambda: FpMatrix.identity(p, 2),
        lambda: FpMatrix.zeros(p, 2, 3),
        lambda: FpSubspace(p, 2, ((1, 0),), (0,)),
        lambda: FpSubspace.from_vectors(p, 2, [[2, 3]]),
        lambda: FpSubspace.zero(p, 2),
        lambda: FpSubspace.full(p, 2),
        lambda: free_diagram(p, 2),
    ]
    for build in constructions:
        prime_checks.clear()
        build()
        assert prime_checks == [p]


def test_homology_rdiagram_validates_only_at_the_boundary(prime_checks):
    # per degree: canonical_kernel_presentation checks the complex's bare p
    # and passes the checked value on, so generator_sets, separate_presented,
    # free_diagram and every diagram and F_p value after them get it
    p = 1_000_000_007
    C = ChainComplexR(p, random_complex_differentials(random.Random(0), p, [2, 3, 2]))
    for n in range(C.terms):
        prime_checks.clear()
        homology_rdiagram(C, n)
        assert prime_checks == [p] * 1


@pytest.mark.parametrize("p", [2, 3, 1_000_000_007])
@pytest.mark.parametrize("rank", [0, 1, 3])
def test_free_diagram_body_equals_the_validating_function(p, rank):
    # given a checked p, free_diagram runs only its body
    body, reference = free_diagram(validate_prime(p), rank), free_diagram(p, rank)
    for f in dataclasses.fields(PullbackDiagram):
        assert getattr(body, f.name) == getattr(reference, f.name), f.name
    assert body.p2 is body.p1


class _FakePrime(fplinalg._Prime):
    """A subclass is not the checked type, so its value is tested again."""


def test_pipeline_entry_points_reject_a_composite_modulus():
    p = 3
    D = free_diagram(p, 1)
    Z = IntMatrix.zeros(1, 1)
    M = IntMatrix.from_rows([[1]])
    free = ZModulePresentation.free(1)
    entries = [
        lambda q: PullbackDiagram(q, free, free, 1, D.p1, D.p2),
        lambda q: RDiagram(q, 0, D, IntMatrix.zeros(1, 0), IntMatrix.zeros(1, 0)),
        lambda q: ChainComplexR(q, [(Z, Z)]),
        lambda q: LatticeRModule(q, 1, 1, Lattice.full(2)),
        lambda q: quotient_ring_check(q),
        lambda q: generator_sets(Z, Z, q, (kernel_basis(Z), kernel_basis(Z))),
        lambda q: canonical_kernel_presentation(Z, Z, q),
        lambda q: free_diagram(q, 1),
        lambda q: separate_presented(q, 1, 1, Lattice.full(2), Lattice.zero(2)),
        lambda q: FpMatrix(q, 1, 1, ((1,),)),
        lambda q: FpMatrix.from_rows(q, [[1]]),
        lambda q: FpMatrix.from_int(M, q),
        lambda q: FpMatrix.identity(q, 1),
        lambda q: FpMatrix.zeros(q, 1, 1),
        lambda q: FpSubspace(q, 1, (), ()),
        lambda q: FpSubspace.from_vectors(q, 1, [[1]]),
        lambda q: FpSubspace.zero(q, 1),
        lambda q: FpSubspace.full(q, 1),
    ]
    for q in (0, 1, -7, True, 15, 2**32, _FakePrime(4)):
        for build in entries:
            with pytest.raises(ValueError, match="modulus"):
                build(q)


def test_only_validate_prime_builds_a_checked_prime():
    def builds(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and "_Prime" in (
            getattr(func, "id", None), getattr(func, "attr", None)
        )

    calls, inside = set(), set()
    for path in sorted(pathlib.Path(fplinalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls |= {(path.name, node.lineno) for node in ast.walk(tree) if builds(node)}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "validate_prime":
                inside |= {(path.name, node.lineno) for node in ast.walk(fn) if builds(node)}
    assert calls and calls == inside
    assert {name for name, _ in calls} == {"fplinalg.py"}


def _bad_diagram_arguments():
    p = 3
    free = ZModulePresentation.free(1)
    eye = FpMatrix.identity(p, 1)
    unit_relation = ZModulePresentation(1, Lattice.full(1))
    return [
        ("p1 has modulus 5, expected 3", (p, free, free, 1, FpMatrix.identity(5, 1), eye)),
        ("p2 must be 1x1, got 2x2", (p, free, free, 1, eye, FpMatrix.identity(p, 2))),
        ("p1 does not vanish on a relation", (p, unit_relation, free, 1, eye, eye)),
        # a side that is the same objects as side 1 is checked once, not skipped
        ("p1 does not vanish on a relation", (p, unit_relation, unit_relation, 1, eye, eye)),
    ]


def _given_a_checked_prime(cls):
    """``cls`` built from the checked value of its first argument, the prime."""
    return lambda p, *rest: cls(validate_prime(p), *rest)


@pytest.mark.parametrize(
    "build",
    [PullbackDiagram, pytest.param(_given_a_checked_prime(PullbackDiagram), id="checked_p")],
)
def test_derived_diagrams_run_every_check_but_the_primality_test(build):
    for message, args in _bad_diagram_arguments():
        with pytest.raises(ValueError, match=re.escape(message)):
            build(*args)


def _bad_rdiagram_arguments():
    D = free_diagram(3, 1)
    return [
        ("S has a different p", (5, 0, D, IntMatrix.zeros(1, 0), IntMatrix.zeros(1, 0))),
        ("q1 has the wrong shape", (3, 1, D, IntMatrix.zeros(2, 1), IntMatrix.zeros(1, 1))),
        ("q2 has the wrong shape", (3, 1, D, IntMatrix.zeros(1, 1), IntMatrix.zeros(1, 2))),
    ]


@pytest.mark.parametrize(
    "build", [RDiagram, pytest.param(_given_a_checked_prime(RDiagram), id="checked_p")]
)
def test_derived_rdiagrams_run_every_check_but_the_primality_test(build):
    for message, args in _bad_rdiagram_arguments():
        with pytest.raises(ValueError, match=re.escape(message)):
            build(*args)
