"""Brute-force invariants: frozen values and dual-route agreement."""

import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiagram import intlinalg, oracle
from rdiagram.fplinalg import FpMatrix
from rdiagram.homology import ChainComplexR, homology_presentation, homology_rdiagram
from rdiagram.intlinalg import IntMatrix, Lattice, kernel_basis, snf
from rdiagram.oracle import (
    GroupInvariants,
    integer_homology_invariants,
    invariants_equal,
    underlying_invariants_of_presentation,
    underlying_invariants_of_rdiagram,
)
from rdiagram.presentations import ModuleMap
from rdiagram.morphisms import induced_pullback_map
from rdiagram.pullback import DiagramMorphism, PullbackDiagram
from rdiagram.randomgen import random_complex_differentials, random_presentation
from rdiagram.reduction import (
    RDiagram,
    SeparatedPresentation,
    free_diagram,
    reduce_combined,
)

rows = IntMatrix.from_rows

ps = st.sampled_from([2, 3, 5])
seeds = st.integers(0, 10**9)


def presentation_of_free_module(p, rank):
    """Zero source onto the free diagram: presents R^rank."""
    D = free_diagram(p, rank)
    K = free_diagram(p, 0)
    f1 = ModuleMap(K.M1, D.M1, IntMatrix.zeros(rank, 0))
    f2 = ModuleMap(K.M2, D.M2, IntMatrix.zeros(rank, 0))
    fbar = FpMatrix.zeros(p, rank, 0)
    return SeparatedPresentation(DiagramMorphism(K, D, f1, f2, fbar))


class TestGroupInvariants:
    def test_rejects_unit_factors(self):
        with pytest.raises(ValueError, match="exceed 1"):
            GroupInvariants(0, [1, 2])

    def test_rejects_broken_chains(self):
        with pytest.raises(ValueError, match="divisibility"):
            GroupInvariants(0, [4, 6])

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GroupInvariants(-1, [])

    def test_equality_is_structural(self):
        a = GroupInvariants(1, [])
        assert invariants_equal(a, GroupInvariants(1, []))
        assert not invariants_equal(a, GroupInvariants(0, [2]))
        assert hash(a) == hash(GroupInvariants(1, []))


class TestPresentationInvariants:
    def test_zero_module(self):
        pres = presentation_of_free_module(2, 0)
        assert underlying_invariants_of_presentation(pres) == GroupInvariants(0, [])

    def test_free_module_of_rank_one(self):
        # R = Z^2 as a group, with basis (1,1) and (0,p)
        pres = presentation_of_free_module(2, 1)
        assert underlying_invariants_of_presentation(pres) == GroupInvariants(2, [])

    def test_quotient_by_the_first_ideal_generator(self):
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        pres = homology_presentation(C, 1)
        assert underlying_invariants_of_presentation(pres) == GroupInvariants(1, [])


class TestRDiagramInvariants:
    def test_zero_diagram(self):
        rd = homology_rdiagram(ChainComplexR(2, [], ranks=[0]), 0)
        assert underlying_invariants_of_rdiagram(rd) == GroupInvariants(0, [])

    def test_free_module_doubles_the_rank(self):
        for k in (1, 2, 3):
            rd = homology_rdiagram(ChainComplexR(3, [], ranks=[k]), 0)
            assert underlying_invariants_of_rdiagram(rd) == GroupInvariants(2 * k, [])

    def test_multiplication_complex(self):
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        rd = homology_rdiagram(C, 1)
        assert underlying_invariants_of_rdiagram(rd) == GroupInvariants(1, [])

    def test_invalid_diagrams_are_rejected(self):
        rd = homology_rdiagram(ChainComplexR(2, [], ranks=[1]), 0)
        broken = RDiagram(
            rd.p, 1, rd.S, IntMatrix.zeros(rd.S.M1.gens, 1), IntMatrix.zeros(rd.S.M2.gens, 1)
        )
        with pytest.raises(ValueError, match="invalid R-diagram"):
            underlying_invariants_of_rdiagram(broken)


class TestIntegerHomology:
    def test_free_term(self):
        C = ChainComplexR(2, [], ranks=[2])
        assert integer_homology_invariants(C, 0) == GroupInvariants(4, [])

    def test_multiplication_complex_both_degrees(self):
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        assert integer_homology_invariants(C, 1) == GroupInvariants(1, [])
        assert integer_homology_invariants(C, 0) == GroupInvariants(1, [])

    def test_invalid_degree(self):
        C = ChainComplexR(2, [], ranks=[1])
        with pytest.raises(ValueError, match="degree"):
            integer_homology_invariants(C, 2)


@given(p=ps, seed=seeds)
@settings(max_examples=80, deadline=None)
def test_oracle_matches_the_induced_map_cokernel(p, seed):
    rng = random.Random(seed)
    pres = random_presentation(rng, p)
    rank, factors = induced_pullback_map(pres.morphism).cokernel().normal_form()
    assert underlying_invariants_of_presentation(pres) == GroupInvariants(rank, factors)


@given(p=ps, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_reduction_preserves_oracle_invariants(p, seed):
    rng = random.Random(seed)
    pres = random_presentation(rng, p)
    before = underlying_invariants_of_presentation(pres)
    after = underlying_invariants_of_rdiagram(reduce_combined(pres))
    assert invariants_equal(before, after)


@given(p=ps, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_integer_homology_matches_the_pipeline(p, seed):
    rng = random.Random(seed)
    C = ChainComplexR(p, random_complex_differentials(rng, p, [3, 2], bound=2))
    for n in (0, 1):
        assert invariants_equal(
            integer_homology_invariants(C, n),
            underlying_invariants_of_rdiagram(homology_rdiagram(C, n)),
        )


# The construction the oracle replaced, kept here as a second route: each
# lattice the kernel of a wider matrix projected onto its first coordinates,
# each denominator a sum of separately built lattices, each group read off a
# Smith form computed with both transforms.


def _reference_quotient(num, den):
    coords = [num.solve(g) for g in den.basis]
    assert None not in coords
    _, D, _ = snf(IntMatrix.from_cols(coords, rows=num.rank))
    nonzero = [d for d in (D.entries[i][i] for i in range(min(D.rows, D.cols))) if d]
    return GroupInvariants(num.rank - len(nonzero), [d for d in nonzero if d > 1])


def _reference_congruence(D):
    g1, g2 = D.M1.gens, D.M2.gens
    if D.mbar_dim == 0:
        return Lattice.full(g1 + g2)
    stacked = D.p1.lift().hstack(D.p2.lift().scale(-1))
    aux = stacked.hstack(IntMatrix.identity(D.mbar_dim).scale(-D.p))
    return Lattice.from_generators(g1 + g2, [v[: g1 + g2] for v in kernel_basis(aux).basis])


def _reference_pullback_quotient(D, image):
    relations = D.M1.relations.direct_sum(D.M2.relations)
    den = relations.sum(Lattice.from_generators(D.M1.gens + D.M2.gens, image))
    return _reference_quotient(_reference_congruence(D), den)


def reference_presentation_invariants(pres):
    k1 = pres.K.M1.gens
    image = [
        pres.f1.matrix.mul_vec(v[:k1]) + pres.f2.matrix.mul_vec(v[k1:])
        for v in _reference_congruence(pres.K).basis
    ]
    return _reference_pullback_quotient(pres.S, image)


def reference_rdiagram_invariants(rd):
    diag = [rd.q1.column(r) + rd.q2.column(r) for r in range(rd.kdim)]
    return _reference_pullback_quotient(rd.S, diag)


def _reference_pair_kernel(p, d1, d2):
    m = d1.cols
    eye = IntMatrix.identity(m)
    top = d1.hstack(IntMatrix.zeros(d1.rows, 2 * m))
    mid = IntMatrix.zeros(d2.rows, m).hstack(d2).hstack(IntMatrix.zeros(d2.rows, m))
    bot = eye.hstack(eye.scale(-1)).hstack(eye.scale(-p))
    sols = kernel_basis(top.vstack(mid).vstack(bot))
    return Lattice.from_generators(2 * m, [v[: 2 * m] for v in sols.basis])


def reference_integer_homology(C, n):
    dout1, dout2 = C.pair(n)
    din1, din2 = C.pair(n - 1)
    ell, m = din1.cols, dout1.cols
    empty = IntMatrix.zeros(0, ell)
    dom = _reference_pair_kernel(C.p, empty, empty)
    image = [din1.mul_vec(v[:ell]) + din2.mul_vec(v[ell:]) for v in dom.basis]
    return _reference_quotient(
        _reference_pair_kernel(C.p, dout1, dout2), Lattice.from_generators(2 * m, image)
    )


wide_ps = st.sampled_from([2, 3, 5, 1_000_000_007])


@given(p=wide_ps, seed=seeds, ranks=st.lists(st.integers(0, 4), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_complex_invariants_equal_the_kernel_then_project_construction(p, seed, ranks):
    C = ChainComplexR(p, random_complex_differentials(random.Random(seed), p, ranks), ranks=ranks)
    for n in range(C.terms):
        assert oracle._pair_kernel(p, *C.pair(n)) == _reference_pair_kernel(p, *C.pair(n))
        assert integer_homology_invariants(C, n) == reference_integer_homology(C, n)
        rd = homology_rdiagram(C, n)
        assert oracle._congruence_lattice(rd.S) == _reference_congruence(rd.S)
        assert underlying_invariants_of_rdiagram(rd) == reference_rdiagram_invariants(rd)


@given(p=wide_ps, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_presentation_invariants_equal_the_kernel_then_project_construction(p, seed):
    pres = random_presentation(random.Random(seed), p)
    for D in (pres.K, pres.S):
        assert oracle._congruence_lattice(D) == _reference_congruence(D)
    assert underlying_invariants_of_presentation(pres) == reference_presentation_invariants(pres)
    # the reduced diagram maps a nonzero K into S whenever the module has p-torsion there
    rd = reduce_combined(pres)
    assert underlying_invariants_of_rdiagram(rd) == reference_rdiagram_invariants(rd)


def test_rdiagrams_with_a_nonzero_k_equal_the_kernel_then_project_construction():
    # few random degrees have kdim > 0, where the diagonal image of K joins the
    # relation pairs in the denominator; this corpus has a fixed share of them
    found = 0
    for seed in range(100):
        p = (2, 3)[seed % 2]
        rng = random.Random(seed)
        ranks = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        C = ChainComplexR(p, random_complex_differentials(rng, p, ranks, bound=4))
        for n in range(C.terms):
            rd = homology_rdiagram(C, n)
            if rd.kdim:
                found += 1
                assert underlying_invariants_of_rdiagram(rd) == reference_rdiagram_invariants(rd)
    assert found >= 10


def test_each_group_takes_one_preimage_one_lattice_and_one_smith_diagonal(monkeypatch):
    # the five-term complex of the pipeline's pinned counts.  Before, five
    # R-diagram groups took 14 HNFs and five integer groups 25, each group
    # with a Smith form carrying both transforms.  Now a group takes one HNF
    # for its preimage lattice (none when mbar = 0: every pair is congruent),
    # one for its denominator, and one Smith form without transforms
    C = ChainComplexR(3, random_complex_differentials(random.Random(7), 3, [2, 3, 3, 3, 2], bound=2))
    rds = [homology_rdiagram(C, n) for n in range(C.terms)]
    assert [rd.S.mbar_dim for rd in rds] == [1, 0, 1, 0, 0]
    hnfs, smiths = [], []
    hnf, smith = intlinalg._hnf_in_place, oracle._snf_in_place
    monkeypatch.setattr(
        intlinalg, "_hnf_in_place", lambda *a, **kw: hnfs.append(a) or hnf(*a, **kw)
    )
    monkeypatch.setattr(
        oracle, "_snf_in_place", lambda a, n, *t, **kw: smiths.append(t or kw) or smith(a, n, *t, **kw)
    )
    monkeypatch.setattr(intlinalg, "snf", None)  # no Smith form with transforms
    for rd in rds:
        underlying_invariants_of_rdiagram(rd)
    assert (len(hnfs), len(smiths), any(smiths)) == (7, 5, False)
    hnfs.clear(), smiths.clear()
    for n in range(C.terms):
        integer_homology_invariants(C, n)
    assert (len(hnfs), len(smiths), any(smiths)) == (10, 5, False)


def test_the_congruence_lattice_lifts_a_shared_structure_map_once(monkeypatch):
    D = free_diagram(3, 2)
    assert D.p2 is D.p1
    copied = PullbackDiagram(3, D.M1, D.M2, 2, D.p1, FpMatrix(3, 2, 2, D.p2.entries))
    lifted = []
    lift = FpMatrix.lift
    monkeypatch.setattr(FpMatrix, "lift", lambda q: lifted.append(q) or lift(q))
    lattices = []
    for diagram, maps in ((D, [D.p1]), (copied, [copied.p1, copied.p2])):
        lifted.clear()
        lattices.append(oracle._congruence_lattice(diagram))
        assert len(lifted) == len(maps) and all(map(operator.is_, lifted, maps))
    assert lattices[0] == lattices[1]
