"""Brute-force invariants: frozen values and dual-route agreement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiagram.fplinalg import FpMatrix
from rdiagram.homology import ChainComplexR, homology_presentation, homology_rdiagram
from rdiagram.intlinalg import IntMatrix
from rdiagram.oracle import (
    GroupInvariants,
    integer_homology_invariants,
    invariants_equal,
    underlying_invariants_of_presentation,
    underlying_invariants_of_rdiagram,
)
from rdiagram.presentations import ModuleMap
from rdiagram.morphisms import induced_pullback_map
from rdiagram.pullback import DiagramMorphism
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
