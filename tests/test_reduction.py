"""Reduction calculus: frozen worked examples plus preservation properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiagram import pullback, reduction
from rdiagram.fplinalg import FpMatrix, FpSubspace
from rdiagram.homology import ChainComplexR, homology_presentations, homology_rdiagram
from rdiagram.intlinalg import IntMatrix, Lattice
from rdiagram.presentations import ModuleMap, ZModulePresentation
from rdiagram.pullback import (
    DiagramMorphism,
    LatticeRModule,
    PullbackDiagram,
    induced_pullback_map,
    is_separated,
    separate,
)
from rdiagram.randomgen import random_complex_differentials, random_presentation
from rdiagram.reduction import (
    HypothesisViolation,
    RDiagram,
    SeparatedPresentation,
    SubDiagram,
    free_diagram,
    quotient_presentation,
    rdiagram_as_presentation,
    reduce_K,
    reduce_barf,
    reduce_combined,
    reduce_monos,
    reduce_sequential,
    validate_rdiagram,
)


def coker_invariants(pres):
    """Normal form of the module a presentation presents."""
    return induced_pullback_map(pres.morphism).cokernel().normal_form()


def presentation_from_pairs(p, pairs, D):
    """Presentation with free source sending generators to matching pairs."""
    g1, g2 = D.M1.gens, D.M2.gens
    ell = len(pairs)
    K = free_diagram(p, ell)
    m1 = IntMatrix.from_cols([v[:g1] for v in pairs], rows=g1)
    m2 = IntMatrix.from_cols([v[g1:] for v in pairs], rows=g2)
    f1 = ModuleMap(K.M1, D.M1, m1)
    f2 = ModuleMap(K.M2, D.M2, m2)
    fbar = D.p1 @ FpMatrix.from_int(m1, p)
    return SeparatedPresentation(DiagramMorphism(K, D, f1, f2, fbar))


def mult_by_element_presentation(p, element):
    """Multiplication by a ring element on the rank-one free module."""
    sep = separate(LatticeRModule.free(p, 1))
    D = sep.diagram
    (c1,) = sep.class_coordinates([element], side=1)
    (c2,) = sep.class_coordinates([element], side=2)
    return presentation_from_pairs(p, [c1 + c2], D)


def identity_presentation(p, rank):
    D = free_diagram(p, rank)
    eye = IntMatrix.identity(rank)
    f = ModuleMap(D.M1, D.M1, eye)
    return SeparatedPresentation(
        DiagramMorphism(D, D, f, f, FpMatrix.identity(p, rank))
    )


class TestFreeDiagram:
    def test_rank_zero_is_the_zero_diagram(self):
        D = free_diagram(2, 0)
        assert D.M1.normal_form() == (0, ()) and D.M2.normal_form() == (0, ()) and D.mbar_dim == 0
        assert is_separated(D).separated

    def test_rank_one_presents_the_ring(self):
        D = free_diagram(2, 1)
        from rdiagram.pullback import pullback_group

        assert pullback_group(D).presentation.normal_form() == (2, ())
        assert is_separated(D).separated

    def test_rank_three_is_separated(self):
        assert is_separated(free_diagram(2, 3)).separated


class TestQuotientPresentation:
    def test_zero_subdiagram_changes_nothing(self):
        pres = identity_presentation(3, 2)
        L = SubDiagram(
            pres.K,
            Lattice.zero(2),
            FpSubspace.zero(3, 2),
            Lattice.zero(2),
        )
        out = quotient_presentation(pres, L, mode="full")
        assert out.K.M1 == pres.K.M1 and out.K.M2 == pres.K.M2
        assert out.S.M1 == pres.S.M1 and out.S.M2 == pres.S.M2
        assert out.K.mbar_dim == pres.K.mbar_dim
        assert out.f1.matrix == pres.f1.matrix
        assert out.fbar == pres.fbar

    def test_u1_surjectivity_is_checked(self):
        pres = identity_presentation(2, 1)
        L = SubDiagram(
            pres.K,
            Lattice.scaled_full(1, 2),
            FpSubspace.full(2, 1),
            Lattice.full(1),
        )
        with pytest.raises(HypothesisViolation) as exc:
            quotient_presentation(pres, L, mode="full")
        assert exc.value.condition == "u1-not-surjective"

    def test_fbar_injectivity_on_Lbar_is_checked(self):
        pres = mult_by_element_presentation(2, (2, 0))
        assert pres.fbar.is_zero()
        L = SubDiagram(
            pres.K,
            Lattice.full(1),
            FpSubspace.full(2, 1),
            Lattice.full(1),
        )
        with pytest.raises(HypothesisViolation) as exc:
            quotient_presentation(pres, L, mode="full")
        assert exc.value.condition == "fbar-not-injective-on-Lbar"

    def test_target_only_rejects_nonvanishing_f2(self):
        pres = identity_presentation(2, 1)
        L = SubDiagram(
            pres.K,
            Lattice.full(1),
            FpSubspace.full(2, 1),
            Lattice.full(1),
        )
        with pytest.raises(HypothesisViolation) as exc:
            quotient_presentation(pres, L, mode="target-only")
        assert exc.value.condition == "f2-nonzero-on-L2"

    def test_unknown_mode_rejected(self):
        pres = identity_presentation(2, 1)
        L = SubDiagram(
            pres.K, Lattice.zero(1), FpSubspace.zero(2, 1), Lattice.zero(1)
        )
        with pytest.raises(ValueError, match="mode"):
            quotient_presentation(pres, L, mode="both")

    def test_subdiagram_must_map_into_Lbar(self):
        pres = identity_presentation(2, 1)
        with pytest.raises(ValueError, match="outside Lbar"):
            SubDiagram(
                pres.K, Lattice.full(1), FpSubspace.zero(2, 1), Lattice.zero(1)
            )
        # a side with the same lattice and map as side 1 is checked once, not skipped
        full = Lattice.full(1)
        assert pres.K.p2 is pres.K.p1
        with pytest.raises(ValueError, match="outside Lbar"):
            SubDiagram(pres.K, full, FpSubspace.zero(2, 1), full)


class TestElementaryReductions:
    def test_reduce_K_standardizes_a_free_source(self):
        pres = identity_presentation(2, 2)
        out = reduce_K(pres)
        elementary = ZModulePresentation.fp_elementary(2, 2)
        assert out.K.M1 == elementary and out.K.M2 == elementary
        assert out.K.p1 == FpMatrix.identity(2, 2)
        assert out.K.p2 == FpMatrix.identity(2, 2)
        assert coker_invariants(out) == coker_invariants(pres)

    def test_reduce_K_fixes_standard_form(self):
        rd = reduce_combined(mult_by_element_presentation(2, (2, 0)))
        pres = rdiagram_as_presentation(rd)
        out = reduce_K(pres)
        assert out.K.M1 == pres.K.M1
        assert out.f1.matrix == pres.f1.matrix
        assert out.f2.matrix == pres.f2.matrix

    def test_reduce_barf_with_injective_fbar_empties_Kbar(self):
        out = reduce_barf(identity_presentation(2, 2))
        assert out.K.mbar_dim == 0
        assert out.fbar.is_zero()
        assert out.K.M1.normal_form() == (0, ()) and out.K.M2.normal_form() == (0, ())

    def test_reduce_barf_rank_one_leaves_one_dimension(self):
        D = free_diagram(2, 2)
        pres = presentation_from_pairs(2, [(1, 0, 1, 0), (0, 2, 0, 2)], D)
        assert pres.fbar.rank() == 1
        out = reduce_barf(pres)
        assert out.K.mbar_dim == 1
        assert out.fbar.is_zero()
        assert coker_invariants(out) == coker_invariants(pres)

    def test_reduce_monos_requires_vanishing_fbar(self):
        with pytest.raises(HypothesisViolation) as exc:
            reduce_monos(identity_presentation(2, 1))
        assert exc.value.condition == "fbar-not-zero"

    def test_reduce_monos_makes_components_injective(self):
        pres = mult_by_element_presentation(2, (2, 0))
        out = reduce_monos(reduce_barf(reduce_K(pres)))
        assert out.morphism.f1.is_injective()
        assert out.morphism.f2.is_injective()
        assert coker_invariants(out) == coker_invariants(pres)


class TestCombinedReduction:
    def test_ideal_quotient_worked_example(self):
        pres = mult_by_element_presentation(2, (2, 0))
        rd = reduce_combined(pres)
        assert rd.kdim == 0
        assert rd.S.M1.normal_form() == (0, (2,))
        assert rd.S.M2.normal_form() == (1, ())
        assert rd.S.mbar_dim == 1
        assert validate_rdiagram(rd).ok
        assert coker_invariants(rdiagram_as_presentation(rd)) == (1, ())

    def test_identity_presents_the_zero_module(self):
        rd = reduce_combined(identity_presentation(2, 2))
        assert rd.kdim == 0
        assert rd.S.M1.normal_form() == (0, ()) and rd.S.M2.normal_form() == (0, ())
        assert rd.S.mbar_dim == 0

    def test_matches_sequential_on_the_worked_example(self):
        pres = mult_by_element_presentation(2, (2, 0))
        a, b = reduce_combined(pres), reduce_sequential(pres)
        assert a.kdim == b.kdim
        assert a.S.M1.normal_form() == b.S.M1.normal_form()
        assert a.S.M2.normal_form() == b.S.M2.normal_form()
        assert a.S.mbar_dim == b.S.mbar_dim


def _stepwise_subdiagram(pres):
    """The sub-diagram ``reduce_barf`` quotients by: a complement of ker fbar."""
    K = pres.K
    Lbar = pres.fbar.kernel().complement()
    return SubDiagram(
        K,
        reduction._subspace_preimage(K.p1, Lbar),
        Lbar,
        reduction._subspace_preimage(K.p2, Lbar),
    )


def _with_copied_p2(D):
    """D with p2 an equal but distinct matrix, so its sides share no map."""
    p2 = FpMatrix(D.p, D.p2.rows, D.p2.cols, D.p2.entries)
    return PullbackDiagram(D.p, D.M1, D.M2, D.mbar_dim, D.p1, p2)


class TestSharedStructureMaps:
    def test_pipeline_rdiagrams_share_one_structure_map(self):
        for seed in range(12):
            rng = random.Random(seed)
            p = rng.choice((2, 3, 5))
            ranks = [rng.randint(1, 3) for _ in range(3)]
            C = ChainComplexR(p, random_complex_differentials(rng, p, ranks))
            for n in range(C.terms):
                rd = homology_rdiagram(C, n)
                assert rd.S.p1 is rd.S.p2

    def test_a_shared_map_is_projected_once(self, monkeypatch):
        shared = mult_by_element_presentation(3, (3, 0))
        m = shared.morphism
        K, S = _with_copied_p2(m.source), _with_copied_p2(m.target)
        copied = SeparatedPresentation(DiagramMorphism(K, S, m.f1, m.f2, m.fbar))
        products = []
        matmul = FpMatrix.__matmul__

        def counting(a, b):
            products.append(b)
            return matmul(a, b)

        monkeypatch.setattr(FpMatrix, "__matmul__", counting)
        outputs = []
        for pres in (shared, copied):
            maps = [pres.K.p1, pres.K.p2, pres.S.p1, pres.S.p2]
            products.clear()
            out = reduction._apply_quotient(
                pres, _stepwise_subdiagram(pres), quotient_target_right=True
            )
            outputs.append(out)
            # products with a structure map, apart from fbar's two factors
            structure_products = sum(any(b is q for q in maps) for b in products)
            assert structure_products == (2 if pres is shared else 4)
        one, two = outputs
        assert one.K.p2 is one.K.p1 and one.S.p2 is one.S.p1
        for i in (1, 2):
            assert one.K.structure_map(i) == two.K.structure_map(i)
            assert one.S.structure_map(i) == two.S.structure_map(i)
        assert one.fbar == two.fbar

    def test_swap_carries_the_separation_report(self, monkeypatch):
        stage2 = reduce_barf(reduce_K(mult_by_element_presentation(2, (2, 0))))
        evaluations = []
        evaluate = pullback._separation_report

        def counting(D):
            evaluations.append(D)
            return evaluate(D)

        monkeypatch.setattr(pullback, "_separation_report", counting)
        swapped = reduction._swap(stage2)
        assert evaluations == []
        assert swapped.K._sep_cache is pullback._SEPARATED
        assert swapped.S._sep_cache is pullback._SEPARATED
        out = reduce_monos(stage2)
        # one evaluation for each of K and S per one-sided quotient; the two
        # swaps rebuild four diagrams and evaluate none of them
        assert len(evaluations) == 4
        assert out.morphism.f1.is_injective() and out.morphism.f2.is_injective()


class TestSharedSides:
    """A side that is the same objects as side 1 is computed and checked once."""

    @staticmethod
    def _free_source_presentations():
        for seed in range(8):
            rng = random.Random(seed)
            p = rng.choice((2, 3, 5))
            ranks = [rng.randint(1, 3) for _ in range(3)]
            C = ChainComplexR(p, random_complex_differentials(rng, p, ranks))
            yield from homology_presentations(C, range(C.terms))

    def test_reduce_combined_takes_one_preimage_on_a_free_source(self, monkeypatch):
        calls = []
        preimage = reduction._subspace_preimage
        monkeypatch.setattr(
            reduction, "_subspace_preimage", lambda q, V: calls.append(q) or preimage(q, V)
        )
        for pres in self._free_source_presentations():
            assert pres.K.p2 is pres.K.p1
            calls.clear()
            rd = reduce_combined(pres)
            assert len(calls) == 1
            # the same reduction with K's sides sharing nothing takes two
            m = pres.morphism
            K = _with_copied_p2(m.source)
            copied = SeparatedPresentation(DiagramMorphism(K, m.target, m.f1, m.f2, m.fbar))
            calls.clear()
            other = reduce_combined(copied)
            assert len(calls) == 2
            assert (rd.kdim, rd.S.M1, rd.S.M2, rd.q1, rd.q2) == (
                other.kdim, other.S.M1, other.S.M2, other.q1, other.q2
            )

    def test_a_shared_side_is_quotiented_once(self):
        for pres in self._free_source_presentations():
            L = reduction._preimage_subdiagram(pres.K, pres.fbar.kernel().complement())
            assert L.L2 is L.L1 and pres.K.M2 is pres.K.M1
            out = reduction._apply_quotient(pres, L, quotient_target_right=True)
            assert out.K.M2 is out.K.M1


class TestValidateRDiagram:
    def test_zero_structure_maps_fail_the_mono_check(self):
        D = free_diagram(2, 1)
        rd = RDiagram(2, 1, D, IntMatrix.zeros(1, 1), IntMatrix.zeros(1, 1))
        report = validate_rdiagram(rd)
        assert not report.ok
        assert set(report.failed()) == {"q1-mono", "q2-mono"}

    def test_nonsurjective_structure_map_fails_separatedness(self):
        free = ZModulePresentation.free(1)
        D = PullbackDiagram(
            2, free, free, 1, FpMatrix.zeros(2, 1, 1), FpMatrix.identity(2, 1)
        )
        rd = RDiagram(2, 0, D, IntMatrix.zeros(1, 0), IntMatrix.zeros(1, 0))
        report = validate_rdiagram(rd)
        assert report.failed() == ["s-separated"]

    def test_torsion_image_is_checked(self):
        D = free_diagram(2, 1)
        rd = RDiagram(2, 1, D, IntMatrix.identity(1), IntMatrix.identity(1))
        report = validate_rdiagram(rd)
        assert "q1-torsion-image" in report.failed()

    def test_report_is_kept_on_the_diagram(self):
        rd = reduce_combined(random_presentation(random.Random(3), 3))
        assert validate_rdiagram(rd) is validate_rdiagram(rd)

    def test_valid_diagrams_share_one_passing_report(self):
        names = (
            "q1-torsion-image", "q1-mono", "p1q1-zero",
            "q2-torsion-image", "q2-mono", "p2q2-zero",
            "s-separated",
        )
        rds = []
        for seed, p, ranks in ((0, 3, [2, 3, 2]), (1, 5, [1, 2])):
            C = ChainComplexR(p, random_complex_differentials(random.Random(seed), p, ranks))
            rds.append(homology_rdiagram(C, 0))
        first, second = (validate_rdiagram(rd) for rd in rds)
        assert first is second
        assert first.checks == tuple((name, True, None) for name in names)
        assert all(reduction._rdiagram_checks(rd) == first.checks for rd in rds)

    def test_a_failing_report_is_the_diagrams_own(self):
        rd = reduce_combined(random_presentation(random.Random(7), 3))
        assert rd.kdim > 0 and validate_rdiagram(rd).ok
        scaled = IntMatrix.from_rows(
            [[rd.p * x for x in row] for row in rd.q1.entries], cols=rd.kdim
        )
        report = validate_rdiagram(RDiagram(rd.p, rd.kdim, rd.S, scaled, rd.q2))
        assert report is not validate_rdiagram(rd)
        assert report.failed() == ["q1-mono"]
        witness = next(w for name, _, w in report.checks if name == "q1-mono")
        assert witness is not None and any(x % rd.p for x in witness)


ps = st.sampled_from([2, 3, 5])
seeds = st.integers(min_value=0, max_value=10**9)


@given(p=ps, seed=seeds, a=st.integers(1, 3), b=st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_reductions_preserve_the_presented_module(p, seed, a, b):
    rng = random.Random(seed)
    pres = random_presentation(rng, p, a, b)
    base = coker_invariants(pres)
    step = reduce_K(pres)
    assert coker_invariants(step) == base
    step = reduce_barf(step)
    assert coker_invariants(step) == base
    step = reduce_monos(step)
    assert coker_invariants(step) == base
    rd = reduce_combined(pres)
    assert validate_rdiagram(rd).ok
    assert coker_invariants(rdiagram_as_presentation(rd)) == base


@given(p=ps, seed=seeds, a=st.integers(1, 3), b=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_combined_agrees_with_sequential(p, seed, a, b):
    rng = random.Random(seed)
    pres = random_presentation(rng, p, a, b)
    one, two = reduce_combined(pres), reduce_sequential(pres)
    assert one.kdim == two.kdim
    assert one.S.M1.normal_form() == two.S.M1.normal_form()
    assert one.S.M2.normal_form() == two.S.M2.normal_form()
    assert one.S.mbar_dim == two.S.mbar_dim


@given(p=ps, seed=seeds, a=st.integers(1, 2), b=st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_reduction_is_idempotent(p, seed, a, b):
    rng = random.Random(seed)
    rd = reduce_combined(random_presentation(rng, p, a, b))
    again = reduce_combined(rdiagram_as_presentation(rd))
    assert again.kdim == rd.kdim
    assert again.q1 == rd.q1 and again.q2 == rd.q2
    assert again.S.M1 == rd.S.M1 and again.S.M2 == rd.S.M2
    assert again.S.p1 == rd.S.p1 and again.S.p2 == rd.S.p2


@given(p=ps, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_postconditions_of_each_stage(p, seed):
    rng = random.Random(seed)
    pres = random_presentation(rng, p, 2, 2)
    stage1 = reduce_K(pres)
    d = stage1.K.mbar_dim
    assert stage1.K.M1 == ZModulePresentation.fp_elementary(p, d)
    assert stage1.K.p1 == FpMatrix.identity(p, d)
    stage2 = reduce_barf(stage1)
    assert stage2.fbar.is_zero()
    stage3 = reduce_monos(stage2)
    assert stage3.morphism.f1.is_injective()
    assert stage3.morphism.f2.is_injective()
