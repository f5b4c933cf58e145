"""Ring arithmetic, separation, and morphism criteria: frozen cases + properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiagram import pullback
from rdiagram.fplinalg import FpMatrix
from rdiagram.intlinalg import IntMatrix, Lattice
from rdiagram.presentations import ModuleMap, ZModulePresentation
from rdiagram.pullback import (
    DiagramMorphism,
    LatticeRModule,
    PullbackDiagram,
    epi_conditions,
    is_mono,
    is_mono_direct,
    is_separated,
    kernel_diagram,
    pullback_group,
    quotient_ring_check,
    separate,
    separate_morphism,
    separate_presented,
)
from rdiagram.randomgen import (
    random_block_morphism,
    random_rmodule,
    rclose,
)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_ring_check(p):
    assert quotient_ring_check(p)


def _free_diagram(p, n):
    eye = FpMatrix.identity(p, n)
    free = ZModulePresentation.free(n)
    return PullbackDiagram(p, free, free, n, eye, eye)


class TestPullbackGroup:
    def test_free_rank_one_recovers_the_ring(self):
        pg = pullback_group(_free_diagram(2, 1))
        assert pg.matching.basis == ((1, 1), (0, 2))
        assert pg.presentation.normal_form() == (2, ())
        LatticeRModule(2, 1, 1, pg.matching)  # closure must hold

    def test_zero_middle_gives_direct_sum(self):
        M1 = ZModulePresentation(1, Lattice.from_generators(1, [(4,)]))  # Z/4
        M2 = ZModulePresentation.free(2)
        D = PullbackDiagram(3, M1, M2, 0, FpMatrix.zeros(3, 0, 1), FpMatrix.zeros(3, 0, 2))
        assert pullback_group(D).presentation.normal_form() == (2, (4,))

    def test_identity_maps_give_diagonal(self):
        for p in (2, 3):
            E = ZModulePresentation.fp_elementary(p, 1)
            eye = FpMatrix.identity(p, 1)
            D = PullbackDiagram(p, E, E, 1, eye, eye)
            assert pullback_group(D).presentation.normal_form() == (0, (p,))


class TestSeparate:
    def test_ring_itself(self):
        sep = separate(LatticeRModule.free(2, 1))
        D = sep.diagram
        assert D.M1.normal_form() == (1, ())
        assert D.M2.normal_form() == (1, ())
        assert D.mbar_dim == 1
        assert is_separated(D).separated

    def test_zero_module(self):
        S = LatticeRModule(3, 1, 1, Lattice.zero(2))
        sep = separate(S)
        assert sep.diagram.M1.normal_form() == (0, ())
        assert sep.diagram.M2.normal_form() == (0, ())
        assert sep.diagram.mbar_dim == 0

    def test_first_ideal(self):
        # S = P_1 = {(2a, 0)} inside Z + Z at p = 2
        S = LatticeRModule.from_generators(2, 1, 1, [(2, 0)])
        sep = separate(S)
        assert sep.diagram.M1.normal_form() == (1, ())
        assert sep.diagram.M2.normal_form() == (0, (2,))
        assert sep.diagram.mbar_dim == 1
        assert sep.p1s == Lattice.from_generators(2, [(4, 0)])
        assert sep.embedded_pullback_lattice() == S.lattice
        assert pullback_group(sep.diagram).presentation.normal_form() == (1, ())

    def test_non_closed_input_rejected(self):
        # (0,p)*(1,2) = (0,4) falls outside the span of (1,2)
        with pytest.raises(ValueError):
            LatticeRModule.from_generators(2, 1, 1, [(1, 2)])


class TestIsSeparated:
    @pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (5, 3)])
    def test_free_diagram_separated(self, p, n):
        report = is_separated(_free_diagram(p, n))
        assert report.preseparated and report.separated
        assert report.witnesses == ()

    def test_zero_structure_map_not_preseparated(self):
        free = ZModulePresentation.free(1)
        D = PullbackDiagram(
            2, free, free, 1, FpMatrix.zeros(2, 1, 1), FpMatrix.identity(2, 1)
        )
        report = is_separated(D)
        assert not report.preseparated and not report.separated
        assert ("not-surjective", 1, None) in report.witnesses

    def test_naive_kernel_diagram_not_separated(self):
        # kernels of d1 = [2 0], d2 = [0 2] at p = 2, mapped into ker dbar = F_2^2
        free = ZModulePresentation.free(1)
        p1 = FpMatrix.from_rows(2, [[0], [1]])
        p2 = FpMatrix.from_rows(2, [[1], [0]])
        D = PullbackDiagram(2, free, free, 2, p1, p2)
        report = is_separated(D)
        assert not report.preseparated
        assert not report.separated

    def test_separated_diagrams_share_one_report(self):
        a = is_separated(_free_diagram(2, 1))
        b = is_separated(_free_diagram(5, 3))
        assert a is b

    def test_a_kernel_mismatch_keeps_its_witness(self):
        # p1 = [1 0] on Z^2 is onto F_2, but its kernel holds (0, 1), not in 2 Z^2
        p1 = FpMatrix.from_rows(2, [[1, 0]])
        free1 = ZModulePresentation.free(1)
        D = PullbackDiagram(
            2, ZModulePresentation.free(2), free1, 1, p1, FpMatrix.identity(2, 1)
        )
        report = is_separated(D)
        assert report.preseparated and not report.separated
        assert report.witnesses == (("kernel-mismatch", 1, (0, 1)),)
        assert report is not is_separated(_free_diagram(2, 1))

    @staticmethod
    def _shared_map_diagram(p2_copy: bool):
        # [1 0 0] over F_2 has kernel (2Z, Z, Z); the relations e2 of M1 and
        # e3 of M2 each fill one of the other two coordinates
        q = FpMatrix.from_rows(2, [[1, 0, 0]])
        M1 = ZModulePresentation(3, Lattice.from_generators(3, [(0, 1, 0)]))
        M2 = ZModulePresentation(3, Lattice.from_generators(3, [(0, 0, 1)]))
        q2 = FpMatrix.from_rows(2, [[1, 0, 0]]) if p2_copy else q
        return PullbackDiagram(2, M1, M2, 1, q, q2)

    def test_a_shared_map_keeps_each_sides_own_witness(self):
        D = self._shared_map_diagram(p2_copy=False)
        assert D.p2 is D.p1
        report = is_separated(D)
        assert report.preseparated and not report.separated
        assert report.witnesses == (
            ("kernel-mismatch", 1, (0, 0, 1)),
            ("kernel-mismatch", 2, (0, 1, 0)),
        )
        unshared = is_separated(self._shared_map_diagram(p2_copy=True))
        assert unshared.witnesses == report.witnesses

    def test_a_shared_side_keeps_both_witnesses(self):
        # M2 is M1 and p2 is p1: side 2 is side 1, and both are reported
        M = ZModulePresentation.free(2)
        for q, kind, witness in (
            (FpMatrix.from_rows(2, [[1, 0]]), "kernel-mismatch", (0, 1)),
            (FpMatrix.zeros(2, 1, 2), "not-surjective", None),
        ):
            D = PullbackDiagram(2, M, M, 1, q, q)
            report = is_separated(D)
            assert not report.separated
            assert [(k, i) for k, i, _ in report.witnesses if k == kind] == [(kind, 1), (kind, 2)]
            if witness is not None:
                assert [w for _, _, w in report.witnesses] == [witness, witness]
            copy = FpMatrix(q.p, q.rows, q.cols, q.entries)
            unshared = PullbackDiagram(2, M, ZModulePresentation.free(2), 1, q, copy)
            assert self._fields(is_separated(unshared)) == self._fields(report)

    @staticmethod
    def _fields(report):
        return report.preseparated, report.separated, report.witnesses

    def test_a_swapped_report_is_the_flipped_diagrams_report(self):
        free1, free2 = ZModulePresentation.free(1), ZModulePresentation.free(2)
        eye, rows = FpMatrix.identity(2, 1), FpMatrix.from_rows
        diagrams = [
            # not surjective on side 1 only
            PullbackDiagram(2, free1, free1, 1, FpMatrix.zeros(2, 1, 1), eye),
            # not surjective on either side
            PullbackDiagram(2, free1, free1, 2, rows(2, [[0], [1]]), rows(2, [[1], [0]])),
            # a kernel mismatch on side 1 only
            PullbackDiagram(2, free2, free1, 1, rows(2, [[1, 0]]), eye),
            # a kernel mismatch on each side, with different witnesses
            self._shared_map_diagram(p2_copy=False),
        ]
        for D in diagrams:
            report = is_separated(D)
            assert report.witnesses
            flipped = PullbackDiagram(D.p, D.M2, D.M1, D.mbar_dim, D.p2, D.p1)
            assert self._fields(report.swapped()) == self._fields(is_separated(flipped))
        passing = is_separated(_free_diagram(3, 2))
        assert passing.swapped() is passing


class TestSeparateMorphism:
    def test_identity_blocks_give_identity_triple(self):
        sep = separate(LatticeRModule.free(3, 2))
        eye = IntMatrix.identity(2)
        m = separate_morphism(eye, eye, sep, sep)
        k = len(sep.generators)
        for j in range(k):
            e = tuple(int(t == j) for t in range(k))
            assert m.source.M1.elements_equal(m.f1.matrix.column(j), e)
            assert m.source.M2.elements_equal(m.f2.matrix.column(j), e)
        assert m.fbar == FpMatrix.identity(3, sep.diagram.mbar_dim)

    def test_multiplication_by_ideal_generator(self):
        # (x, y) -> (2x, 0) on R at p = 2: f1 = 2*id, f2 = 0, fbar = 0
        sep = separate(LatticeRModule.free(2, 1))
        m = separate_morphism(
            IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[0]]), sep, sep
        )
        k = len(sep.generators)
        for j in range(k):
            doubled = tuple(2 * int(t == j) for t in range(k))
            assert m.target.M1.elements_equal(m.f1.matrix.column(j), doubled)
            assert m.target.M2.elements_equal(m.f2.matrix.column(j), (0,) * k)
        assert m.fbar.is_zero()

    def test_zero_map_gives_zero_triple(self):
        sep = separate(LatticeRModule.free(2, 2))
        z = IntMatrix.zeros(2, 2)
        m = separate_morphism(z, z, sep, sep)
        assert m.f1.matrix.is_zero() and m.f2.matrix.is_zero() and m.fbar.is_zero()

    def test_image_escaping_target_rejected(self):
        src = separate(LatticeRModule.free(2, 1))
        tgt = separate(LatticeRModule.from_generators(2, 1, 1, [(2, 0)]))
        with pytest.raises(ValueError):
            separate_morphism(
                IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]), src, tgt
            )


class TestMono:
    def test_identity_is_mono(self):
        D = _free_diagram(3, 2)
        m = DiagramMorphism.identity(D)
        assert is_mono(m) and is_mono_direct(m)

    def test_scaling_by_p_is_mono(self):
        sep = separate(LatticeRModule.free(2, 1))
        m = separate_morphism(
            IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[2]]), sep, sep
        )
        assert is_mono(m) and is_mono_direct(m)

    def test_zero_out_of_elementary_diagram_not_mono(self):
        p = 2
        E = ZModulePresentation.fp_elementary(p, 1)
        eye = FpMatrix.identity(p, 1)
        K = PullbackDiagram(p, E, E, 1, eye, eye)
        T = _free_diagram(p, 1)
        zero = ModuleMap(E, T.M1, IntMatrix.zeros(1, 1))
        m = DiagramMorphism(K, T, zero, zero, FpMatrix.zeros(p, 1, 1))
        assert not is_mono(m)
        assert not is_mono_direct(m)


class TestMorphismSquares:
    @pytest.mark.parametrize("p", [2, 5, 1_000_000_007])
    @pytest.mark.parametrize("broken", [1, 2])
    def test_a_broken_square_is_named(self, p, broken):
        # both sides of D share one map, so square 2 is also checked on a shared source
        D = _free_diagram(p, 2)
        same = ModuleMap.identity(D.M1)
        swapped = ModuleMap(D.M1, D.M1, IntMatrix.from_rows([[0, 1], [1, 0]]))
        f1, f2 = (swapped, same) if broken == 1 else (same, swapped)
        with pytest.raises(ValueError, match=f"square {broken} does not commute"):
            DiagramMorphism(D, D, f1, f2, FpMatrix.identity(p, 2))

    @pytest.mark.parametrize("p", [2, 5, 1_000_000_007])
    def test_squares_are_compared_mod_p(self, p):
        # component maps congruent to the identity, with entries outside [0, p)
        D = _free_diagram(p, 2)
        f = ModuleMap(D.M1, D.M1, IntMatrix.from_rows([[1 + p, -p], [3 * p, 1 - 2 * p]]))
        DiagramMorphism(D, D, f, f, FpMatrix.identity(p, 2))

    def test_fbar_times_a_shared_source_map_is_formed_once(self, monkeypatch):
        D = _free_diagram(3, 2)
        assert D.p2 is D.p1
        copy = PullbackDiagram(
            3, D.M1, D.M2, 2, D.p1, FpMatrix(3, 2, 2, D.p2.entries)
        )
        eye = ModuleMap.identity(D.M1)
        fbar = FpMatrix.identity(3, 2)
        products = []
        multiply = pullback._mul_entries
        monkeypatch.setattr(
            pullback, "_mul_entries", lambda p, a, b, n: products.append(a) or multiply(p, a, b, n)
        )
        for source, expected in ((D, 1), (copy, 2)):
            products.clear()
            DiagramMorphism(source, D, eye, eye, fbar)
            assert sum(a is fbar.entries for a in products) == expected
            assert len(products) == 2 + expected

    def test_fbar_over_another_prime_is_rejected(self):
        D = _free_diagram(3, 1)
        eye = ModuleMap.identity(D.M1)
        with pytest.raises(ValueError, match="mixing different moduli"):
            DiagramMorphism(D, D, eye, eye, FpMatrix.identity(5, 1))

    def test_empty_middle_and_components(self):
        for n in (0, 1):
            D = PullbackDiagram(
                2, ZModulePresentation.free(n), ZModulePresentation.free(n), 0,
                FpMatrix.zeros(2, 0, n), FpMatrix.zeros(2, 0, n),
            )
            DiagramMorphism.identity(D)


class TestEpi:
    def test_identity_all_conditions_hold(self):
        m = DiagramMorphism.identity(_free_diagram(2, 2))
        report = epi_conditions(m)
        assert report.cond1 and report.cond2 and report.cond3 and report.cond4
        assert report.direct

    def test_zero_onto_nonzero_all_false(self):
        sep = separate(LatticeRModule.free(2, 1))
        z = IntMatrix.zeros(1, 1)
        m = separate_morphism(z, z, sep, sep)
        report = epi_conditions(m)
        assert not (report.cond1 or report.cond2 or report.cond3 or report.cond4)
        assert not report.direct

    def test_kernel_diagram_of_identity_is_zero(self):
        m = DiagramMorphism.identity(_free_diagram(3, 2))
        kd = kernel_diagram(m)
        assert kd.kerfbar.dim == 0
        assert kd.diagram.M1.normal_form() == (0, ())
        assert kd.diagram.M2.normal_form() == (0, ())


# ---------------------------------------------------------------------------
# properties over seeded random modules and morphisms
# ---------------------------------------------------------------------------

ps = st.sampled_from([2, 3, 5])
seeds = st.integers(min_value=0, max_value=10**9)


@given(p=ps, seed=seeds, a=st.integers(1, 3), b=st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_separate_recovers_module(p, seed, a, b):
    S = random_rmodule(random.Random(seed), p, a, b)
    sep = separate(S)
    assert sep.embedded_pullback_lattice() == S.lattice


@given(p=ps, seed=seeds, a=st.integers(1, 3), b=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_pullback_of_separated_diagram_is_free_of_module_rank(p, seed, a, b):
    S = random_rmodule(random.Random(seed), p, a, b)
    sep = separate(S)
    pres = pullback_group(sep.diagram).presentation
    assert pres.normal_form() == (S.lattice.rank, ())


def _reseparate(D):
    """Separate the honest pullback module (matching lattice mod relations)."""
    pg = pullback_group(D)
    return separate_presented(
        D.p, D.M1.gens, D.M2.gens, pg.matching, pg.relations
    ).diagram


@given(p=ps, seed=seeds, a=st.integers(1, 3), b=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_separate_after_pullback_reproduces_components(p, seed, a, b):
    S = random_rmodule(random.Random(seed), p, a, b)
    D = separate(S).diagram
    again = _reseparate(D)
    assert again.M1.normal_form() == D.M1.normal_form()
    assert again.M2.normal_form() == D.M2.normal_form()
    assert again.mbar_dim == D.mbar_dim


def test_separate_after_pullback_on_torsion_diagram():
    # the diagonal Z/p diagram is separated; its pullback must round-trip
    for p in (2, 3):
        E = ZModulePresentation.fp_elementary(p, 1)
        eye = FpMatrix.identity(p, 1)
        D = PullbackDiagram(p, E, E, 1, eye, eye)
        assert is_separated(D).separated
        again = _reseparate(D)
        assert again.M1.normal_form() == (0, (p,))
        assert again.M2.normal_form() == (0, (p,))
        assert again.mbar_dim == 1


@given(p=ps, seed=seeds, a=st.integers(1, 2), b=st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_closed_sublattices_separate_cleanly(p, seed, a, b):
    rng = random.Random(seed)
    S = random_rmodule(rng, p, a, b)
    picked = [col for col in S.lattice.basis if rng.random() < 0.7]
    scaled = [tuple(rng.choice((1, p)) * x for x in col) for col in picked]
    sub = rclose(p, a, b, Lattice.from_generators(a + b, scaled))
    report = is_separated(separate(LatticeRModule(p, a, b, sub)).diagram)
    assert report.separated


@given(p=ps, seed=seeds)
@settings(max_examples=120, deadline=None)
def test_mono_criterion_agrees_with_direct_kernel(p, seed):
    rng = random.Random(seed)
    src = random_rmodule(rng, p, rng.randint(1, 2), rng.randint(1, 2))
    m, _, _ = random_block_morphism(rng, src, rng.randint(1, 2), rng.randint(1, 2))
    assert is_mono(m) == is_mono_direct(m)


@given(p=ps, seed=seeds)
@settings(max_examples=80, deadline=None)
def test_epi_conditions_imply_direct_surjectivity(p, seed):
    rng = random.Random(seed)
    src = random_rmodule(rng, p, rng.randint(1, 2), rng.randint(1, 2))
    m, _, _ = random_block_morphism(rng, src, rng.randint(1, 2), rng.randint(1, 2))
    report = epi_conditions(m)
    if report.cond1 or report.cond2 or report.cond3 or report.cond4:
        assert report.direct


@given(p=ps, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_image_closure_morphisms_are_direct_epis(p, seed):
    rng = random.Random(seed)
    src = random_rmodule(rng, p, rng.randint(1, 2), rng.randint(1, 2))
    m, _, _ = random_block_morphism(
        rng, src, rng.randint(1, 2), rng.randint(1, 2), extra_target_gens=0
    )
    assert epi_conditions(m).direct
