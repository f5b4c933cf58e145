"""Ring arithmetic, separation, and morphism criteria: frozen cases + properties."""

import ast
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiagram import morphisms, pullback
from rdiagram.fplinalg import FpMatrix
from rdiagram.intlinalg import IntMatrix, Lattice, preimage_lattice
from rdiagram.presentations import ModuleMap, ZModulePresentation
from rdiagram.morphisms import (
    epi_conditions,
    is_mono,
    is_mono_direct,
    kernel_diagram,
    pullback_group,
    random_block_morphism,
    separate_morphism,
)
from rdiagram.pullback import (
    DiagramMorphism,
    LatticeRModule,
    PullbackDiagram,
    is_separated,
    quotient_ring_check,
    separate,
    separate_presented,
)
from rdiagram.randomgen import random_rmodule, rclose


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
        # P_1S = {(4a, 0)}: (4, 0) has class 2 on the generator (2, 0) of S/P_1S = Z/2
        assert sep.class_coordinates([(4, 0)], side=2) == [(2,)]
        assert sep.diagram.M2.elements_equal((2,), (0,))
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


def _lattice_separation_report(D):
    """``(preseparated, separated, witnesses)`` of ``D``, decided on integer lattices.

    The decision ``is_separated`` made before it moved to F_p: p_i is onto
    when its columns and p Z^d span Z^d, and the kernel condition compares
    the preimage of p Z^d under the lifted map with p*(generators) +
    relations, with a failing basis column of either as the witness.
    """
    p, d = D.p, D.mbar_dim

    def units(n, k):
        return [tuple(k * int(i == j) for i in range(n)) for j in range(n)]

    def side(mod, mat):
        columns = [mat.column(j) for j in range(mat.cols)]
        onto = Lattice.from_generators(d, columns + units(d, p)) == Lattice.full(d)
        kernel = preimage_lattice(mat.lift(), Lattice.scaled_full(d, p))
        expected = Lattice.from_generators(mod.gens, list(mod.relations.basis) + units(mod.gens, p))
        if kernel == expected:
            return onto, True, None
        bad = next((col for col in kernel.basis if not expected.contains(col)), None)
        if bad is None:
            bad = next((col for col in expected.basis if not kernel.contains(col)), None)
        return onto, False, bad

    sides = ((1, side(D.M1, D.p1)), (2, side(D.M2, D.p2)))
    witnesses = [("not-surjective", i, None) for i, (onto, _, _) in sides if not onto]
    witnesses += [("kernel-mismatch", i, bad) for i, (_, ok, bad) in sides if not ok]
    return sides[0][1][0] and sides[1][1][0], not witnesses, tuple(witnesses)


def _disturbed_diagram(rng, p):
    """A separated diagram, with each side perhaps made non-separated.

    A side's map may be left-multiplied by a random square matrix, which
    can break surjectivity and enlarge the kernel; its relations may then
    lose some basis vectors, or gain vectors that the map kills.  Both
    sides may end up the same objects.
    """
    D = separate(random_rmodule(rng, p, rng.randint(1, 3), rng.randint(1, 3))).diagram
    d = D.mbar_dim
    maps, mods = [D.p1, D.p2], [D.M1, D.M2]
    for i in (0, 1):
        if rng.random() < 0.5:
            A = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
            maps[i] = FpMatrix.from_rows(p, A, cols=d) @ maps[i]
        change = rng.randrange(3)
        if change == 1:
            kept = [r for r in mods[i].relations.basis if rng.random() < 0.5]
            mods[i] = ZModulePresentation(mods[i].gens, Lattice.from_generators(mods[i].gens, kept))
        elif change == 2:
            mods[i] = mods[i].quotient_by(v for v in maps[i].kernel().basis if rng.random() < 0.5)
    if rng.random() < 0.25:
        maps[1], mods[1] = maps[0], mods[0]
    return PullbackDiagram(p, mods[0], mods[1], d, maps[0], maps[1])


@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_is_separated_matches_the_lattice_decision(p, seed):
    D = _disturbed_diagram(random.Random(seed), p)
    report = is_separated(D)
    assert (report.preseparated, report.separated, report.witnesses) == _lattice_separation_report(D)


def test_disturbed_diagrams_reach_every_outcome():
    outcomes = set()
    for seed in range(200):
        report = is_separated(_disturbed_diagram(random.Random(seed), (2, 3, 5)[seed % 3]))
        outcomes.add((report.preseparated, report.separated))
        outcomes.update(kind for kind, _, _ in report.witnesses)
    assert outcomes == {(True, True), (True, False), (False, False), "not-surjective", "kernel-mismatch"}


def test_the_separation_check_builds_no_lattice(monkeypatch):
    built = []
    real = Lattice.__post_init__
    monkeypatch.setattr(Lattice, "__post_init__", lambda L: built.append(L) or real(L))
    diagrams = [_disturbed_diagram(random.Random(seed), 3) for seed in range(20)]
    built.clear()
    for D in diagrams:
        is_separated(D)
    assert built == []


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
            pullback, "_mul_entries", lambda p, a, b: products.append(a) or multiply(p, a, b)
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

    def test_each_mixed_pullback_is_built_at_most_once_per_call(self, monkeypatch):
        built = []
        build = morphisms._mixed_pullback_map
        monkeypatch.setattr(
            morphisms, "_mixed_pullback_map", lambda m, side: built.append(side) or build(m, side)
        )
        # every condition of the identity reaches both sides, and none of the
        # zero map's reaches either: f_1, f_2 and fbar are not onto
        sep = separate(LatticeRModule.free(2, 1))
        z = IntMatrix.zeros(1, 1)
        for m, sides in (
            (DiagramMorphism.identity(_free_diagram(2, 2)), [2, 1]),
            (separate_morphism(z, z, sep, sep), []),
        ):
            built.clear()
            epi_conditions(m)
            assert built == sides
        rng = random.Random(7)
        for i in range(60):
            src = random_rmodule(rng, (2, 3, 5)[i % 3], rng.randint(1, 2), rng.randint(1, 2))
            m, _, _ = random_block_morphism(rng, src, rng.randint(1, 2), rng.randint(1, 2))
            built.clear()
            epi_conditions(m)
            assert len(built) == len(set(built)), (i, built)

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


def _ideal_multiples(p, a, b, lattice):
    """P_1M and P_2M of a lattice module, from its basis."""
    b1 = [tuple(p * t for t in col[:a]) + (0,) * b for col in lattice.basis]
    b2 = [(0,) * a + tuple(p * t for t in col[a:]) for col in lattice.basis]
    return Lattice.from_generators(a + b, b1), Lattice.from_generators(a + b, b2)


@given(p=ps, seed=seeds, a=st.integers(1, 3), b=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_each_side_is_factored_as_the_separate_constructions_give(p, seed, a, b):
    # a side's factorisation against from_generators and preimage_lattice
    # on generators | P M, and its solutions against their definition
    rng = random.Random(seed)
    S = random_rmodule(rng, p, a, b)
    sep = separate(S)
    G, k = sep.gen_matrix, sep.gen_matrix.cols
    p1s, p2s = _ideal_multiples(p, a, b, S.lattice)
    elements = [
        G.mul_vec([rng.randint(-4, 4) for _ in range(k)]) for _ in range(3)
    ]
    for side, other in ((1, p2s), (2, p1s)):
        factored = sep.sides[side - 1]
        assert factored.span == Lattice.from_generators(a + b, G.columns() + list(other.basis))
        assert factored.kernel == preimage_lattice(G, other)
        assert sep.diagram.component(side).relations == factored.kernel
        for v, c in zip(elements, sep.class_coordinates(elements, side)):
            assert other.contains([x - y for x, y in zip(v, G.mul_vec(c))])


@given(p=ps, seed=seeds, a=st.integers(1, 3), b=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_embed_pair_is_the_full_product_formula(p, seed, a, b):
    rng = random.Random(seed)
    sep = separate(random_rmodule(rng, p, a, b))
    G, k = sep.gen_matrix, sep.gen_matrix.cols
    for _ in range(4):
        c1, c2 = ([rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(k)] for _ in "12")
        assert sep.embed_pair(c1, c2) == G.mul_vec(c1)[:a] + G.mul_vec(c2)[a:]


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


SIDE_ATTRIBUTES = {"p1", "p2", "M1", "M2", "L1", "L2"}


def test_only_per_side_decides_that_side_2_is_side_1():
    # an identity comparison on a side attribute is the shared-side rule
    # written inline; every two-sided step reaches it through per_side
    def compares_a_side(node):
        return (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(
                isinstance(x, ast.Attribute) and x.attr in SIDE_ATTRIBUTES
                for x in (node.left, *node.comparators)
            )
        )

    paths = sorted(pathlib.Path(pullback.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    found = [
        (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if compares_a_side(node)
    ]
    assert found == []
