"""Homology pipeline: frozen worked examples plus cross-route properties."""

import dataclasses
import pathlib
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdiagram.fplinalg as fplinalg
import rdiagram.homology as homology
import rdiagram.intlinalg as intlinalg
import rdiagram.pullback as pullback
from rdiagram.fplinalg import FpMatrix
from rdiagram.homology import (
    ChainComplexR,
    GeneratorSets,
    _divisibility_check,
    canonical_kernel_presentation,
    closed_form_components,
    congruent_kernel_lattice,
    generator_sets,
    homology_presentation,
    homology_rdiagram,
    kernel_split,
    reduce_homology,
    rewrite_differential,
    validate_complex,
)
from rdiagram.intlinalg import IntMatrix, Lattice, kernel_basis, lattice_intersection
from rdiagram.presentations import ZModulePresentation
from rdiagram.oracle import (
    GroupInvariants,
    integer_homology_invariants,
    invariants_equal,
    underlying_invariants_of_presentation,
    underlying_invariants_of_rdiagram,
)
from rdiagram.morphisms import _direct_sum, induced_pullback_map
from rdiagram.pullback import is_separated
from rdiagram.randomgen import (
    random_complex_differentials,
    random_congruent_pair,
    random_int_matrix,
)
from rdiagram.reduction import free_diagram, validate_rdiagram

from helpers import rdiagram_as_presentation

rows = IntMatrix.from_rows

ps = st.sampled_from([2, 3, 5])
seeds = st.integers(0, 10**9)


def two_by_two(p):
    """The running example: d1 = [2 0], d2 = [0 2] over p = 2."""
    assert p == 2
    return rows([[2, 0]]), rows([[0, 2]])


def count_kernel_evaluations(monkeypatch):
    """The matrices whose kernel basis ``homology`` evaluates; memo hits are left out."""
    evaluations = []
    real = homology.kernel_basis

    def counting(M):
        if getattr(M, "_kernel", None) is None:
            evaluations.append(M)
        return real(M)

    monkeypatch.setattr(homology, "kernel_basis", counting)
    return evaluations


def fresh(C):
    """A copy of ``C`` on newly built matrices, whose kernels nobody has taken yet."""
    degrees = [tuple(IntMatrix.from_rows(d.entries, cols=d.cols) for d in pair) for pair in C.degrees]
    return ChainComplexR(C.p, degrees, ranks=C.ranks)


class TestChainComplexR:
    def test_shapes_must_chain(self):
        with pytest.raises(ValueError, match="chain"):
            ChainComplexR(2, [(rows([[2]]), rows([[0]])), (rows([[2, 0]]), rows([[0, 2]]))])

    def test_paired_shapes_must_match(self):
        with pytest.raises(ValueError, match="share"):
            ChainComplexR(2, [(rows([[2]]), rows([[0, 0]]))])

    def test_ranks_required_without_differentials(self):
        with pytest.raises(ValueError, match="ranks"):
            ChainComplexR(2, [])
        C = ChainComplexR(2, [], ranks=[3])
        assert C.terms == 1 and C.rank(0) == 3

    def test_exactly_one_rank_without_differentials(self):
        # a second term would have no map out of it, and no rank gives no term
        for ranks in ([1, 2], []):
            with pytest.raises(ValueError, match="exactly one entry"):
                ChainComplexR(2, [], ranks=ranks)

    def test_explicit_ranks_checked(self):
        with pytest.raises(ValueError, match="disagree"):
            ChainComplexR(2, [(rows([[2]]), rows([[0]]))], ranks=[1, 2])

    def test_edge_pairs_are_zero(self):
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        before, _ = C.pair(-1)
        after, _ = C.pair(1)
        assert (before.rows, before.cols) == (1, 0)
        assert (after.rows, after.cols) == (0, 1)
        with pytest.raises(ValueError):
            C.pair(2)

    def test_congruence_is_not_checked_at_construction(self):
        # semantic defects must be constructible so reports can locate them
        C = ChainComplexR(2, [(rows([[2]]), rows([[1]]))])
        assert not validate_complex(C).ok


class TestValidateComplex:
    def test_all_zero_differentials_are_valid(self):
        z = rows([[0, 0], [0, 0]])
        assert validate_complex(ChainComplexR(3, [(z, z)])).ok

    def test_congruence_failure_is_located(self):
        report = validate_complex(ChainComplexR(2, [(rows([[2]]), rows([[1]]))]))
        assert report.failures == (("congruence", 0, (0, 0)),)

    def test_composition_failure_is_located(self):
        d = rows([[1], [0]])
        dprime = rows([[1, 0]])
        report = validate_complex(ChainComplexR(2, [(d, d), (dprime, dprime)]))
        kinds = {(kind, deg) for kind, deg, _ in report.failures}
        assert kinds == {("composition-d1", 0), ("composition-d2", 0)}


def split_along(f, g):
    """Split ker f along ker f ∩ ker g, whose coordinates are the kernel of g on ker f's basis."""
    ker = kernel_basis(f)
    return kernel_split(ker, kernel_basis(g @ ker.basis_matrix()))


def two_split_sets(d1, d2):
    """The generator families from one split of each kernel along the other matrix."""
    v12, v1 = split_along(d1, d2)
    _, v2 = split_along(d2, d1)
    return tuple(map(tuple, v12)), tuple(map(tuple, v1)), tuple(map(tuple, v2))


class TestKernelSplit:
    def test_transverse_kernels(self):
        K, U = split_along(rows([[1, 0]]), rows([[0, 1]]))
        assert K == []
        assert U == [(0, 1)]

    def test_zero_against_projection(self):
        K, U = split_along(rows([[0, 0]]), rows([[1, 0]]))
        assert K == [(0, 1)]
        assert U == [(1, 0)]

    def test_equal_maps_put_everything_in_K(self):
        f = rows([[2, 4]])
        K, U = split_along(f, f)
        assert U == []
        assert Lattice.from_generators(2, K) == kernel_basis(f)


class TestGeneratorSets:
    def test_zero_maps_make_everything_diagonal(self):
        z = rows([[0, 0]])
        gs = generator_sets(z, z, 3)
        assert gs.v12 == ((1, 0), (0, 1))
        assert gs.v1 == () and gs.v2 == ()

    def test_running_example(self):
        d1, d2 = two_by_two(2)
        gs = generator_sets(d1, d2, 2)
        assert gs.v12 == ()
        assert gs.v1 == ((0, 1),)
        assert gs.v2 == ((1, 0),)

    def test_identity_differential_kills_all_sets(self):
        eye = IntMatrix.identity(2)
        gs = generator_sets(eye, eye, 5)
        assert gs.v12 == () and gs.v1 == () and gs.v2 == ()

    def test_one_product_kernel_per_call(self, monkeypatch):
        # the intersection comes from the kernel of d2 on ker d1's basis alone;
        # side 2 reads v12's coordinates in ker d2's basis instead of a second one
        d1, d2 = rows([[2, 0, 1], [0, 0, 0]]), rows([[0, 0, 1], [2, 0, 0]])
        evaluations = count_kernel_evaluations(monkeypatch)
        gs = generator_sets(d1, d2, 2)
        assert evaluations == [d1, d2, d2 @ kernel_basis(d1).basis_matrix()]
        assert (gs.v12, gs.v1, gs.v2) == two_split_sets(d1, d2)

    def test_intersection_outside_ker_d2_is_fatal(self, monkeypatch):
        # side 1's split must hand side 2 vectors of ker d2; a corrupted one
        # has no coordinates in its basis
        d1, d2 = two_by_two(2)
        real = homology.kernel_split

        def corrupted(ker, inner):
            K, U = real(ker, inner)
            return (K + [(0, 1)], U) if ker is kernel_basis(d1) else (K, U)

        monkeypatch.setattr(homology, "kernel_split", corrupted)
        with pytest.raises(AssertionError, match="not inside ker d2"):
            generator_sets(d1, d2, 2)


class TestCanonicalKernel:
    def test_zero_map_gives_the_free_diagram(self):
        z = IntMatrix.zeros(1, 2)
        canon = canonical_kernel_presentation(z, z, 2)
        free = free_diagram(2, 2)
        D = canon.separation.diagram
        assert D.M1.gens == free.M1.gens and D.M1.relations == free.M1.relations
        assert D.M2.gens == free.M2.gens and D.M2.relations == free.M2.relations
        assert D.mbar_dim == free.mbar_dim
        assert D.p1 == free.p1 and D.p2 == free.p2
        assert not canon.mixed

    def test_running_example_components(self):
        d1, d2 = two_by_two(2)
        canon = canonical_kernel_presentation(d1, d2, 2)
        assert canon.separation.diagram.M1.normal_form() == (1, (2,))
        assert canon.separation.diagram.M2.normal_form() == (1, (2,))
        assert canon.separation.diagram.mbar_dim == 2
        expected = Lattice.from_generators(4, [(0, 2, 0, 0), (0, 0, 2, 0)])
        assert canon.separation.module_lattice == expected
        assert canon.separation.embedded_pullback_lattice() == expected
        assert not canon.mixed

    def test_identity_differential_gives_zero_diagram(self):
        eye = IntMatrix.identity(2)
        canon = canonical_kernel_presentation(eye, eye, 3)
        assert canon.separation.diagram.M1.normal_form() == (0, ())
        assert canon.separation.diagram.M2.normal_form() == (0, ())
        assert canon.separation.diagram.mbar_dim == 0

    def test_mixed_classes_repair_the_plain_generator_family(self):
        # reduced kernels meet beyond the reduced intersection here, so the
        # one-sided and diagonal generators alone span a proper sublattice
        d1 = rows([[1, -1]])
        d2 = rows([[1, 1]])
        canon = canonical_kernel_presentation(d1, d2, 2)
        assert len(canon.mixed) == 1
        plain = [v + v for v in canon.sets.v12]
        plain += [tuple(2 * x for x in v) + (0, 0) for v in canon.sets.v1]
        plain += [(0, 0) + tuple(2 * x for x in v) for v in canon.sets.v2]
        span = Lattice.from_generators(4, plain)
        assert span != canon.separation.module_lattice
        assert canon.separation.module_lattice.contains_lattice(span)

    def test_non_congruent_pairs_are_rejected(self):
        rng = random.Random(5)
        for trial in range(150):
            p = (2, 3, 5)[trial % 3]
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            d1, d2 = random_int_matrix(rng, r, c), random_int_matrix(rng, r, c)
            if all((x - y) % p == 0 for a, b in zip(d1.entries, d2.entries) for x, y in zip(a, b)):
                d2 = d2 + rows([[int(i == j == 0) for j in range(c)] for i in range(r)])
            with pytest.raises(ValueError, match="not congruent"):
                canonical_kernel_presentation(d1, d2, p)
        with pytest.raises(ValueError, match="share shapes"):
            canonical_kernel_presentation(rows([[1, 0]]), rows([[1], [0]]), 2)

    def test_separatedness_is_established(self):
        rng = random.Random(11)
        for p in (2, 3):
            d1, d2 = random_congruent_pair(rng, p, 2, 3)
            canon = canonical_kernel_presentation(d1, d2, p)
            assert is_separated(canon.separation.diagram).separated


class TestDivisibilityCheck:
    def test_image_outside_an_empty_kernel_basis_is_fatal(self):
        # v2 = (1,) has d1-image (2,): divisible by p, but the outgoing [1]
        # has no kernel to hold it
        one = rows([[1]])
        with pytest.raises(ArithmeticError, match="outside the kernel"):
            _divisibility_check(2, GeneratorSets([], [], []), (one, one), (rows([[2]]), rows([[0]])))

    def test_non_divisible_one_sided_coordinate_is_fatal(self):
        # the same image (2,) on the one-sided generator (2,) has coordinate 1
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        with pytest.raises(ArithmeticError, match="not divisible"):
            _divisibility_check(2, GeneratorSets([], [(2,)], []), C.pair(1), C.pair(0))

    def test_mirror_side_non_divisible_coordinate_is_fatal(self):
        # swapped sides: the d2-image (2,) of a side-1 generator on v2 = (2,)
        C = ChainComplexR(2, [(rows([[0]]), rows([[2]]))])
        with pytest.raises(ArithmeticError, match="not divisible"):
            _divisibility_check(2, GeneratorSets([], [], [(2,)]), C.pair(1), C.pair(0))


def test_divisibility_check_reuses_the_outgoing_kernels(monkeypatch):
    # the check reads every kernel it tests off the matrices of the two
    # pairs: once the canonical kernel of the outgoing pair is built and the
    # incoming pair's kernels are taken, it builds only the two divisible
    # lattices and evaluates no kernel basis
    C = fresh(ChainComplexR(3, random_complex_differentials(random.Random(4), 3, [2, 3, 2], bound=2)))
    lattices = []
    real_lattice = Lattice.from_generators
    monkeypatch.setattr(
        Lattice, "from_generators", staticmethod(lambda *a: lattices.append(a) or real_lattice(*a))
    )
    evaluations = count_kernel_evaluations(monkeypatch)
    for n in range(C.terms):
        outgoing, incoming = C.pair(n), C.pair(n - 1)
        canon = canonical_kernel_presentation(*outgoing, C.p)
        for d in incoming:
            kernel_basis(d)
        lattices.clear()
        evaluations.clear()
        _divisibility_check(C.p, canon.sets, outgoing, incoming)
        assert (len(lattices), evaluations) == (2, [])
        lattices.clear()
        rewrite_differential(incoming, canonical_kernel_presentation(*outgoing, C.p))
        parts = len(lattices)
        lattices.clear()
        homology_presentation(C, n)
        assert len(lattices) == parts + 2


def test_each_differential_has_its_kernels_taken_once(monkeypatch):
    # two kernel bases per differential, one per zero pair at either end
    # (both of its sides are one matrix), and one inner kernel per degree;
    # the complex is validated once, however many calls read it
    sizes = [2, 3, 3, 3, 2]
    base = ChainComplexR(3, random_complex_differentials(random.Random(7), 3, sizes, bound=2))
    validations = []
    real_validate = homology.validate_complex
    monkeypatch.setattr(
        homology, "validate_complex", lambda C: validations.append(C._report is None) or real_validate(C)
    )
    evaluations = count_kernel_evaluations(monkeypatch)
    C = fresh(base)
    for pres in homology.homology_presentations(C, range(C.terms)):
        reduce_homology(pres)
    assert len(evaluations) == 2 * len(sizes[1:]) + 2 + len(sizes) == 15
    assert validations == [True]
    evaluations.clear()
    validations.clear()
    C = fresh(base)
    for n in range(C.terms):
        homology_rdiagram(C, n)
    assert len(evaluations) == 15
    assert validations == [True] + [False] * (C.terms - 1)
    # the zero pairs at the ends are kept on the complex, so once every
    # degree has run, each further run takes only its inner kernel
    assert C.pair(-1) is C.pair(-1) and C.pair(C.terms - 1) is C.pair(C.terms - 1)
    for n in range(C.terms):
        evaluations.clear()
        homology_rdiagram(C, n)
        assert len(evaluations) == 1
    # a complex straight from the generator has the kernels of every
    # differential but the first taken already, by congruent_kernel_lattice
    evaluations.clear()
    homology.homology_presentations(base, range(base.terms))
    assert len(evaluations) == 15 - 2 * len(sizes[2:])


def test_the_five_term_complex_takes_its_pinned_eliminations(monkeypatch):
    # F_p eliminations and integer normal forms over every degree of the
    # complex above, on fresh matrices.  The separation check decides on
    # F_p subspaces with no rank elimination, and each lattice between
    # p Z^n and Z^n is read off the echelon form it was computed as
    base = ChainComplexR(3, random_complex_differentials(random.Random(7), 3, [2, 3, 3, 3, 2], bound=2))
    C = fresh(base)
    eliminations, normal_forms = [], []
    rref, hnf = fplinalg._rref, intlinalg._hnf_in_place
    monkeypatch.setattr(fplinalg, "_rref", lambda *a: eliminations.append(a) or rref(*a))
    monkeypatch.setattr(
        intlinalg, "_hnf_in_place", lambda *a, **kw: normal_forms.append(a) or hnf(*a, **kw)
    )
    for pres in homology.homology_presentations(C, range(C.terms)):
        reduce_homology(pres)
    assert (len(eliminations), len(normal_forms)) == (149, 142)


class TestRewriteDifferential:
    def test_zero_incoming_map_is_the_zero_morphism(self):
        d1, d2 = two_by_two(2)
        canon = canonical_kernel_presentation(d1, d2, 2)
        z = IntMatrix.zeros(2, 3)
        m = rewrite_differential((z, z), canon)
        assert m.f1.matrix == IntMatrix.zeros(2, 3)
        assert m.f2.matrix == IntMatrix.zeros(2, 3)
        assert m.fbar.is_zero()

    def test_p_multiple_image_gets_divisible_coordinates(self):
        # incoming pair ((0,4), (0,0)) is twice the p v1 generator (2 e_2, 0)
        d1, d2 = two_by_two(2)
        canon = canonical_kernel_presentation(d1, d2, 2)
        din1 = rows([[0], [4]])
        din2 = rows([[0], [0]])
        m = rewrite_differential((din1, din2), canon)
        col = m.f1.matrix.column(0)
        assert col[0] == 2
        assert col[1] % 2 == 0
        assert canon.separation.diagram.M1.elements_equal(col, (2, 0))
        assert canon.separation.diagram.M2.elements_equal(m.f2.matrix.column(0), (0, 0))

    def test_unit_coordinate_on_a_diagonal_generator(self):
        z = IntMatrix.zeros(0, 2)
        canon = canonical_kernel_presentation(z, z, 2)
        din = rows([[1], [0]])
        m = rewrite_differential((din, din), canon)
        assert m.f1.matrix.column(0) == (1, 0)
        assert m.f2.matrix.column(0) == (1, 0)

    def test_corrupted_side_2_coordinate_breaks_square_2(self, monkeypatch):
        # the bar component is read along side 1 only; the morphism's square-2
        # check is what catches a side-2 coordinate with the wrong bar image
        real = pullback.Separation.class_coordinates

        def corrupted(self, vectors, side):
            cols = real(self, vectors, side)
            return [(cols[0][0] + 1,) + cols[0][1:]] + cols[1:] if side == 2 else cols

        monkeypatch.setattr(pullback.Separation, "class_coordinates", corrupted)
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        with pytest.raises(ValueError, match="square 2 does not commute"):
            homology_presentation(C, 1)

    def test_image_outside_the_kernel_is_an_expression_failure(self):
        d1, d2 = two_by_two(2)
        canon = canonical_kernel_presentation(d1, d2, 2)
        din = rows([[1], [0]])
        with pytest.raises(ValueError, match="column 0"):
            rewrite_differential((din, din), canon)

    def test_one_transform_hnf_per_side(self, monkeypatch):
        # separate_presented factors generators | P M once per side and keeps
        # the factorisation, so rewriting a differential, whatever the source
        # rank, runs no normal form at all
        degrees = random_complex_differentials(random.Random(5), 3, [4, 5, 2], bound=2)
        C = ChainComplexR(3, degrees)
        factored = []
        factor = pullback.factor_modulo
        monkeypatch.setattr(
            pullback, "factor_modulo", lambda A, L: factored.append(A) or factor(A, L)
        )
        calls = []
        real = intlinalg._hnf_in_place
        monkeypatch.setattr(
            intlinalg,
            "_hnf_in_place",
            lambda cols, *a, **kw: calls.append([c[:] for c in cols]) or real(cols, *a, **kw),
        )
        canon = canonical_kernel_presentation(*C.pair(1), 3)
        G = canon.separation.gen_matrix
        assert factored == [G, G]
        # the normal forms that start from the generators' columns: the two
        # factorisations and the p-elementary check's preimage
        gens = [list(c) for c in G.columns()]
        on_gens = [cols for cols in calls if [c[: G.rows] for c in cols[: G.cols]] == gens]
        assert len(on_gens) == 3
        calls.clear()
        m = rewrite_differential(C.pair(0), canon)
        assert m.f1.matrix.cols == 4
        assert calls == []


class TestHomologyPresentation:
    def test_zero_complex_presents_the_free_module(self):
        C = ChainComplexR(2, [], ranks=[1])
        pres = homology_presentation(C, 0)
        assert pres.K.M1.gens == 0
        inv = underlying_invariants_of_presentation(pres)
        assert (inv.free_rank, inv.invariant_factors) == (2, ())

    def test_multiplication_by_the_ideal_generator(self):
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        pres = homology_presentation(C, 1)
        inv = underlying_invariants_of_presentation(pres)
        assert (inv.free_rank, inv.invariant_factors) == (1, ())

    def test_degree_with_no_incoming_term(self):
        d = (IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 0))
        C = ChainComplexR(3, [d], ranks=[0, 2])
        pres = homology_presentation(C, 1)
        assert pres.K.M1.gens == 0
        assert pres.S.M1.normal_form() == (2, ())

    def test_invalid_degree(self):
        C = ChainComplexR(2, [], ranks=[1])
        with pytest.raises(ValueError, match="degree"):
            homology_presentation(C, 1)

    def test_invalid_complex_is_rejected(self):
        C = ChainComplexR(2, [(rows([[2]]), rows([[1]]))])
        with pytest.raises(ValueError, match="invalid complex"):
            homology_presentation(C, 0)


class TestClosedFormComponents:
    def test_zero_complex_keeps_the_kernel_components(self):
        z = IntMatrix.zeros(1, 2)
        C = ChainComplexR(2, [(z, z)], ranks=[2, 1])
        cf = closed_form_components(homology_presentation(C, 0))
        canon = canonical_kernel_presentation(z, z, 2)
        assert cf.kdim == 0
        assert cf.s1.normal_form() == canon.separation.diagram.M1.normal_form()
        assert cf.s2.normal_form() == canon.separation.diagram.M2.normal_form()
        assert cf.sbar_dim == canon.separation.diagram.mbar_dim

    def test_running_example_values(self):
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        cf = closed_form_components(homology_presentation(C, 1))
        assert cf.kdim == 0
        assert cf.s1.normal_form() == (0, (2,))
        assert cf.s2.normal_form() == (1, ())
        assert cf.sbar_dim == 1

    def test_exact_complex_has_zero_components(self):
        eye = IntMatrix.identity(2)
        C = ChainComplexR(3, [(eye, eye)])
        for n in (0, 1):
            cf = closed_form_components(homology_presentation(C, n))
            assert cf.kdim == 0 and cf.sbar_dim == 0
            assert cf.s1.normal_form() == (0, ())
            assert cf.s2.normal_form() == (0, ())

    def test_rejects_a_source_that_is_not_free(self):
        C = ChainComplexR(2, [(rows([[2]]), rows([[2]]))])
        rd = homology_rdiagram(C, 1)
        assert rd.kdim == 1
        with pytest.raises(ValueError, match="free source"):
            closed_form_components(rdiagram_as_presentation(rd))


class TestReduceHomology:
    """The closed-form cross-check accepts exactly the isomorphic components."""

    @staticmethod
    def presentation():
        # the one-sided kernel defect example: S1 = S2 = Z, Sbar = F_2
        return homology_presentation(
            ChainComplexR(
                2,
                [
                    (rows([[0], [0]]), rows([[0], [2]])),
                    (rows([[0, 2]]), rows([[0, 0]])),
                ],
            ),
            1,
        )

    @staticmethod
    def widen_s1(monkeypatch, extra):
        """Make the closed form report S1 on one more generator with relations ``extra``."""
        real = homology.closed_form_components

        def patched(pres):
            cf = real(pres)
            s1 = ZModulePresentation(cf.s1.gens + 1, _direct_sum(cf.s1.relations, extra))
            return dataclasses.replace(cf, s1=s1)

        monkeypatch.setattr(homology, "closed_form_components", patched)

    def test_isomorphic_but_different_closed_form_passes(self, monkeypatch):
        self.widen_s1(monkeypatch, Lattice.full(1))
        rd = reduce_homology(self.presentation())
        assert rd.S.M1.normal_form() == (1, ())

    def test_non_isomorphic_closed_form_is_fatal(self, monkeypatch):
        self.widen_s1(monkeypatch, Lattice.zero(1))
        with pytest.raises(AssertionError, match="closed-form components disagree"):
            reduce_homology(self.presentation())


class TestHomologyRDiagram:
    def test_zero_complex_gives_the_free_rdiagram(self):
        C = ChainComplexR(2, [], ranks=[3])
        rd = homology_rdiagram(C, 0)
        assert rd.kdim == 0
        assert rd.S.M1.normal_form() == (3, ())
        assert rd.S.M2.normal_form() == (3, ())
        assert rd.S.mbar_dim == 3

    def test_running_example(self):
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        rd = homology_rdiagram(C, 1)
        assert rd.kdim == 0
        assert rd.S.M1.normal_form() == (0, (2,))
        assert rd.S.M2.normal_form() == (1, ())
        assert rd.S.mbar_dim == 1
        inv = underlying_invariants_of_rdiagram(rd)
        assert (inv.free_rank, inv.invariant_factors) == (1, ())

    def test_random_two_term_complex_over_three(self):
        rng = random.Random(33)
        degrees = random_complex_differentials(rng, 3, [3, 3], bound=2)
        C = ChainComplexR(3, degrees)
        assert validate_complex(C).ok
        for n in (0, 1):
            rd = homology_rdiagram(C, n)
            assert validate_rdiagram(rd).ok
            assert invariants_equal(
                underlying_invariants_of_rdiagram(rd),
                integer_homology_invariants(C, n),
            )

    def test_one_sided_kernel_defect_regression(self):
        # the incoming pair ((0,0), (0,2)) has a nontrivial class on the
        # second component only; a formula reading T_i off the one-sided
        # generator families would report S1 = Z + Z/2 here, but the honest
        # kernel gives S1 = Z, matching the underlying group Z^2
        C = ChainComplexR(
            2,
            [
                (rows([[0], [0]]), rows([[0], [2]])),
                (rows([[0, 2]]), rows([[0, 0]])),
            ],
        )
        assert validate_complex(C).ok
        rd = homology_rdiagram(C, 1)
        assert rd.kdim == 0
        assert rd.S.M1.normal_form() == (1, ())
        assert rd.S.M2.normal_form() == (1, ())
        assert rd.S.mbar_dim == 1
        inv = underlying_invariants_of_rdiagram(rd)
        assert (inv.free_rank, inv.invariant_factors) == (2, ())

    def test_coefficient_growth_stays_fast(self):
        # [8, 16, 8] at p = 2 took about a minute when each HNF row was
        # folded into one column by successive extended gcds; with
        # smallest-entry Euclid rows it takes a fraction of a second.
        def on_alarm(signum, frame):
            raise TimeoutError("[8, 16, 8] at p = 2 ran past 10 s")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            degrees = random_complex_differentials(random.Random(2), 2, [8, 16, 8], bound=2)
            C = ChainComplexR(2, degrees)
            rd = homology_rdiagram(C, 1)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert invariants_equal(
            underlying_invariants_of_rdiagram(rd), integer_homology_invariants(C, 1)
        )

    def test_size_ladder_step_stays_fast(self):
        # [16, 32, 16] at p = 3 solves each side of the rewritten differential
        # against one factorisation; it takes well under a second.
        def on_alarm(signum, frame):
            raise TimeoutError("[16, 32, 16] at p = 3 ran past 10 s")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            degrees = random_complex_differentials(random.Random(2), 3, [16, 32, 16], bound=2)
            C = ChainComplexR(3, degrees)
            rd = homology_rdiagram(C, 1)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert invariants_equal(
            underlying_invariants_of_rdiagram(rd), integer_homology_invariants(C, 1)
        )


@given(p=ps, seed=seeds)
@settings(max_examples=80, deadline=None)
def test_kernel_split_is_an_exact_direct_sum(p, seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    f = random_int_matrix(rng, rng.randint(1, 3), m, bound=3)
    g = random_int_matrix(rng, rng.randint(1, 3), m, bound=3)
    K, U = split_along(f, g)
    ksp = Lattice.from_generators(m, K)
    usp = Lattice.from_generators(m, U)
    assert ksp.sum(usp) == kernel_basis(f)
    assert lattice_intersection(ksp, usp).rank == 0
    assert ksp == lattice_intersection(kernel_basis(f), kernel_basis(g))


@given(p=ps, seed=seeds)
@settings(max_examples=80, deadline=None)
def test_congruent_kernel_lattice_is_the_intersection_with_the_congruence(p, seed):
    # the F_p kernel route against the intersection it replaced, on a
    # congruent pair and on two unrelated matrices of one shape
    rng = random.Random(seed)
    m = rng.randint(0, 4)
    height = rng.randint(0, 3)
    diagonal = [tuple(int(i == j) for i in range(m)) * 2 for j in range(m)]
    scaled_units = [tuple(p * int(i == j) for i in range(2 * m)) for j in range(2 * m)]
    congruent = Lattice.from_generators(2 * m, diagonal + scaled_units)
    unrelated = tuple(random_int_matrix(rng, height, m, bound=3) for _ in "12")
    for d1, d2 in (random_congruent_pair(rng, p, height, m), unrelated):
        reference = lattice_intersection(_direct_sum(kernel_basis(d1), kernel_basis(d2)), congruent)
        assert congruent_kernel_lattice(p, d1, d2) == reference


@given(p=ps, seed=seeds)
@settings(max_examples=80, deadline=None)
def test_canonical_presentation_embeds_onto_the_kernel(p, seed):
    rng = random.Random(seed)
    d1, d2 = random_congruent_pair(rng, p, rng.randint(1, 3), rng.randint(1, 4))
    canon = canonical_kernel_presentation(d1, d2, p)
    assert canon.separation.embedded_pullback_lattice() == congruent_kernel_lattice(p, d1, d2)
    assert is_separated(canon.separation.diagram).separated


@given(p=ps, seed=seeds)
@settings(max_examples=80, deadline=None)
def test_generator_sets_match_the_two_split_construction(p, seed):
    # one split and a coordinate solve give the same families as splitting
    # each kernel along the other matrix, on random congruent pairs and on
    # the differentials of random complexes
    rng = random.Random(seed)
    pairs = [random_congruent_pair(rng, p, rng.randint(0, 3), rng.randint(0, 4), bound=3)]
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
    pairs += random_complex_differentials(rng, p, sizes, bound=2)
    for d1, d2 in pairs:
        gs = generator_sets(d1, d2, p)
        assert (gs.v12, gs.v1, gs.v2) == two_split_sets(d1, d2)


@given(p=ps, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_homology_routes_agree(p, seed):
    rng = random.Random(seed)
    sizes = rng.choice([[2, 2], [2, 3, 2], [3, 2, 2]])
    C = ChainComplexR(p, random_complex_differentials(rng, p, sizes, bound=2))
    assert validate_complex(C).ok
    for n in range(C.terms):
        rd = homology_rdiagram(C, n)
        cf = closed_form_components(homology_presentation(C, n))
        assert validate_rdiagram(rd).ok
        assert rd.kdim == cf.kdim
        assert rd.S.mbar_dim == cf.sbar_dim
        assert rd.S.M1.normal_form() == cf.s1.normal_form()
        assert rd.S.M2.normal_form() == cf.s2.normal_form()
        byint = integer_homology_invariants(C, n)
        assert invariants_equal(byint, underlying_invariants_of_rdiagram(rd))
        assert invariants_equal(
            byint,
            underlying_invariants_of_presentation(homology_presentation(C, n)),
        )


@given(p=ps, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_presentation_cokernel_is_the_homology_group(p, seed):
    rng = random.Random(seed)
    C = ChainComplexR(p, random_complex_differentials(rng, p, [2, 3], bound=2))
    for n in (0, 1):
        pres = homology_presentation(C, n)
        rank, factors = induced_pullback_map(pres.morphism).cokernel().normal_form()
        byint = integer_homology_invariants(C, n)
        assert (rank, tuple(factors)) == (
            byint.free_rank,
            byint.invariant_factors,
        )


def test_the_readme_library_tour_runs_and_gives_the_values_it_states():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    tour = readme.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    # each commented expression line states its value before any two spaces
    stated = {}
    for line in code.splitlines():
        expression, _, comment = line.partition("#")
        if expression.strip():
            stated[expression.strip()] = comment.strip().split("  ")[0]
    expected = {
        "rd.kdim": 0,
        "rd.S.M1.normal_form()": (0, (2,)),
        "rd.S.M2.normal_form()": (1, ()),
        "rd.S.mbar_dim": 1,
        "underlying_invariants_of_rdiagram(rd)": GroupInvariants(1, []),
    }
    assert {e: stated[e] for e in expected} == {e: repr(v) for e, v in expected.items()}
    for expression, value in expected.items():
        assert eval(expression, namespace) == value
