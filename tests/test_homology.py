"""Homology pipeline: frozen worked examples plus cross-route properties."""

import dataclasses
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdiagram.homology as homology
import rdiagram.intlinalg as intlinalg
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
    integer_homology_invariants,
    invariants_equal,
    underlying_invariants_of_presentation,
    underlying_invariants_of_rdiagram,
)
from rdiagram.pullback import induced_pullback_map, is_separated
from rdiagram.randomgen import (
    random_complex_differentials,
    random_congruent_pair,
    random_int_matrix,
)
from rdiagram.reduction import free_diagram, rdiagram_as_presentation, validate_rdiagram

rows = IntMatrix.from_rows

ps = st.sampled_from([2, 3, 5])
seeds = st.integers(0, 10**9)


def two_by_two(p):
    """The running example: d1 = [2 0], d2 = [0 2] over p = 2."""
    assert p == 2
    return rows([[2, 0]]), rows([[0, 2]])


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


class TestKernelSplit:
    def test_transverse_kernels(self):
        f = rows([[1, 0]])
        K, U = kernel_split(f, rows([[0, 1]]), kernel_basis(f))
        assert K == []
        assert U == [(0, 1)]

    def test_zero_against_projection(self):
        f = rows([[0, 0]])
        K, U = kernel_split(f, rows([[1, 0]]), kernel_basis(f))
        assert K == [(0, 1)]
        assert U == [(1, 0)]

    def test_equal_maps_put_everything_in_K(self):
        f = rows([[2, 4]])
        K, U = kernel_split(f, f, kernel_basis(f))
        assert U == []
        assert Lattice.from_generators(2, K) == kernel_basis(f)

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="domain"):
            kernel_split(rows([[1, 0]]), rows([[1]]), Lattice.full(2))


class TestGeneratorSets:
    def test_zero_maps_make_everything_diagonal(self):
        z = rows([[0, 0]])
        gs = generator_sets(z, z, 3, (kernel_basis(z), kernel_basis(z)))
        assert gs.v12 == ((1, 0), (0, 1))
        assert gs.v1 == () and gs.v2 == () and gs.vbar == () and gs.vbarc == ()

    def test_running_example(self):
        d1, d2 = two_by_two(2)
        gs = generator_sets(d1, d2, 2, (kernel_basis(d1), kernel_basis(d2)))
        assert gs.v12 == ()
        assert gs.v1 == ((0, 1),)
        assert gs.v2 == ((1, 0),)
        assert gs.vbar == () and gs.vbarc == ()

    def test_identity_differential_kills_all_sets(self):
        eye = IntMatrix.identity(2)
        gs = generator_sets(eye, eye, 5, (kernel_basis(eye), kernel_basis(eye)))
        assert gs.v12 == () and gs.v1 == () and gs.v2 == ()
        assert gs.vbar == ()
        assert len(gs.vbarc) == 2


class TestCanonicalKernel:
    def test_zero_map_gives_the_free_diagram(self):
        z = IntMatrix.zeros(1, 2)
        canon = canonical_kernel_presentation(z, z, 2)
        free = free_diagram(2, 2)
        D = canon.diagram
        assert D.M1.gens == free.M1.gens and D.M1.relations == free.M1.relations
        assert D.M2.gens == free.M2.gens and D.M2.relations == free.M2.relations
        assert D.mbar_dim == free.mbar_dim
        assert D.p1 == free.p1 and D.p2 == free.p2
        assert canon.plain_form

    def test_running_example_components(self):
        d1, d2 = two_by_two(2)
        canon = canonical_kernel_presentation(d1, d2, 2)
        assert canon.diagram.M1.normal_form() == (1, (2,))
        assert canon.diagram.M2.normal_form() == (1, (2,))
        assert canon.diagram.mbar_dim == 2
        expected = Lattice.from_generators(4, [(0, 2, 0, 0), (0, 0, 2, 0)])
        assert canon.separation.module_lattice == expected
        assert canon.separation.embedded_pullback_lattice() == expected
        assert canon.plain_form

    def test_identity_differential_gives_zero_diagram(self):
        eye = IntMatrix.identity(2)
        canon = canonical_kernel_presentation(eye, eye, 3)
        assert canon.diagram.M1.normal_form() == (0, ())
        assert canon.diagram.M2.normal_form() == (0, ())
        assert canon.diagram.mbar_dim == 0

    def test_mixed_classes_repair_the_plain_generator_family(self):
        # reduced kernels meet beyond the reduced intersection here, so the
        # one-sided and diagonal generators alone span a proper sublattice
        d1 = rows([[1, -1]])
        d2 = rows([[1, 1]])
        canon = canonical_kernel_presentation(d1, d2, 2)
        assert not canon.plain_form
        assert len(canon.mixed) == 1
        plain = [v + v for v in canon.sets.v12]
        plain += [tuple(2 * x for x in v) + (0, 0) for v in canon.sets.v1]
        plain += [(0, 0) + tuple(2 * x for x in v) for v in canon.sets.v2]
        span = Lattice.from_generators(4, plain)
        assert span != canon.separation.module_lattice
        assert canon.separation.module_lattice.contains_lattice(span)

    def test_separatedness_is_established(self):
        rng = random.Random(11)
        for p in (2, 3):
            d1, d2 = random_congruent_pair(rng, p, 2, 3)
            canon = canonical_kernel_presentation(d1, d2, p)
            assert is_separated(canon.diagram).separated


def check_divisibility(C, n, gs):
    """The divisibility check with outgoing kernels span(v12 + v1), span(v12 + v2)."""
    spans = tuple(Lattice.from_generators(C.rank(n), gs.v12 + v) for v in (gs.v1, gs.v2))
    _divisibility_check(C, n, gs, spans, tuple(map(kernel_basis, C.pair(n - 1))))


class TestDivisibilityCheck:
    def test_image_outside_an_empty_kernel_basis_is_fatal(self):
        # v2 = (1,) has d1-image (2,): divisible by p, but no kernel generator spans it
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        with pytest.raises(ArithmeticError, match="outside the kernel"):
            check_divisibility(C, 1, GeneratorSets([], [], [], [], []))

    def test_non_divisible_one_sided_coordinate_is_fatal(self):
        # the same image (2,) on the one-sided generator (2,) has coordinate 1
        C = ChainComplexR(2, [(rows([[2]]), rows([[0]]))])
        with pytest.raises(ArithmeticError, match="not divisible"):
            check_divisibility(C, 1, GeneratorSets([], [(2,)], [], [], []))

    def test_mirror_side_non_divisible_coordinate_is_fatal(self):
        # swapped sides: the d2-image (2,) of a side-1 generator on v2 = (2,)
        C = ChainComplexR(2, [(rows([[0]]), rows([[2]]))])
        with pytest.raises(ArithmeticError, match="not divisible"):
            check_divisibility(C, 1, GeneratorSets([], [], [(2,)], [], []))


def test_divisibility_check_reuses_the_outgoing_kernels(monkeypatch):
    # the check reads every kernel it tests off the canonical kernels it is
    # handed: it builds only the two divisible lattices and takes no kernel
    # basis, and a pass over all degrees hands degree n-1's kernels to
    # degree n, two kernel bases fewer per shared differential
    C = ChainComplexR(3, random_complex_differentials(random.Random(4), 3, [2, 3, 2], bound=2))
    lattices, kernels = [], []
    real_lattice, real_kernel = Lattice.from_generators, homology.kernel_basis
    monkeypatch.setattr(
        Lattice, "from_generators", staticmethod(lambda *a: lattices.append(a) or real_lattice(*a))
    )
    monkeypatch.setattr(homology, "kernel_basis", lambda M: kernels.append(M) or real_kernel(M))
    one_by_one = 0
    for n in range(C.terms):
        canon = canonical_kernel_presentation(*C.pair(n), C.p)
        assert canon.kernels == tuple(map(real_kernel, C.pair(n)))
        incoming = tuple(map(real_kernel, C.pair(n - 1)))
        lattices.clear()
        kernels.clear()
        _divisibility_check(C, n, canon.sets, canon.kernels, incoming)
        assert (len(lattices), len(kernels)) == (2, 0)
        lattices.clear()
        validate_complex(C)
        rewrite_differential(C.pair(n - 1), canonical_kernel_presentation(*C.pair(n), C.p))
        parts = len(lattices)
        lattices.clear()
        kernels.clear()
        homology_presentation(C, n)
        assert len(lattices) == parts + 2
        one_by_one += len(kernels)
    kernels.clear()
    homology.homology_presentations(C, range(C.terms))
    assert len(kernels) == one_by_one - 2 * (C.terms - 1)


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
        assert canon.diagram.M1.elements_equal(col, (2, 0))
        assert canon.diagram.M2.elements_equal(m.f2.matrix.column(0), (0, 0))

    def test_unit_coordinate_on_a_diagonal_generator(self):
        z = IntMatrix.zeros(0, 2)
        canon = canonical_kernel_presentation(z, z, 2)
        din = rows([[1], [0]])
        m = rewrite_differential((din, din), canon)
        assert m.f1.matrix.column(0) == (1, 0)
        assert m.f2.matrix.column(0) == (1, 0)

    def test_image_outside_the_kernel_is_an_expression_failure(self):
        d1, d2 = two_by_two(2)
        canon = canonical_kernel_presentation(d1, d2, 2)
        din = rows([[1], [0]])
        with pytest.raises(ValueError, match="column 0"):
            rewrite_differential((din, din), canon)

    def test_one_transform_hnf_per_side(self, monkeypatch):
        # all columns of one side are solved against one factorisation of
        # generators | P M, so the count does not grow with the source rank
        degrees = random_complex_differentials(random.Random(5), 3, [4, 5, 2], bound=2)
        C = ChainComplexR(3, degrees)
        canon = canonical_kernel_presentation(*C.pair(1), 3)
        calls = []
        real = intlinalg._hnf_in_place
        monkeypatch.setattr(intlinalg, "_hnf_in_place", lambda *a: calls.append(a) or real(*a))
        m = rewrite_differential(C.pair(0), canon)
        assert m.f1.matrix.cols == 4
        # solve_many factors each side's matrix once, stacked over the identity
        assert len(calls) == 2


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
        assert cf.s1.normal_form() == canon.diagram.M1.normal_form()
        assert cf.s2.normal_form() == canon.diagram.M2.normal_form()
        assert cf.sbar_dim == canon.diagram.mbar_dim

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
            s1 = ZModulePresentation(cf.s1.gens + 1, cf.s1.relations.direct_sum(extra))
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
    K, U = kernel_split(f, g, kernel_basis(f))
    ksp = Lattice.from_generators(m, K)
    usp = Lattice.from_generators(m, U)
    assert ksp.sum(usp) == kernel_basis(f)
    assert lattice_intersection(ksp, usp).rank == 0
    assert ksp == lattice_intersection(kernel_basis(f), kernel_basis(g))


@given(p=ps, seed=seeds)
@settings(max_examples=80, deadline=None)
def test_canonical_presentation_embeds_onto_the_kernel(p, seed):
    rng = random.Random(seed)
    d1, d2 = random_congruent_pair(rng, p, rng.randint(1, 3), rng.randint(1, 4))
    canon = canonical_kernel_presentation(d1, d2, p)
    kernels = (kernel_basis(d1), kernel_basis(d2))
    assert canon.separation.embedded_pullback_lattice() == congruent_kernel_lattice(
        p, d1, d2, kernels
    )
    assert is_separated(canon.diagram).separated


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
