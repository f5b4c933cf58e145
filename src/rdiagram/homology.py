"""Homology of complexes of free modules over a p-pullback ring.

A complex is stored as parallel integer differentials (d1, d2) that agree
mod p; the bar differential is their common reduction.  For a degree n
the pipeline builds a canonical separated diagram Q for ker d, rewrites
the incoming differential in Q's generators to obtain a separated
presentation of H^n, built once per degree, and reduces that to an
R-diagram.  A closed-form evaluation of the reduced components from the
same presentation, without diagram quotients, checks the reduction; it
shares the memoised ``kernel_lattice``, Lbar, ``lift_span`` and
``quotient_by`` with ``reduce_combined``, so it is not independent of it.
The requested degrees of a complex are built in one validated pass.

The canonical presentation here is strictly more general than building
Q from the five generator sets alone: the span of those generators can
be a proper submodule of ker d (mixed kernel classes appear whenever the
reductions of ker d1 and ker d2 intersect beyond the reduction of their
integer intersection).  The extra generators repair this, and the
embedding of the resulting pullback is checked against the brute-force
kernel lattice on every construction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

from .intlinalg import (
    IntMatrix,
    Lattice,
    _snf_in_place,
    kernel_basis,
    lattice_intersection,
)
from .fplinalg import (
    FpMatrix,
    FpSubspace,
    lift_span,
    quotient_projection,
    relative_complement,
    validate_prime,
)
from .presentations import ModuleMap, ZModulePresentation
from .pullback import DiagramMorphism, PullbackDiagram, Separation, separate_presented
from .reduction import RDiagram, SeparatedPresentation, free_diagram, reduce_combined

__all__ = [
    "ChainComplexR",
    "ComplexReport",
    "GeneratorSets",
    "CanonicalKernel",
    "ClosedFormComponents",
    "congruent_kernel_lattice",
    "validate_complex",
    "kernel_split",
    "generator_sets",
    "canonical_kernel_presentation",
    "rewrite_differential",
    "homology_presentation",
    "homology_presentations",
    "closed_form_components",
    "homology_rdiagram",
    "reduce_homology",
]


def congruent_kernel_lattice(
    p: int,
    d1: IntMatrix,
    d2: IntMatrix,
    kernels: tuple[Lattice, Lattice],
) -> Lattice:
    """The lattice {(u, v) : d1 u = 0, d2 v = 0, u = v mod p}.

    This is the brute-force model of ker d inside Z^m + Z^m, used as the
    reference the canonical presentation is checked against.  ``kernels``
    are ``kernel_basis(d1)`` and ``kernel_basis(d2)``.
    """
    if d1.cols != d2.cols or d1.rows != d2.rows:
        raise ValueError("the pair must share shapes")
    m = d1.cols
    ker1, ker2 = kernels
    diagonal = [tuple(int(i == j) for i in range(m)) * 2 for j in range(m)]
    return lattice_intersection(ker1.direct_sum(ker2), lift_span(p, 2 * m, diagonal))


@dataclass(frozen=True, slots=True, eq=False)
class ChainComplexR:
    """A complex of free modules, one (d1, d2) pair per differential.

    ``degrees[k]`` is the differential out of term k; shapes must chain
    (columns of one equal rows of the previous).  ``ranks`` may be given
    explicitly for complexes with no differentials at all.  Congruence
    mod p and vanishing compositions are semantic conditions reported by
    ``validate_complex``, not enforced here.
    """

    p: int
    degrees: Sequence[tuple[IntMatrix, IntMatrix]]
    ranks: Sequence[int] | None = None

    def __post_init__(self):
        validate_prime(self.p)
        degrees = tuple((d1, d2) for d1, d2 in self.degrees)
        for d1, d2 in degrees:
            if (d1.rows, d1.cols) != (d2.rows, d2.cols):
                raise ValueError("paired differentials must share shapes")
        for (a1, _), (b1, _) in zip(degrees, degrees[1:]):
            if b1.cols != a1.rows:
                raise ValueError("consecutive differentials do not chain")
        expected = tuple(d.cols for d, _ in degrees) + (degrees[-1][0].rows,) if degrees else None
        ranks = expected if self.ranks is None else tuple(int(r) for r in self.ranks)
        if ranks is None:
            raise ValueError("ranks are required when there are no differentials")
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be nonnegative")
        if expected is not None and ranks != expected:
            raise ValueError("explicit ranks disagree with differential shapes")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "ranks", ranks)

    @property
    def terms(self) -> int:
        return len(self.ranks)

    def rank(self, k: int) -> int:
        return self.ranks[k]

    def pair(self, k: int) -> tuple[IntMatrix, IntMatrix]:
        """The differential out of term k, zero outside the complex."""
        if 0 <= k < len(self.degrees):
            return self.degrees[k]
        if k == -1:
            z = IntMatrix.zeros(self.rank(0), 0)
            return z, z
        if k == self.terms - 1:
            z = IntMatrix.zeros(0, self.rank(k))
            return z, z
        raise ValueError(f"no differential at position {k}")


@dataclass(frozen=True, slots=True, eq=False)
class ComplexReport:
    """Located congruence/composition failures; empty means valid."""

    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        if self.ok:
            return "ComplexReport(valid)"
        return f"ComplexReport({list(self.failures)!r})"


def validate_complex(C: ChainComplexR) -> ComplexReport:
    """Check the mod-p congruence and d after d = 0, per degree and entry."""
    failures = []
    for k, (d1, d2) in enumerate(C.degrees):
        for i in range(d1.rows):
            for j in range(d1.cols):
                if (d1.entries[i][j] - d2.entries[i][j]) % C.p:
                    failures.append(("congruence", k, (i, j)))
    for k in range(len(C.degrees) - 1):
        for label, pick in (("composition-d1", 0), ("composition-d2", 1)):
            comp = C.degrees[k + 1][pick] @ C.degrees[k][pick]
            for i in range(comp.rows):
                for j in range(comp.cols):
                    if comp.entries[i][j]:
                        failures.append((label, k, (i, j)))
    return ComplexReport(tuple(failures))


def kernel_split(f: IntMatrix, g: IntMatrix, ker_f: Lattice) -> tuple[list, list]:
    """Split ker f = K + U with K = ker f ∩ ker g, both parts free.

    The coordinates of K inside ker f form a saturated sublattice, so a
    Smith transform of its basis yields a unimodular change of basis of
    the coordinate space whose leading columns span K and whose trailing
    columns span a genuine integral complement: the columns of ``U^-1``
    for ``D = U @ M @ V``, which the Smith kernel carries along.  Both the
    sum equality and the zero intersection are verified before returning;
    given the sum, the intersection is zero exactly when the ranks add up,
    as ranks of subgroups of Z^n add like dimensions over Q.  ``ker_f`` is
    ``kernel_basis(f)``.
    """
    if f.cols != g.cols:
        raise ValueError("the two maps must share their domain")
    r = ker_f.rank
    Bmat = ker_f.basis_matrix()
    inner = kernel_basis(g @ Bmat)
    s = inner.rank
    uinv = [[int(i == j) for j in range(r)] for i in range(r)]
    _snf_in_place([list(row) for row in inner.basis_matrix().entries], s, uinv=uinv)
    cols = list(zip(*uinv))
    K = [tuple(Bmat.mul_vec(c)) for c in cols[:s]]
    Ub = [tuple(Bmat.mul_vec(c)) for c in cols[s:]]
    ambient = f.cols
    ksp = Lattice.from_generators(ambient, K)
    usp = Lattice.from_generators(ambient, Ub)
    if ksp.sum(usp) != ker_f or ksp.rank + usp.rank != ker_f.rank:
        raise AssertionError("kernel splitting failed to be a direct sum")
    return K, Ub


@dataclass(frozen=True, slots=True, eq=False)
class GeneratorSets:
    """The five generator families attached to a congruent pair.

    ``v12`` spans ker d1 ∩ ker d2; ``v1``/``v2`` complete it to bases of
    the respective kernels; ``vbar`` completes the reductions of both
    kernels to a basis of ker dbar; ``vbarc`` completes ker dbar to the
    whole mod-p space.
    """

    v12: tuple[tuple[int, ...], ...]
    v1: tuple[tuple[int, ...], ...]
    v2: tuple[tuple[int, ...], ...]
    vbar: tuple[tuple[int, ...], ...]
    vbarc: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(map(tuple, getattr(self, f.name))))


def generator_sets(
    d1: IntMatrix,
    d2: IntMatrix,
    p: int,
    kernels: tuple[Lattice, Lattice],
) -> GeneratorSets:
    """Compute all five generator families for a congruent pair.

    ``kernels`` are ``kernel_basis(d1)`` and ``kernel_basis(d2)``.
    """
    p = validate_prime(p)
    m = d1.cols
    ker1, ker2 = kernels
    v12, v1 = kernel_split(d1, d2, ker1)
    v12b, v2 = kernel_split(d2, d1, ker2)
    if Lattice.from_generators(m, v12) != Lattice.from_generators(m, v12b):
        raise AssertionError("the two kernel splits disagree on the intersection")
    kerbar = FpMatrix.from_int(d1, p).kernel()
    reduced = FpSubspace.from_vectors(p, m, list(v12) + list(v1) + list(v2))
    vbar = relative_complement(reduced, kerbar)
    vbarc = list(kerbar.complement().basis)
    return GeneratorSets(v12, v1, v2, vbar, vbarc)


@dataclass(frozen=True, slots=True, eq=False)
class CanonicalKernel:
    """Separated diagram of ker d together with its construction data.

    ``plain_form`` records whether the plain five-set generators already
    span the kernel (no mixed classes were needed); the embedded pullback
    equals the brute-force kernel lattice, ``separation.module_lattice``,
    either way.  ``kernels`` are ``kernel_basis(d1)`` and
    ``kernel_basis(d2)``.
    """

    separation: Separation
    sets: GeneratorSets
    mixed: tuple
    kernels: tuple[Lattice, Lattice]

    def __post_init__(self):
        object.__setattr__(self, "mixed", tuple(self.mixed))

    @property
    def diagram(self) -> PullbackDiagram:
        return self.separation.diagram

    @property
    def plain_form(self) -> bool:
        return not self.mixed


def canonical_kernel_presentation(d1: IntMatrix, d2: IntMatrix, p: int) -> CanonicalKernel:
    """Separated presentation of {(x, y) : d1 x = 0, d2 y = 0, x = y mod p}.

    Generators, in order: diagonal classes of the kernel intersection,
    mixed classes (one per dimension by which the reduced kernels meet
    beyond the reduced intersection), then p-scaled one-sided classes.
    The pullback of the resulting diagram, embedded back into Z^m + Z^m,
    is asserted to equal the kernel lattice exactly.  The kernels of d1 and
    d2 are computed once here, for the generator sets and the kernel lattice.
    """
    p = validate_prime(p)
    kernels = (kernel_basis(d1), kernel_basis(d2))
    gs = generator_sets(d1, d2, p, kernels)
    m = d1.cols
    v1full = list(gs.v12) + list(gs.v1)
    v2full = list(gs.v12) + list(gs.v2)
    q1span = FpSubspace.from_vectors(p, m, v1full)
    q2span = FpSubspace.from_vectors(p, m, v2full)
    meet = q1span.intersect(q2span)
    diag_span = FpSubspace.from_vectors(p, m, list(gs.v12))
    mixed = []
    if meet != diag_span:
        B1 = IntMatrix.from_cols(v1full, rows=m)
        B2 = IntMatrix.from_cols(v2full, rows=m)
        zs = relative_complement(diag_span, meet)
        sols1 = FpMatrix.from_int(B1, p).solve_many(zs)
        sols2 = FpMatrix.from_int(B2, p).solve_many(zs)
        for c1, c2 in zip(sols1, sols2):
            if c1 is None or c2 is None:  # pragma: no cover - meet is in both spans
                raise AssertionError("mixed class has no preimage in a kernel")
            mixed.append((tuple(B1.mul_vec(c1)), tuple(B2.mul_vec(c2))))
    gens = (
        [tuple(v) + tuple(v) for v in gs.v12]
        + [u + w for u, w in mixed]
        + [tuple(p * x for x in v) + (0,) * m for v in gs.v1]
        + [(0,) * m + tuple(p * x for x in v) for v in gs.v2]
    )
    lat = congruent_kernel_lattice(p, d1, d2, kernels)
    sep = separate_presented(p, m, m, lat, Lattice.zero(2 * m), generators=gens)
    if sep.embedded_pullback_lattice() != lat:
        raise AssertionError("embedded pullback differs from the kernel lattice")
    return CanonicalKernel(sep, gs, mixed, kernels)


def rewrite_differential(
    d_prev: tuple[IntMatrix, IntMatrix], canon: CanonicalKernel
) -> DiagramMorphism:
    """Express an incoming differential in the kernel diagram's generators.

    Each standard generator e_j of the free source is sent to the class
    of the pair (d1 e_j, d2 e_j).  Coordinates are found by presented-
    module membership solving, all columns of one side against one
    factorisation; failure to solve means the image is not in the kernel
    (an invalid complex) and raises with the offending column.  The bar
    component is computed along both structure-map routes, which must
    agree.
    """
    d1p, d2p = d_prev
    sep = canon.separation
    p = sep.p  # checked when the separation was built
    D = sep.diagram
    K = free_diagram(p, d1p.cols)
    pairs = [a + b for a, b in zip(d1p.columns(), d2p.columns())]
    try:
        cols1 = sep.class_coordinates(pairs, side=1)
        cols2 = sep.class_coordinates(pairs, side=2)
    except ValueError as exc:
        raise ValueError(
            f"the differential cannot be expressed in the kernel presentation: {exc}"
        ) from exc
    m1 = IntMatrix.from_cols(cols1, rows=D.M1.gens)
    m2 = IntMatrix.from_cols(cols2, rows=D.M2.gens)
    fbar = D.p1 @ FpMatrix.from_int(m1, p)
    other = D.p2 @ FpMatrix.from_int(m2, p)
    if fbar != other:
        raise AssertionError("the two routes to the bar component disagree")
    f1 = ModuleMap(K.M1, D.M1, m1)
    f2 = ModuleMap(K.M2, D.M2, m2)
    return DiagramMorphism(K, D, f1, f2, fbar)


def homology_presentations(C: ChainComplexR, degrees: Sequence[int]) -> list[SeparatedPresentation]:
    """Separated presentations of H^n, free source of rank C^{n-1} onto ker d, per degree.

    The one place degrees are built: the complex is validated once, each
    degree's canonical kernel and divisibility check run once, and degree
    n reads its incoming pair's kernel bases off degree n-1's canonical
    kernel when both are built in this pass.
    """
    for n in degrees:
        if not 0 <= n < C.terms:
            raise ValueError(f"degree {n} outside the complex (0..{C.terms - 1})")
    report = validate_complex(C)
    if not report.ok:
        raise ValueError(f"invalid complex: {report}")
    kernels = {}  # degree -> kernel_basis of each matrix of its outgoing pair
    presentations = []
    for n in degrees:
        canon = canonical_kernel_presentation(*C.pair(n), C.p)
        kernels[n] = canon.kernels
        incoming = kernels.get(n - 1) or tuple(map(kernel_basis, C.pair(n - 1)))
        _divisibility_check(C, n, canon.sets, canon.kernels, incoming)
        presentations.append(SeparatedPresentation(rewrite_differential(C.pair(n - 1), canon)))
    return presentations


def homology_presentation(C: ChainComplexR, n: int) -> SeparatedPresentation:
    """Separated presentation of H^n: free source of rank C^{n-1} onto ker d."""
    return homology_presentations(C, [n])[0]


@dataclass(frozen=True, slots=True, eq=False)
class ClosedFormComponents:
    """Reduced components evaluated directly, bypassing diagram quotients."""

    p: int
    kdim: int
    sbar_dim: int
    s1: ZModulePresentation
    s2: ZModulePresentation
    q1: IntMatrix
    q2: IntMatrix


def closed_form_components(pres: SeparatedPresentation) -> ClosedFormComponents:
    """Evaluate the reduced components of a free-source presentation in one pass.

    ``pres`` is the one built by ``homology_presentation`` and reduced by
    ``reduce_combined``.  The components are re-derived without
    ``_apply_quotient``, but not independently: both sides use the
    memoised ``kernel_lattice`` of f_i, the same Lbar, ``lift_span`` and
    ``quotient_by``.

    With T_i the kernel of the rewritten component f_i and U a complement
    of ker fbar, the sub-diagram quotiented away in the general reduction
    is (q1^{-1}(U + Tbar_2) + T_1, U + Tbar_1 + Tbar_2, q2^{-1}(U + Tbar_1)
    + T_2); here the source structure maps are identities, so everything
    is evaluated directly on the kernel diagram's presentations: each S_i
    is Q_i modulo f_i of its sub-diagram component, Sbar is Qbar modulo
    the image of fbar, and the K space is the quotient of F_p^ell by the
    bar component of the sub-diagram.  T_i is computed as an honest
    kernel rather than from the one-sided generator families: the
    families can overshoot it whenever a kernel element's partner class
    is not a p-th multiple of a module element, and the direct kernels
    stay correct in that case too.
    """
    p = pres.p
    D = pres.S
    f1, f2, fbar = pres.f1, pres.f2, pres.fbar
    ell = f1.matrix.cols
    free, eye = ZModulePresentation.free(ell), FpMatrix.identity(p, ell)
    if not (pres.K.M1 == pres.K.M2 == free and pres.K.p1 == pres.K.p2 == eye):
        raise ValueError("the closed form needs a free source diagram")

    T1 = f1.kernel_lattice()
    T2 = f2.kernel_lattice()
    Tbar1 = FpSubspace.from_vectors(p, ell, [v for v in T1.basis])
    Tbar2 = FpSubspace.from_vectors(p, ell, [v for v in T2.basis])
    U = fbar.kernel().complement()
    Lbar = U.sum(Tbar1).sum(Tbar2)
    kdim = ell - Lbar.dim

    im_fbar = FpSubspace.from_vectors(
        p, D.mbar_dim, [fbar.column(j) for j in range(ell)]
    )
    fbar_Lbar = FpSubspace.from_vectors(
        p, D.mbar_dim, [fbar.mul_vec(v) for v in Lbar.basis]
    )
    if fbar_Lbar != im_fbar:
        raise AssertionError("the sub-diagram fails to cover the bar image")
    sbar_dim = D.mbar_dim - im_fbar.dim

    # L_i = lift(U + Tbar_{3-i}) + p Z^ell + T_i is lift(Lbar) + p Z^ell on both sides
    L = lift_span(p, ell, Lbar.basis)

    s1 = f1.target.quotient_by(f1.matrix.mul_vec(v) for v in L.basis)
    s2 = f2.target.quotient_by(f2.matrix.mul_vec(v) for v in L.basis)

    _, section = quotient_projection(Lbar)
    lifts = [section.column(j) for j in range(kdim)]
    q1 = IntMatrix.from_cols([f1.matrix.mul_vec(w) for w in lifts], rows=s1.gens)
    q2 = IntMatrix.from_cols([f2.matrix.mul_vec(w) for w in lifts], rows=s2.gens)
    if lifts and Lbar.dim:
        shifted = [a + b for a, b in zip(lifts[0], Lbar.basis[0])]
        if not s1.elements_equal(q1.column(0), f1.matrix.mul_vec(shifted)):
            raise AssertionError("component map depends on the choice of lift")
        if not s2.elements_equal(q2.column(0), f2.matrix.mul_vec(shifted)):
            raise AssertionError("component map depends on the choice of lift")
    return ClosedFormComponents(p, kdim, sbar_dim, s1, s2, q1, q2)


def _divisibility_check(
    C: ChainComplexR,
    n: int,
    gs_out: GeneratorSets,
    kernels_out: tuple[Lattice, Lattice],
    kernels_in: tuple[Lattice, Lattice],
) -> None:
    """One-sided images of the incoming differential must be p-divisible.

    With (din1, din2) the incoming pair and v12, v1, v2 the outgoing
    generator families: each x in ker din2 has din1 x = 0 mod p, so din1 x
    must be divisible by p, lie in the outgoing kernel span(v12 + v1), and
    have coordinates on v1 divisible by p, that is lie in span(v12 + p v1).
    Each condition cuts out a subgroup of ker din2 that contains
    ker din1 ∩ ker din2, where din1 x = 0.  Since ker din2 is that
    intersection plus its one-sided generators, a condition holds on
    those generators exactly when it holds on any basis of ker din2,
    which is what is checked: no generator sets of the incoming pair are
    built.  The mirror side swaps the two sides.  Violation indicates
    corrupted inputs and is fatal.

    ``kernels_out`` are the outgoing ``kernel_basis(d1)`` and
    ``kernel_basis(d2)``: the kernel splits in ``generator_sets`` assert
    that these are span(v12 + v1) and span(v12 + v2).  ``kernels_in`` are
    ``kernel_basis(din1)`` and ``kernel_basis(din2)``.
    """
    p = C.p
    din1, din2 = C.pair(n - 1)
    m = din1.rows
    for label, dmat, one_sided, kernel, sources in (
        ("d1-image of a side-2 generator", din1, gs_out.v1, kernels_out[0], kernels_in[1]),
        ("d2-image of a side-1 generator", din2, gs_out.v2, kernels_out[1], kernels_in[0]),
    ):
        divisible = Lattice.from_generators(
            m, gs_out.v12 + tuple(tuple(p * x for x in v) for v in one_sided)
        )
        for vec in sources.basis:
            image = dmat.mul_vec(vec)
            if any(x % p for x in image):
                raise ArithmeticError(f"{label} is not divisible by {p}: {image}")
            if not kernel.contains(image):
                raise ArithmeticError(f"{label} lies outside the kernel")
            if not divisible.contains(image):
                raise ArithmeticError(
                    f"{label} has one-sided coordinates not divisible by {p}"
                )


def homology_rdiagram(C: ChainComplexR, n: int) -> RDiagram:
    """The R-diagram of H^n, with the closed form verified against it."""
    return reduce_homology(homology_presentation(C, n))


def reduce_homology(pres: SeparatedPresentation) -> RDiagram:
    """Reduce a free-source presentation, verifying the closed form against it.

    The closed form must agree with the reduced diagram on ``kdim``, the
    dimension of Sbar and the isomorphism classes of S1 and S2.  Both sides
    are first compared as values: equal presentations have equal normal
    forms, so the Smith forms run only when the presentations differ, and
    exactly the same cases are accepted as by comparing normal forms.
    """
    rd = reduce_combined(pres)
    cf = closed_form_components(pres)
    want = (cf.kdim, cf.sbar_dim, cf.s1, cf.s2)
    got = (rd.kdim, rd.S.mbar_dim, rd.S.M1, rd.S.M2)
    if got == want:
        return rd
    want = want[:2] + (cf.s1.normal_form(), cf.s2.normal_form())
    got = got[:2] + (rd.S.M1.normal_form(), rd.S.M2.normal_form())
    if got != want:
        raise AssertionError(
            "closed-form components disagree with the reduced diagram: "
            f"(kdim, sbar, S1, S2) closed form {want} vs reduced {got}"
        )
    return rd
