"""Reducing separated presentations to R-diagrams.

A *separated presentation* of a module M is a morphism f: K -> S of
separated diagrams with M = coker f.  An *R-diagram* is the fully reduced
form: K is a single F_p space sitting inside both S_1 and S_2 through
injective maps q_i with p-torsion images, and the bar-level map is zero.

The passage from one to the other quotients K by a carefully chosen
sub-diagram L = (L_1, Lbar, L_2) and S by f(L).  Three elementary
reductions (kill the kernels of K's structure maps; kill a complement of
ker fbar; kill the kernels of f_1, f_2) compose to the same result as a
single combined quotient, and both routes are implemented so they can be
checked against each other.  The third reduction is two mirror-image
one-sided quotients, one per side; both run the same code with the side
given as an index.

Every reduction validates the hypotheses it relies on and re-verifies
separatedness of its output; the theory guarantees these hold, so a
failure is a bug, reported loudly with the violated condition's name.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from .intlinalg import IntMatrix, Lattice, preimage_lattice
from .fplinalg import (
    FpMatrix,
    FpSubspace,
    null_space,
    quotient_projection,
    validate_prime,
)
from .presentations import ModuleMap, ZModulePresentation
from .pullback import (
    DiagramMorphism,
    PullbackDiagram,
    is_separated,
    per_side,
)

__all__ = [
    "HypothesisViolation",
    "SeparatedPresentation",
    "SubDiagram",
    "RDiagram",
    "RDiagramReport",
    "free_diagram",
    "quotient_presentation",
    "reduce_K",
    "reduce_barf",
    "reduce_monos",
    "reduce_sequential",
    "reduce_combined",
    "validate_rdiagram",
    "rdiagram_as_presentation",
]


class HypothesisViolation(ValueError):
    """A reduction was attempted whose named hypothesis fails to hold."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        super().__init__(f"{condition}: {detail}" if detail else condition)


@dataclass(frozen=True, slots=True, eq=False)
class SeparatedPresentation:
    """A morphism K -> S of separated diagrams, presenting coker f.

    Wraps a ``DiagramMorphism`` (which already guarantees commuting
    squares) and re-verifies that both endpoint diagrams are separated.
    """

    morphism: DiagramMorphism

    def __post_init__(self):
        for side, D in (("source", self.morphism.source), ("target", self.morphism.target)):
            report = is_separated(D)
            if not report.separated:
                raise ValueError(f"the {side} diagram is not separated: {report}")

    @property
    def p(self) -> int:
        return self.morphism.source.p

    @property
    def K(self) -> PullbackDiagram:
        return self.morphism.source

    @property
    def S(self) -> PullbackDiagram:
        return self.morphism.target

    @property
    def f1(self) -> ModuleMap:
        return self.morphism.f1

    @property
    def f2(self) -> ModuleMap:
        return self.morphism.f2

    @property
    def fbar(self) -> FpMatrix:
        return self.morphism.fbar

    def __repr__(self) -> str:
        return f"SeparatedPresentation({self.K!r} -> {self.S!r})"


@dataclass(frozen=True, slots=True, eq=False)
class SubDiagram:
    """A sub-diagram (L_1, Lbar, L_2) of the K side of a presentation.

    ``L1``/``L2`` are lattices in the generator spaces of K_1/K_2, ``Lbar``
    a subspace of Kbar; the restrictions of K's structure maps are the
    implicit maps u_i, so the components must satisfy q_i(L_i) <= Lbar.
    """

    K: InitVar[PullbackDiagram]
    L1: Lattice
    Lbar: FpSubspace
    L2: Lattice

    def __post_init__(self, K: PullbackDiagram):
        if self.L1.ambient != K.M1.gens or self.L2.ambient != K.M2.gens:
            raise ValueError("sub-diagram lattices must live in the generator spaces")
        if self.Lbar.ambient != K.mbar_dim or self.Lbar.p != K.p:
            raise ValueError("Lbar must be a subspace of Kbar")

        def check(i, lat, mat):
            for v in lat.basis:
                if not self.Lbar.contains(mat.mul_vec(v)):
                    raise ValueError(f"structure map carries L{i} outside Lbar at {v}")

        per_side(check, (self.L1, K.p1), (self.L2, K.p2))

    def side(self, i: int) -> Lattice:
        return self.L1 if i == 1 else self.L2


def free_diagram(p: int, rank: int) -> PullbackDiagram:
    """The separated diagram (Z^rank, F_p^rank, Z^rank) of the free module."""
    p = validate_prime(p)
    free = ZModulePresentation.free(rank)
    eye = FpMatrix.identity(p, rank)
    return PullbackDiagram(p, free, free, rank, eye, eye)


def _image_subspace(q: FpMatrix, L: Lattice) -> FpSubspace:
    return FpSubspace.from_vectors(q.p, q.rows, [q.mul_vec(v) for v in L.basis])


def _subspace_preimage(q: FpMatrix, V: FpSubspace) -> Lattice:
    """The integer lattice {x : q(x) in V mod p}.

    It is the lifted kernel of q followed by the projection onto
    F_p^rows / V.  For V = 0 that projection is the identity, so it is the
    lifted kernel of q itself, taken without leaving a memo on q.
    """
    if not V.dim:
        return null_space(q.p, q.entries, q.cols).lift()
    return (quotient_projection(V)[0] @ q).kernel().lift()


def _preimage_subdiagram(K: PullbackDiagram, Lbar: FpSubspace) -> SubDiagram:
    """(L_1, Lbar, L_2) with L_i = {x : q_i(x) in Lbar}."""
    L1, L2 = per_side(lambda i, q: _subspace_preimage(q, Lbar), (K.p1,), (K.p2,))
    return SubDiagram(K, L1, Lbar, L2)


def _check_onto(i: int, q: FpMatrix, lat: Lattice, Lbar: FpSubspace) -> None:
    """Raise unless u_i, the restriction of q_i to L_i, maps onto Lbar."""
    if _image_subspace(q, lat) != Lbar:
        raise HypothesisViolation(f"u{i}-not-surjective", f"L{i} does not map onto Lbar")


def _apply_quotient(pres: SeparatedPresentation, L: SubDiagram) -> SeparatedPresentation:
    """Quotient K by L, each S_i by f_i(L_i), and Sbar by fbar(Lbar).

    When Lbar = 0 the projection of Kbar would be the identity, so it is
    not built and Kbar, K's structure maps and fbar are kept as they are;
    likewise for Sbar and S's structure maps when fbar(Lbar) = 0.
    """
    p = pres.p
    K, S = pres.K, pres.S

    newK1, newK2 = per_side(
        lambda i, mod, lat: ZModulePresentation(mod.gens, mod.relations.sum(lat)),
        (K.M1, L.L1),
        (K.M2, L.L2),
    )
    if L.Lbar.dim:
        projK, sectionK = quotient_projection(L.Lbar)
        maps = per_side(lambda i, q: projK @ q, (K.p1,), (K.p2,))
        newK = PullbackDiagram(p, newK1, newK2, projK.rows, *maps)
        newfbar = pres.fbar @ sectionK
    else:
        newK = PullbackDiagram(p, newK1, newK2, K.mbar_dim, K.p1, K.p2)
        newfbar = pres.fbar

    newS1, newS2 = (
        S.component(i).quotient_by(
            pres.morphism.component(i).matrix.mul_vec(v) for v in L.side(i).basis
        )
        for i in (1, 2)
    )
    images = [pres.fbar.mul_vec(l) for l in L.Lbar.basis]
    if any(map(any, images)):
        projS, _ = quotient_projection(FpSubspace.from_vectors(p, S.mbar_dim, images))
        maps = per_side(lambda i, q: projS @ q, (S.p1,), (S.p2,))
        newS = PullbackDiagram(p, newS1, newS2, projS.rows, *maps)
        newfbar = projS @ newfbar
    else:
        newS = PullbackDiagram(p, newS1, newS2, S.mbar_dim, S.p1, S.p2)

    newf1 = ModuleMap(newK1, newS1, pres.f1.matrix)
    newf2 = ModuleMap(newK2, newS2, pres.f2.matrix)
    return SeparatedPresentation(DiagramMorphism(newK, newS, newf1, newf2, newfbar))


def quotient_presentation(
    pres: SeparatedPresentation, L: SubDiagram
) -> SeparatedPresentation:
    """Quotient a presentation, all six components, by a sub-diagram of K.

    Requires each u_i: L_i -> Lbar surjective and fbar injective on Lbar;
    violations raise ``HypothesisViolation`` naming the failed condition.
    The one-sided quotient that kills a single side is
    ``_one_sided_quotient``.
    """
    K = pres.K
    per_side(lambda i, q, lat: _check_onto(i, q, lat, L.Lbar), (K.p1, L.L1), (K.p2, L.L2))
    if pres.fbar.kernel().intersect(L.Lbar).dim:
        raise HypothesisViolation(
            "fbar-not-injective-on-Lbar", "ker fbar meets Lbar"
        )
    return _apply_quotient(pres, L)


def _one_sided_quotient(
    pres: SeparatedPresentation, L: SubDiagram, j: int
) -> SeparatedPresentation:
    """Quotient K by L and S_{3-j} by f_{3-j}(L_{3-j}), killing L_j.

    Requires u_j: L_j -> Lbar surjective, f_j(L_j) = 0 and fbar(Lbar) = 0;
    violations raise ``HypothesisViolation`` naming the condition and side.
    Under them the quotient of S_j and Sbar changes neither as a value, so
    this is the two-sided quotient.
    """
    f = pres.morphism.component(j)
    _check_onto(j, pres.K.structure_map(j), L.side(j), L.Lbar)
    relations = pres.S.component(j).relations
    for v in L.side(j).basis:
        if not relations.contains(f.matrix.mul_vec(v)):
            raise HypothesisViolation(f"f{j}-nonzero-on-L{j}", f"f{j}({v}) != 0")
    for l in L.Lbar.basis:
        if any(pres.fbar.mul_vec(l)):
            raise HypothesisViolation("fbar-nonzero-on-Lbar", f"fbar({l}) != 0")
    return _apply_quotient(pres, L)


def _maps_from_Kbar(pres: SeparatedPresentation) -> tuple[IntMatrix, IntMatrix]:
    """The maps f_i, rewritten through Kbar: standard basis of Kbar -> S_i.

    Requires each structure map q_i to be an isomorphism of modules
    K_i -> Kbar (which holds after the K-side kernels have been
    quotiented away); the columns are f_i of integer lifts of the inverse
    isomorphisms.
    """
    K = pres.K
    inverse1, inverse2 = per_side(_inverse_lift, (K.p1, K.M1), (K.p2, K.M2))
    return pres.f1.matrix @ inverse1, pres.f2.matrix @ inverse2


def _inverse_lift(i: int, q: FpMatrix, mod: ZModulePresentation) -> IntMatrix:
    """An integer lift of the inverse of q_i, after checking q_i: K_i -> Kbar is an isomorphism."""
    if not mod.relations.contains_lattice(q.kernel().lift()):
        raise AssertionError(
            f"structure map {i} of K is not injective; quotient the kernels first"
        )
    d = q.rows
    lifts = q.solve_many([[int(t == r) for t in range(d)] for r in range(d)])
    if None in lifts:
        raise AssertionError(f"structure map {i} of K is not surjective")
    return IntMatrix.from_cols(lifts, rows=q.cols)


def _from_elementary(
    S: PullbackDiagram, q1: IntMatrix, q2: IntMatrix, fbar: FpMatrix
) -> SeparatedPresentation:
    """The presentation ((Z/p)^d, F_p^d, (Z/p)^d; id, id) -> S by (q1, fbar, q2), d = fbar.cols."""
    p, d = S.p, fbar.cols
    E = ZModulePresentation.fp_elementary(p, d)
    eye = FpMatrix.identity(p, d)
    K = PullbackDiagram(p, E, E, d, eye, eye)
    f1 = ModuleMap(E, S.M1, q1)
    f2 = ModuleMap(E, S.M2, q2)
    return SeparatedPresentation(DiagramMorphism(K, S, f1, f2, fbar))


def reduce_K(pres: SeparatedPresentation) -> SeparatedPresentation:
    """Kill the kernels of K's structure maps.

    Quotients by the sub-diagram (ker q_1, 0, ker q_2) and then rewrites
    K in Kbar coordinates, so K becomes literally ((Z/p)^d, F_p^d,
    (Z/p)^d; id, id).
    """
    zero_bar = FpSubspace.zero(pres.p, pres.K.mbar_dim)
    L = _preimage_subdiagram(pres.K, zero_bar)
    out = quotient_presentation(pres, L)
    return _from_elementary(out.S, *_maps_from_Kbar(out), out.fbar)


def reduce_barf(pres: SeparatedPresentation) -> SeparatedPresentation:
    """Kill a complement of ker fbar, so the reduced fbar is exactly zero."""
    L = _preimage_subdiagram(pres.K, pres.fbar.kernel().complement())
    out = quotient_presentation(pres, L)
    if not out.fbar.is_zero():
        raise AssertionError("reduction failed to annihilate fbar")
    return out


def _mono_step(pres: SeparatedPresentation, j: int) -> SeparatedPresentation:
    """One-sided quotient making f_j injective (requires fbar = 0).

    Kills L_j = ker f_j, with Lbar = q_j(L_j) and L_{3-j} = q_{3-j}^{-1}(Lbar).
    """
    K = pres.K
    Lj = pres.morphism.component(j).kernel_lattice()
    Lbar = _image_subspace(K.structure_map(j), Lj)
    other = _subspace_preimage(K.structure_map(3 - j), Lbar)
    L1, L2 = (Lj, other) if j == 1 else (other, Lj)
    return _one_sided_quotient(pres, SubDiagram(K, L1, Lbar, L2), j)


def reduce_monos(pres: SeparatedPresentation) -> SeparatedPresentation:
    """Make both f_1 and f_2 injective.  Requires fbar = 0.

    First quotients away ker f_2 (one-sided, touching only S_1 on the
    target), then the mirror image for f_1; the second step preserves the
    injectivity gained in the first, which is asserted at the end.
    """
    if not pres.fbar.is_zero():
        raise HypothesisViolation("fbar-not-zero", "run the fbar reduction first")
    out = _mono_step(_mono_step(pres, 2), 1)
    for i in (1, 2):
        if not out.morphism.component(i).is_injective():
            raise AssertionError(f"f{i} failed to become injective")
    return out


def reduce_sequential(pres: SeparatedPresentation) -> "RDiagram":
    """The three elementary reductions in order, then extraction."""
    return _extract_rdiagram(reduce_monos(reduce_barf(reduce_K(pres))))


def reduce_combined(pres: SeparatedPresentation) -> "RDiagram":
    """Single-shot reduction by the combined sub-diagram.

    With T_i = ker f_i, Tbar_i = q_i(T_i) and U a complement of ker fbar,
    quotients by L = (q_1^{-1}(U + Tbar_2) + T_1, U + Tbar_1 + Tbar_2,
    q_2^{-1}(U + Tbar_1) + T_2).  This sub-diagram does not satisfy the
    stepwise hypotheses, but the resulting quotient is the same as running
    the three elementary reductions; the result is validated as an
    R-diagram and the vanishing of the reduced fbar is asserted.

    Each L_i contains p Z^gens, and q_i maps T_i mod p onto Tbar_i, so
    L_i is the lift of q_i^{-1}(Lbar) over F_p plus p Z^gens: one kernel
    mod p per side, and one in all when K's sides share their map, as the
    free source of a homology presentation does.
    """
    K = pres.K
    Tbar1 = _image_subspace(K.p1, pres.f1.kernel_lattice())
    Tbar2 = _image_subspace(K.p2, pres.f2.kernel_lattice())
    Lbar = pres.fbar.kernel().complement().sum(Tbar1).sum(Tbar2)
    out = _apply_quotient(pres, _preimage_subdiagram(K, Lbar))
    if not out.fbar.is_zero():
        raise AssertionError("combined reduction failed to annihilate fbar")
    return _extract_rdiagram(out)


@dataclass(frozen=True, slots=True, eq=False)
class RDiagram:
    """The reduced form: K = F_p^kdim mapped into S_1 and S_2.

    ``q1``/``q2`` are integer matrices sending the standard basis of K to
    generator coordinates of the S components.  Construction checks the
    prime and stores the value ``validate_prime`` returned (the pipeline
    passes that value, so the check returns at once), and checks the
    shapes only.  ``validate_rdiagram`` decides the semantic conditions, once per
    diagram: the report is kept on the diagram, and when every check
    passes it is one shared object.
    """

    p: int
    kdim: int
    S: PullbackDiagram
    q1: IntMatrix
    q2: IntMatrix
    _report: RDiagramReport | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p", validate_prime(self.p))
        if self.S.p != self.p:
            raise ValueError("S has a different p")
        if (self.q1.rows, self.q1.cols) != (self.S.M1.gens, self.kdim):
            raise ValueError("q1 has the wrong shape")
        if (self.q2.rows, self.q2.cols) != (self.S.M2.gens, self.kdim):
            raise ValueError("q2 has the wrong shape")

    def structure_matrix(self, i: int) -> IntMatrix:
        return self.q1 if i == 1 else self.q2

    def __repr__(self) -> str:
        return (
            f"RDiagram(p={self.p}, kdim={self.kdim}, S1={self.S.M1.normal_form()}, "
            f"Sbar_dim={self.S.mbar_dim}, S2={self.S.M2.normal_form()})"
        )


@dataclass(frozen=True, slots=True, eq=False)
class RDiagramReport:
    """Pass/fail per R-diagram condition, with witnesses for failures."""

    checks: tuple

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failed(self) -> list[str]:
        return [name for name, passed, _ in self.checks if not passed]

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={'ok' if passed else f'FAIL({witness})'}"
            for name, passed, witness in self.checks
        )
        return f"RDiagramReport({shown})"


_SIDE_CHECKS = (
    (1, ("q1-torsion-image", "q1-mono", "p1q1-zero")),
    (2, ("q2-torsion-image", "q2-mono", "p2q2-zero")),
)

# a passing report is always the same checks, each (name, True, None), so
# every valid R-diagram keeps this one instance
_PASSED = RDiagramReport(
    tuple((name, True, None) for _, names in _SIDE_CHECKS for name in names)
    + (("s-separated", True, None),)
)


def validate_rdiagram(rd: RDiagram) -> RDiagramReport:
    """Check every R-diagram condition.

    - q_i well-defined: p * (each column) lies in the relations of S_i;
    - q_i injective as a module map out of (Z/p)^kdim;
    - p_i after q_i vanishes mod p;
    - the S diagram is separated.

    The report is computed once per diagram and kept on it.  When every
    check passes it is one shared object; a failing report is the
    diagram's own and carries its witnesses.
    """
    if rd._report is not None:
        return rd._report
    checks = _rdiagram_checks(rd)
    if all(passed for _, passed, _ in checks):
        report = _PASSED
    else:
        report = RDiagramReport(checks)
    object.__setattr__(rd, "_report", report)
    return report


def _rdiagram_checks(rd: RDiagram) -> tuple:
    """Evaluate the conditions of ``validate_rdiagram`` as (name, passed, witness)."""
    checks = []
    full_k = Lattice.scaled_full(rd.kdim, rd.p)
    for i, (torsion_name, mono_name, zero_name) in _SIDE_CHECKS:
        q = rd.structure_matrix(i)
        mod = rd.S.component(i)
        bad = next(
            (
                j
                for j in range(rd.kdim)
                if not mod.relations.contains([rd.p * x for x in q.column(j)])
            ),
            None,
        )
        checks.append((torsion_name, bad is None, bad))
        ker = preimage_lattice(q, mod.relations)
        mono = full_k.contains_lattice(ker)
        witness = None
        if not mono:
            witness = next(col for col in ker.basis if not full_k.contains(col))
        checks.append((mono_name, mono, witness))
        composite = rd.S.structure_map(i) @ FpMatrix.from_int(q, rd.p)
        checks.append((zero_name, composite.is_zero(), None))
    sep = is_separated(rd.S)
    checks.append(("s-separated", sep.separated, sep.witnesses or None))
    return tuple(checks)


def _extract_rdiagram(pres: SeparatedPresentation) -> RDiagram:
    """Read an R-diagram off a fully reduced presentation.

    fbar must vanish; the q_i are f_i rewritten through Kbar, and
    ``validate_rdiagram`` decides every condition of the result, among
    them the torsion of the q_i images and p_i q_i = 0.
    """
    if not pres.fbar.is_zero():
        raise AssertionError("fbar must vanish before extracting an R-diagram")
    rd = RDiagram(pres.p, pres.K.mbar_dim, pres.S, *_maps_from_Kbar(pres))
    report = validate_rdiagram(rd)
    if not report.ok:
        raise AssertionError(f"reduction produced an invalid R-diagram: {report}")
    return rd


def rdiagram_as_presentation(rd: RDiagram) -> SeparatedPresentation:
    """Re-wrap an R-diagram as a separated presentation (K elementary)."""
    fbar = FpMatrix.zeros(rd.p, rd.S.mbar_dim, rd.kdim)
    return _from_elementary(rd.S, rd.q1, rd.q2, fbar)
