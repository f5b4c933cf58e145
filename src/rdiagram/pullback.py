"""The p-pullback ring, pullback diagrams, separation, and diagram morphisms.

The ring in play is R = {(m, n) in Z + Z : m = n mod p}.  Its elements act
on pairs coordinatewise, and the two ideals that matter are
P_1 = (p,0)R and P_2 = (0,p)R.  A *pullback diagram* is a triple
(M_1, Mbar, M_2) with maps p_i: M_i -> Mbar; its *pullback module* is the
group of pairs with matching images.  The diagram is *preseparated* when
both p_i are onto and *separated* when additionally ker p_i = p M_i.

Concrete R-modules enter as ``LatticeRModule``: a sublattice of
Z^a + Z^b closed under the ring action.  ``separate`` produces the (unique)
separated diagram of such a module, with the middle object realized as a
literal coordinate space F_p^d so that complements and quotients stay
computable by echelon forms.

The mono/epi criteria for a ``DiagramMorphism`` and the matching-pair
pullback group live in ``rdiagram.morphisms``, outside the pipeline.

Everything here checks its own hypotheses and fails loudly: the theory
guarantees most of them, so a violation means a bug upstream, never
something to paper over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index, is_
from typing import Callable, Iterable, Sequence

from .intlinalg import (
    Factorisation,
    IntMatrix,
    Lattice,
    factor_modulo,
    preimage_lattice,
)
from .fplinalg import (
    FpMatrix,
    FpSubspace,
    _mul_entries,
    null_space,
    quotient_projection,
    validate_prime,
)
from .presentations import ModuleMap, ZModulePresentation

__all__ = [
    "quotient_ring_check",
    "LatticeRModule",
    "PullbackDiagram",
    "SeparationReport",
    "is_separated",
    "Separation",
    "separate",
    "separate_presented",
    "DiagramMorphism",
]


def per_side(f: Callable, side1: tuple, side2: tuple) -> tuple:
    """``(f(1, *side1), f(2, *side2))``, calling ``f`` once when side 2 is side 1.

    Side 2 is side 1 when each of its arguments ``is`` the matching one of
    side 1: every diagram the pipeline builds has one structure-map object
    on both sides, and the free source of a homology presentation shares
    its module too.  Every two-sided step goes through here, so a shared
    side is computed and checked once.  The index only labels errors.
    """
    first = f(1, *side1)
    return first, (first if all(map(is_, side1, side2)) else f(2, *side2))


def quotient_ring_check(p: int) -> bool:
    """Verify R / (P_1 + P_2) = Z/p on the basis (1,1), (0,p) of R.

    In that basis P_1 is spanned by (p, -1) — because (p,0) = p(1,1) - (0,p)
    — and P_2 by (0, 1).  The quotient's invariant factors must come out as
    exactly [p].
    """
    validate_prime(p)
    pres = ZModulePresentation(
        2, Lattice.from_generators(2, [(p, -1), (0, 1)])
    )
    return pres.normal_form() == (0, (p,))


@dataclass(frozen=True, slots=True, eq=False)
class LatticeRModule:
    """A sublattice of Z^a + Z^b closed under the p-pullback ring action.

    Closure is checked on basis vectors against the ring generators (1,1)
    and (0,p) only; that suffices since (p,0) = p(1,1) - (0,p).  The
    prime is stored as the value ``validate_prime`` returned.
    """

    p: int
    a: int
    b: int
    lattice: Lattice

    def __post_init__(self):
        object.__setattr__(self, "p", validate_prime(self.p))
        if self.lattice.ambient != self.a + self.b:
            raise ValueError("lattice ambient must be a + b")
        _check_rclosed(self.p, self.a, self.b, self.lattice, "lattice")

    @staticmethod
    def from_generators(p: int, a: int, b: int, gens: Iterable[Sequence[int]]) -> "LatticeRModule":
        return LatticeRModule(p, a, b, Lattice.from_generators(a + b, gens))

    def __repr__(self) -> str:
        return f"LatticeRModule(p={self.p}, blocks={self.a}+{self.b}, rank={self.lattice.rank})"


@dataclass(frozen=True, slots=True, eq=False)
class PullbackDiagram:
    """A triple (M_1, Mbar, M_2) with maps p_i: M_i -> Mbar = F_p^d.

    The middle object is always a literal coordinate space over F_p; ``p1``
    and ``p2`` are matrices on generators.  Construction checks ``p`` and
    stores the value ``validate_prime`` returned, so nothing built from the
    diagram checks it again; given that value, as every diagram the
    pipeline builds is, the check returns at once.  It also
    verifies the maps' moduli and shapes, and that both maps kill the
    relation lattices mod p (well-definedness), per side through
    ``per_side``.
    """

    p: int
    M1: ZModulePresentation
    M2: ZModulePresentation
    mbar_dim: int
    p1: FpMatrix
    p2: FpMatrix
    _sep_cache: SeparationReport | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "p", validate_prime(self.p))
        per_side(self._check_side, (self.p1, self.M1), (self.p2, self.M2))

    def _check_side(self, i: int, mat: FpMatrix, mod: ZModulePresentation) -> None:
        if mat.p != self.p:
            raise ValueError(f"p{i} has modulus {mat.p}, expected {self.p}")
        if (mat.rows, mat.cols) != (self.mbar_dim, mod.gens):
            raise ValueError(
                f"p{i} must be {self.mbar_dim}x{mod.gens}, got {mat.rows}x{mat.cols}"
            )
        for rel in mod.relations.basis:
            if any(mat.mul_vec(rel)):
                raise ValueError(f"p{i} does not vanish on a relation {rel}")

    def component(self, i: int) -> ZModulePresentation:
        if i == 1:
            return self.M1
        if i == 2:
            return self.M2
        raise ValueError("component index must be 1 or 2")

    def structure_map(self, i: int) -> FpMatrix:
        if i == 1:
            return self.p1
        if i == 2:
            return self.p2
        raise ValueError("component index must be 1 or 2")

    def __repr__(self) -> str:
        return (
            f"PullbackDiagram(p={self.p}, M1={self.M1.normal_form()}, "
            f"Mbar_dim={self.mbar_dim}, M2={self.M2.normal_form()})"
        )


@dataclass(frozen=True, slots=True, eq=False)
class SeparationReport:
    """Outcome of the separatedness checks, with witnessing vectors."""

    preseparated: bool
    separated: bool
    witnesses: tuple

    def __repr__(self) -> str:
        return (
            f"SeparationReport(preseparated={self.preseparated}, "
            f"separated={self.separated}, witnesses={list(self.witnesses)})"
        )


# a separated diagram's report has no witnesses, so every one shares this
_SEPARATED = SeparationReport(True, True, ())


def is_separated(D: PullbackDiagram) -> SeparationReport:
    """Check surjectivity of the p_i and the kernel condition ker p_i = p M_i.

    Both conditions are decided on subspaces of F_p^gens.  p_i is onto
    when its kernel over F_p has codimension ``mbar_dim``.  The kernel
    condition says that the preimage of p Z^d under an integer lift of
    p_i equals p*(generators) + relations; both lattices contain
    p Z^gens, so they are equal exactly when the kernel of p_i equals the
    span of the relations mod p, and no lattice is built.  Witnesses name
    the failing side, a shared one included, and, for kernel failures, a
    basis vector of one subspace outside the other.  The report is kept
    on the diagram; every separated diagram keeps the same shared report.
    """
    cached = D._sep_cache
    if cached is None:
        cached = _separation_report(D)
        object.__setattr__(D, "_sep_cache", cached)
    return cached


def _separation_report(D: PullbackDiagram) -> SeparationReport:
    """Evaluate the conditions of ``is_separated``.

    The kernels are not kept on the maps, which every kept diagram retains.
    """
    k1, k2 = per_side(lambda i, q: null_space(D.p, q.entries, q.cols), (D.p1,), (D.p2,))
    first, second = per_side(
        lambda i, mod, kernel: _side_conditions(D, mod, kernel), (D.M1, k1), (D.M2, k2)
    )
    sides = ((1, first), (2, second))
    witnesses = [("not-surjective", i, None) for i, (onto, _, _) in sides if not onto]
    witnesses += [("kernel-mismatch", i, bad) for i, (_, ok, bad) in sides if not ok]
    if not witnesses:
        return _SEPARATED
    return SeparationReport(first[0] and second[0], False, tuple(witnesses))


def _side_conditions(
    D: PullbackDiagram, mod: ZModulePresentation, kernel: FpSubspace
) -> tuple[bool, bool, tuple | None]:
    """``(onto, kernel condition holds, witness)`` for one side of ``D``.

    ``kernel`` is the kernel over F_p of the side's structure map.  The
    witness is a basis vector of it outside the relations mod p, or else
    one of the relations' echelon basis outside it: the same vectors as
    the lifted lattices' basis columns that fail, since their ``p e_i``
    columns lie in both.
    """
    onto = mod.gens - kernel.dim == D.mbar_dim
    expected = FpSubspace.from_vectors(D.p, mod.gens, mod.relations.basis)
    if kernel == expected:
        return onto, True, None
    bad = next((v for v in kernel.basis if not expected.contains(v)), None)
    if bad is None:
        bad = next((v for v in expected.basis if not kernel.contains(v)), None)
    return onto, False, bad


@dataclass(frozen=True, slots=True, eq=False)
class Separation:
    """A separated diagram of a concrete R-module, plus pull-back data.

    The module is ``module_lattice / relations`` inside Z^a + Z^b (a plain
    lattice module when ``relations`` is zero).  The columns of
    ``gen_matrix`` are the ``generators``: module elements whose classes
    generate all three quotients M/P_2M, M/P_1M, M/(P_1M + P_2M).  The
    component presentations live on these generators, so both structure
    maps of ``diagram`` are the same projection matrix (the identity on
    generator classes), and ``section`` lifts Mbar back to generator
    coordinates.  ``sides[i - 1]`` is the generator matrix factored modulo
    P_{3-i}M, once per separation: its kernel is the relation lattice of
    M_i, and it expresses module elements back in the generators of M_i.
    ``p`` is the diagram's.
    """

    a: int
    b: int
    module_lattice: Lattice
    relations: Lattice
    gen_matrix: IntMatrix
    diagram: PullbackDiagram
    sides: tuple[Factorisation, Factorisation]
    section: FpMatrix

    @property
    def p(self) -> int:
        return self.diagram.p

    @property
    def generators(self) -> list[tuple[int, ...]]:
        return self.gen_matrix.columns()

    def embed_pair(self, c1: Sequence[int], c2: Sequence[int]) -> tuple[int, ...]:
        """The module element represented by matching classes (c1, c2).

        Only available for lattice modules: the element of M whose first
        block agrees with the c1 combination and second block with the c2
        combination.
        """
        if self.relations.rank:
            raise ValueError("embedding is only defined for lattice modules")
        G, a = self.gen_matrix, self.a
        return G.mul_vec(c1)[:a] + G.mul_vec(c2)[a:]

    def embedded_pullback_lattice(self) -> Lattice:
        """Image in Z^a + Z^b of the matching-pairs lattice of the diagram."""
        match = _matching_lattice(self.diagram.p1, self.diagram.p2)
        k = self.gen_matrix.cols
        gens = [self.embed_pair(col[:k], col[k:]) for col in match.basis]
        return Lattice.from_generators(self.a + self.b, gens)

    def class_coordinates(
        self, vectors: Sequence[Sequence[int]], side: int
    ) -> list[tuple[int, ...]]:
        """Express module elements in the generators of M_1 or M_2.

        Solves v = (generators) c + (P_{3-side} M) t for each v and returns
        the c's in order, by back-substitution through the side's
        factorisation, which was computed once when the separation was
        built.  Raises, naming the first failing column index, if a vector
        does not represent an element (the generator classes do span).
        """
        factored = self.sides[side - 1]
        coords = []
        for j, v in enumerate(vectors):
            c = factored.solve(v)
            if c is None:
                raise ValueError(f"column {j}, {tuple(v)}, is not an element of the module")
            coords.append(c)
        return coords


def _check_rclosed(p: int, a: int, b: int, lat: Lattice, label: str) -> None:
    for col in lat.basis:
        shifted = (0,) * a + tuple(p * y for y in col[a:])
        if not lat.contains(shifted):
            raise ValueError(
                f"{label} is not closed under the ring action: (0,p)*{col} = {shifted} is outside"
            )


def separate_presented(
    p: int,
    a: int,
    b: int,
    module_lattice: Lattice,
    relations: Lattice,
    generators: Iterable[Sequence[int]] | None = None,
) -> Separation:
    """Separated diagram of the R-module (module_lattice / relations).

    The general form of ``separate``: the module need not be torsion-free.
    Both lattices must be R-closed with relations inside the module.  The
    three quotients are presented on the classes of ``generators`` (the
    canonical basis of the module lattice when omitted); a custom family
    must still generate both side quotients — verified, not assumed.
    """
    p = validate_prime(p)
    ambient = a + b
    if module_lattice.ambient != ambient or relations.ambient != ambient:
        raise ValueError("module and relation lattices must live in Z^(a+b)")
    if not module_lattice.contains_lattice(relations):
        raise ValueError("relations must be contained in the module lattice")
    _check_rclosed(p, a, b, module_lattice, "module lattice")
    _check_rclosed(p, a, b, relations, "relation lattice")
    if generators is None:
        gens = list(module_lattice.basis)
    else:
        gens = [tuple(map(index, g)) for g in generators]
    for g in gens:
        if not module_lattice.contains(g):
            raise ValueError(f"generator {g} is not an element of the module")
    k = len(gens)
    G = IntMatrix.from_cols(gens, rows=ambient)
    scaled1 = [tuple(p * t for t in col[:a]) + (0,) * b for col in module_lattice.basis]
    scaled2 = [(0,) * a + tuple(p * t for t in col[a:]) for col in module_lattice.basis]
    p1s = Lattice.from_generators(ambient, scaled1 + list(relations.basis))
    p2s = Lattice.from_generators(ambient, scaled2 + list(relations.basis))
    # one factorisation per side serves its generation check, its relations
    # and, later, every class_coordinates call on that side
    sides = (factor_modulo(G, p2s), factor_modulo(G, p1s))
    for factored, label in zip(sides, ("M/P2M", "M/P1M")):
        if not factored.span.contains_lattice(module_lattice):
            raise ValueError(f"generator classes do not generate {label}")

    relbar = preimage_lattice(G, p1s.sum(p2s))
    if not relbar.contains_lattice(Lattice.scaled_full(k, p)):
        raise AssertionError("M/(P1M+P2M) failed to be p-elementary")
    W = FpSubspace.from_vectors(p, k, [col for col in relbar.basis])
    proj, section = quotient_projection(W)
    M1 = ZModulePresentation(k, sides[0].kernel)
    M2 = ZModulePresentation(k, sides[1].kernel)
    diagram = PullbackDiagram(p, M1, M2, proj.rows, proj, proj)
    report = is_separated(diagram)
    if not report.separated:
        raise AssertionError(f"separation produced a non-separated diagram: {report}")
    return Separation(a, b, module_lattice, relations, G, diagram, sides, section)


def separate(S: LatticeRModule) -> Separation:
    """The separated diagram (S/P_2S, S/(P_1S+P_2S), S/P_1S) of a lattice module.

    All three quotients are presented on the classes of the canonical
    lattice basis of S, so the structure maps are induced by the identity
    on generators.
    """
    return separate_presented(S.p, S.a, S.b, S.lattice, Lattice.zero(S.a + S.b))


def _matching_lattice(a: FpMatrix, b: FpMatrix) -> Lattice:
    """The pairs ``(x, y)`` with ``a x = b y`` mod p, as an integer lattice."""
    p = a.p
    rows = [ra + tuple(-y % p for y in rb) for ra, rb in zip(a.entries, b.entries)]
    return null_space(p, rows, a.cols + b.cols).lift()


@dataclass(frozen=True, slots=True, eq=False)
class DiagramMorphism:
    """A triple (f_1, fbar, f_2) between pullback diagrams.

    Both commuting squares are verified exactly on construction: the
    middle objects are literal F_p spaces, so the squares are matrix
    identities mod p.
    """

    source: PullbackDiagram
    target: PullbackDiagram
    f1: ModuleMap
    f2: ModuleMap
    fbar: FpMatrix

    def __post_init__(self):
        source, target, fbar = self.source, self.target, self.fbar
        if source.p != target.p:
            raise ValueError("source and target have different p")
        if self.f1.source != source.M1 or self.f1.target != target.M1:
            raise ValueError("f1 does not run between the first components")
        if self.f2.source != source.M2 or self.f2.target != target.M2:
            raise ValueError("f2 does not run between the second components")
        if (fbar.rows, fbar.cols) != (target.mbar_dim, source.mbar_dim):
            raise ValueError("fbar has the wrong shape")
        p = source.p
        if fbar.p != p:
            raise ValueError("mixing different moduli")
        # target.p_i f_i = fbar source.p_i, compared entrywise mod p
        rights = per_side(
            lambda i, src: _mul_entries(p, fbar.entries, [src.column(j) for j in range(src.cols)]),
            (source.p1,),
            (source.p2,),
        )
        for i, f, right in zip((1, 2), (self.f1, self.f2), rights):
            left = _mul_entries(p, target.structure_map(i).entries, f.matrix.columns())
            if left != right:
                raise ValueError(f"square {i} does not commute")

    def component(self, i: int) -> ModuleMap:
        return self.f1 if i == 1 else self.f2

    def __repr__(self) -> str:
        return f"DiagramMorphism({self.source!r} -> {self.target!r})"
