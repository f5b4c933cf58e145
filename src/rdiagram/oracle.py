"""Brute-force underlying-group invariants, independent of the reductions.

Everything here works with raw lattices in generator coordinates.  Each
group is ``num / den``: ``num`` is one ``preimage_lattice`` (the
congruent coordinate pairs, or the pairs a differential kills), ``den``
is one ``Lattice.from_generators`` over the relation pairs and the image
generators, and the group is read off one Smith diagonal computed
without transforms.  The oracle stays on the integer route: it uses
``intlinalg``'s kernels and nothing of ``fplinalg`` or of the
diagram-quotient and matching machinery, so agreement between these
invariants and the reduction pipeline is evidence for both.  The
contract is abelian group isomorphism only — a necessary condition for
module isomorphism that is exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import IntMatrix, Lattice, _snf_in_place, preimage_lattice
from .pullback import PullbackDiagram, per_side
from .reduction import RDiagram, SeparatedPresentation, validate_rdiagram

__all__ = [
    "GroupInvariants",
    "underlying_invariants_of_presentation",
    "underlying_invariants_of_rdiagram",
    "invariants_equal",
    "integer_homology_invariants",
]


@dataclass(frozen=True, slots=True)
class GroupInvariants:
    """Free rank and ascending divisibility chain of invariant factors."""

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(d) for d in self.invariant_factors)
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(d <= 1 for d in factors):
            raise ValueError("invariant factors must exceed 1")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", factors)

    def __repr__(self) -> str:
        return f"GroupInvariants({self.free_rank}, {list(self.invariant_factors)})"


def invariants_equal(a: GroupInvariants, b: GroupInvariants) -> bool:
    return a == b


def _quotient_invariants(num: Lattice, den: Lattice) -> GroupInvariants:
    """Invariants of num/den for lattices den within num: one Smith diagonal.

    The Smith form runs without transforms on den's basis in num's
    coordinates, taken as rows (a transpose has the same diagonal).  Both
    bases are independent, so every diagonal entry is nonzero.
    """
    rows = []
    for g in den.basis:
        c = num.solve(g)
        if c is None:
            raise ValueError("denominator lattice is not contained in the numerator")
        rows.append(list(c))
    _snf_in_place(rows, num.rank)
    diag = [row[i] for i, row in enumerate(rows)]
    return GroupInvariants(num.rank - len(diag), [d for d in diag if d > 1])


def _congruence_lattice(D: PullbackDiagram) -> Lattice:
    """Pairs (x, y) of generator coordinates with P1 x = P2 y mod p.

    The preimage of p Z^mbar under [P1 | -P2].  With mbar = 0 every pair
    qualifies, and the preimage would cost a normal form of an identity.
    """
    if not D.mbar_dim:
        return Lattice.full(D.M1.gens + D.M2.gens)
    lift1, lift2 = per_side(lambda i, q: q.lift(), (D.p1,), (D.p2,))
    stacked = lift1.hstack(lift2.scale(-1))
    return preimage_lattice(stacked, Lattice.scaled_full(D.mbar_dim, D.p))


def _pullback_invariants(D: PullbackDiagram, image: list) -> GroupInvariants:
    """Invariants of the pullback of D modulo the subgroup that ``image`` generates.

    The pullback is the congruent pairs modulo the relation pairs, so the
    denominator is one lattice over the relation pairs and ``image``.
    """
    g1, g2 = D.M1.gens, D.M2.gens
    gens = [col + (0,) * g2 for col in D.M1.relations.basis]
    gens += [(0,) * g1 + col for col in D.M2.relations.basis]
    den = Lattice.from_generators(g1 + g2, gens + image)
    return _quotient_invariants(_congruence_lattice(D), den)


def underlying_invariants_of_presentation(
    pres: SeparatedPresentation,
) -> GroupInvariants:
    """Group invariants of coker(f) = S/f(K), computed from raw lattices.

    The image of f is generated by the images of the source's congruent
    pairs under the block map (f1, f2).
    """
    k1 = pres.K.M1.gens
    image = [
        pres.f1.matrix.mul_vec(v[:k1]) + pres.f2.matrix.mul_vec(v[k1:])
        for v in _congruence_lattice(pres.K).basis
    ]
    return _pullback_invariants(pres.S, image)


def underlying_invariants_of_rdiagram(rd: RDiagram) -> GroupInvariants:
    """Group invariants of pullback(S) modulo the diagonal image of K."""
    report = validate_rdiagram(rd)
    if not report.ok:
        raise ValueError(f"invalid R-diagram: {report.failed()}")
    diag = [rd.q1.column(r) + rd.q2.column(r) for r in range(rd.kdim)]
    return _pullback_invariants(rd.S, diag)


def _pair_kernel(p: int, d1: IntMatrix, d2: IntMatrix) -> Lattice:
    """Pairs (u, v) in Z^m + Z^m with d1 u = 0, d2 v = 0 and u = v mod p.

    The preimage of 0 + 0 + p Z^m under the block matrix (d1 u, d2 v, u - v);
    that target's basis p e_i is already canonical.
    """
    m, r = d1.cols, d1.rows + d2.rows
    unit = IntMatrix.identity(m).columns()
    cols = [c + (0,) * d2.rows + e for c, e in zip(d1.columns(), unit)]
    cols += [(0,) * d1.rows + c + tuple(-x for x in e) for c, e in zip(d2.columns(), unit)]
    target = tuple(tuple(p * int(i == r + j) for i in range(r + m)) for j in range(m))
    return preimage_lattice(IntMatrix(r + m, 2 * m, tuple(cols)), Lattice(r + m, target))


def integer_homology_invariants(C, n: int) -> GroupInvariants:
    """Degreewise homology invariants of the underlying integer complex.

    The term in each degree is the group of congruent pairs in
    Z^m + Z^m; the differential acts blockwise.  The image is generated
    by the images of the basis (e_i, e_i), (0, p e_i) of the congruent
    pairs one degree down, so it needs no kernel.
    """
    if not 0 <= n < C.terms:
        raise ValueError(f"degree {n} outside the complex (0..{C.terms - 1})")
    p = C.p
    dout1, dout2 = C.pair(n)
    din1, din2 = C.pair(n - 1)
    m = dout1.cols
    image = [a + b for a, b in zip(din1.columns(), din2.columns())]
    image += [(0,) * m + tuple(p * x for x in b) for b in din2.columns()]
    return _quotient_invariants(_pair_kernel(p, dout1, dout2), Lattice.from_generators(2 * m, image))
