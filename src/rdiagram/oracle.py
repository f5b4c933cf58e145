"""Brute-force underlying-group invariants, independent of the reductions.

Everything here works with raw lattices in generator coordinates and a
single Smith normal form at the end.  None of the diagram-quotient or
matching machinery is used, so agreement between these invariants and
the reduction pipeline is evidence for both.  The contract is abelian
group isomorphism only — a necessary condition for module isomorphism
that is exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import IntMatrix, Lattice, kernel_basis, snf
from .pullback import PullbackDiagram
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
    """Invariants of num/den for lattices den within num."""
    coords = []
    for g in den.basis:
        c = num.solve(g)
        if c is None:
            raise ValueError("denominator lattice is not contained in the numerator")
        coords.append(c)
    rank = num.rank
    rel = IntMatrix.from_cols(coords, rows=rank)
    _, D, _ = snf(rel)
    diag = [D.entries[i][i] for i in range(min(D.rows, D.cols))]
    nonzero = [d for d in diag if d]
    return GroupInvariants(rank - len(nonzero), [d for d in nonzero if d > 1])


def _congruence_lattice(D: PullbackDiagram) -> Lattice:
    """Pairs of generator coordinates whose bar images agree, plus torsion.

    The underlying group of the pullback of D is this lattice modulo the
    direct sum of the two relation lattices.
    """
    g1, g2 = D.M1.gens, D.M2.gens
    stacked = D.p1.lift().hstack(D.p2.lift().scale(-1))
    if D.mbar_dim == 0:
        pairs = Lattice.full(g1 + g2)
    else:
        aux = stacked.hstack(IntMatrix.identity(D.mbar_dim).scale(-D.p))
        sols = kernel_basis(aux)
        pairs = Lattice.from_generators(
            g1 + g2, [v[: g1 + g2] for v in sols.basis]
        )
    return pairs


def _relation_pairs(D: PullbackDiagram) -> Lattice:
    return D.M1.relations.direct_sum(D.M2.relations)


def underlying_invariants_of_presentation(
    pres: SeparatedPresentation,
) -> GroupInvariants:
    """Group invariants of coker(f) = S/f(K), computed from raw lattices.

    Elements of the pullback of a diagram are congruent coordinate pairs
    modulo relation pairs; the image of f is generated by the images of
    the source's congruent pairs under the block map (f1, f2).
    """
    S, K = pres.S, pres.K
    num = _congruence_lattice(S)
    ck = _congruence_lattice(K)
    g1 = S.M1.gens
    k1 = K.M1.gens
    image = [
        tuple(pres.f1.matrix.mul_vec(v[:k1])) + tuple(pres.f2.matrix.mul_vec(v[k1:]))
        for v in ck.basis
    ]
    den = _relation_pairs(S).sum(Lattice.from_generators(g1 + S.M2.gens, image))
    return _quotient_invariants(num, den)


def underlying_invariants_of_rdiagram(rd: RDiagram) -> GroupInvariants:
    """Group invariants of pullback(S) modulo the diagonal image of K."""
    report = validate_rdiagram(rd)
    if not report.ok:
        raise ValueError(f"invalid R-diagram: {report.failed()}")
    num = _congruence_lattice(rd.S)
    g1, g2 = rd.S.M1.gens, rd.S.M2.gens
    diag = [
        tuple(rd.q1.column(r)) + tuple(rd.q2.column(r)) for r in range(rd.kdim)
    ]
    den = _relation_pairs(rd.S).sum(Lattice.from_generators(g1 + g2, diag))
    return _quotient_invariants(num, den)


def _pair_kernel(p: int, d1: IntMatrix, d2: IntMatrix) -> Lattice:
    """Solutions of d1 u = 0, d2 v = 0, u = v mod p as a lattice in Z^{2m}.

    Solved via an auxiliary unknown w with u - v = p w, then projected;
    w is determined by (u, v), so the projection is exact.
    """
    m = d1.cols
    zero = IntMatrix.zeros(d1.rows, m)
    eye = IntMatrix.identity(m)
    top = d1.hstack(zero).hstack(IntMatrix.zeros(d1.rows, m))
    mid = zero.hstack(d2).hstack(IntMatrix.zeros(d2.rows, m))
    bot = eye.hstack(eye.scale(-1)).hstack(eye.scale(-p))
    sols = kernel_basis(top.vstack(mid).vstack(bot))
    return Lattice.from_generators(2 * m, [v[: 2 * m] for v in sols.basis])


def integer_homology_invariants(C, n: int) -> GroupInvariants:
    """Degreewise homology invariants of the underlying integer complex.

    The term in each degree is the group of congruent pairs in
    Z^m + Z^m; the differential acts blockwise.  Kernel and image are
    plain lattices and the quotient is a single SNF computation.
    """
    if not 0 <= n < C.terms:
        raise ValueError(f"degree {n} outside the complex (0..{C.terms - 1})")
    p = C.p
    dout1, dout2 = C.pair(n)
    din1, din2 = C.pair(n - 1)
    ker = _pair_kernel(p, dout1, dout2)
    ell = din1.cols
    dom = _pair_kernel(p, IntMatrix.zeros(0, ell), IntMatrix.zeros(0, ell))
    m = dout1.cols
    image = [
        tuple(din1.mul_vec(v[:ell])) + tuple(din2.mul_vec(v[ell:]))
        for v in dom.basis
    ]
    return _quotient_invariants(ker, Lattice.from_generators(2 * m, image))
