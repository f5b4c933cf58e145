"""Constructors and arithmetic that only the tests use, built from the package's public API.

The pipeline never needs an identity map, the free R-module as a lattice
module, an R-diagram wrapped back into a presentation or a factorisation
into prime powers, so these live here rather than in ``rdiagram``.
"""

import itertools

from rdiagram.fplinalg import FpMatrix
from rdiagram.intlinalg import IntMatrix
from rdiagram.presentations import ModuleMap, ZModulePresentation
from rdiagram.pullback import DiagramMorphism, LatticeRModule, PullbackDiagram
from rdiagram.reduction import RDiagram, SeparatedPresentation


def identity_map(pres: ZModulePresentation) -> ModuleMap:
    return ModuleMap(pres, pres, IntMatrix.identity(pres.gens))


def identity_morphism(D: PullbackDiagram) -> DiagramMorphism:
    return DiagramMorphism(
        D, D, identity_map(D.M1), identity_map(D.M2), FpMatrix.identity(D.p, D.mbar_dim)
    )


def free_rmodule(p: int, rank: int) -> LatticeRModule:
    """R^rank, embedded in Z^rank + Z^rank with basis (e_i, e_i), (0, p e_i)."""
    gens = []
    for i in range(rank):
        e = [int(j == i) for j in range(rank)]
        gens.append(e + e)
        gens.append([0] * rank + [p * x for x in e])
    return LatticeRModule.from_generators(p, rank, rank, gens)


def rdiagram_as_presentation(rd: RDiagram) -> SeparatedPresentation:
    """Re-wrap an R-diagram as a separated presentation with K = ((Z/p)^k, F_p^k, (Z/p)^k)."""
    p, k, S = rd.p, rd.kdim, rd.S
    E = ZModulePresentation.fp_elementary(p, k)
    eye = FpMatrix.identity(p, k)
    K = PullbackDiagram(p, E, E, k, eye, eye)
    fbar = FpMatrix.zeros(p, S.mbar_dim, k)
    morphism = DiagramMorphism(K, S, ModuleMap(E, S.M1, rd.q1), ModuleMap(E, S.M2, rd.q2), fbar)
    return SeparatedPresentation(morphism)


def prime_powers(n: int, p: int) -> list:
    """The prime powers whose product is ``n >= 1``, sorted; the prime ``p`` is divided out first."""
    powers = []
    for d in itertools.chain((p,), itertools.count(2)):
        if d * d > n and d != p:
            break
        q = 1
        while n % d == 0:
            n //= d
            q *= d
        if q > 1:
            powers.append(q)
    if n > 1:
        powers.append(n)
    return sorted(powers)
