"""Seeded random generation of modules, morphisms, and chain complexes.

Everything takes an explicit ``random.Random`` so runs are reproducible;
the self-test command and the statistical test suites are built on these.
The constructions guarantee their structural invariants by design (ring
closure, maps landing in their targets, d following d composing to zero)
rather than by rejection sampling.
"""

from __future__ import annotations

import random
from typing import Sequence

from .intlinalg import IntMatrix, Lattice
from .presentations import ModuleMap
from .fplinalg import FpMatrix
from .pullback import DiagramMorphism, LatticeRModule, _matching_lattice, separate
from .reduction import SeparatedPresentation, free_diagram
from .homology import congruent_kernel_lattice

__all__ = [
    "random_int_matrix",
    "random_unimodular",
    "rclose",
    "random_rmodule",
    "random_congruent_pair",
    "random_complex_differentials",
    "random_presentation",
]


def random_int_matrix(rng: random.Random, rows: int, cols: int, bound: int = 4) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_unimodular(rng: random.Random, n: int, ops: int = 12) -> IntMatrix:
    """A determinant +-1 matrix built from elementary row operations."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            rows[i] = [-x for x in rows[i]]
        else:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows, cols=n)


def _random_element(rng: random.Random, L: Lattice, bound: int) -> tuple[int, ...]:
    """An element of ``L``: one coefficient in ``[-bound, bound]`` per basis vector."""
    return L.basis_matrix().mul_vec([rng.randint(-bound, bound) for _ in L.basis])


def rclose(p: int, a: int, b: int, lat: Lattice) -> Lattice:
    """Smallest lattice containing ``lat`` closed under the (0,p)-action."""
    while True:
        shifted = [
            (0,) * a + tuple(p * t for t in col[a:]) for col in lat.basis
        ]
        bigger = lat.sum(Lattice.from_generators(a + b, shifted))
        if bigger == lat:
            return lat
        lat = bigger


def random_rmodule(
    rng: random.Random,
    p: int,
    a: int,
    b: int,
    max_gens: int = 3,
    bound: int = 3,
) -> LatticeRModule:
    n = rng.randint(0, max_gens)
    gens = [
        tuple(rng.randint(-bound, bound) for _ in range(a + b)) for _ in range(n)
    ]
    lat = rclose(p, a, b, Lattice.from_generators(a + b, gens))
    return LatticeRModule(p, a, b, lat)


def random_presentation(
    rng: random.Random,
    p: int,
    a: int = 2,
    b: int = 2,
    max_rank: int = 3,
    max_gens: int = 3,
    bound: int = 2,
) -> SeparatedPresentation:
    """A random map from a free diagram into a random separated diagram.

    Each generator of the free source is sent to a random element of the
    target's pullback module, so the commuting squares hold by
    construction and the cokernel is a random module.
    """
    sep = separate(random_rmodule(rng, p, a, b, max_gens=max_gens))
    D = sep.diagram
    matching = _matching_lattice(D.p1, D.p2)
    ell = rng.randint(0, max_rank)
    g1, g2 = D.M1.gens, D.M2.gens
    cols1, cols2 = [], []
    for _ in range(ell):
        total = _random_element(rng, matching, bound)
        cols1.append(total[:g1])
        cols2.append(total[g1:])
    K = free_diagram(p, ell)
    m1 = IntMatrix.from_cols(cols1, rows=g1)
    m2 = IntMatrix.from_cols(cols2, rows=g2)
    f1 = ModuleMap(K.M1, D.M1, m1)
    f2 = ModuleMap(K.M2, D.M2, m2)
    fbar = D.p1 @ FpMatrix.from_int(m1, p)
    return SeparatedPresentation(DiagramMorphism(K, D, f1, f2, fbar))


def random_congruent_pair(
    rng: random.Random, p: int, rows: int, cols: int, bound: int = 4
) -> tuple[IntMatrix, IntMatrix]:
    """Matrices (d1, d2) with d1 = d2 mod p."""
    d1 = random_int_matrix(rng, rows, cols, bound)
    shift = random_int_matrix(rng, rows, cols, 1)
    d2 = d1 + shift.scale(p)
    return d1, d2


def random_complex_differentials(
    rng: random.Random,
    p: int,
    sizes: Sequence[int],
    bound: int = 2,
) -> list[tuple[IntMatrix, IntMatrix]]:
    """Differential pairs for C^0 -> C^1 -> ... with d(k+1) d(k) = 0.

    The last differential is free-random; each earlier one has its column
    pairs drawn from the kernel lattice of the next, so both compositions
    vanish over Z and the mod-p congruence holds throughout.
    """
    n = len(sizes)
    if n < 2:
        return []
    diffs: list[tuple[IntMatrix, IntMatrix] | None] = [None] * (n - 1)
    diffs[n - 2] = random_congruent_pair(rng, p, sizes[n - 1], sizes[n - 2], bound)
    for k in range(n - 3, -1, -1):
        pairs = congruent_kernel_lattice(p, *diffs[k + 1])
        m = sizes[k + 1]
        cols1, cols2 = [], []
        for _ in range(sizes[k]):
            total = _random_element(rng, pairs, bound)
            cols1.append(total[:m])
            cols2.append(total[m:])
        diffs[k] = (
            IntMatrix.from_cols(cols1, rows=m),
            IntMatrix.from_cols(cols2, rows=m),
        )
    return [d for d in diffs if d is not None]
