"""Finitely generated abelian groups as presentations.

A module (over the integers) is stored as a generator count together with a
relation lattice inside the generator space: the group is
``Z^gens / relations``.  This single representation covers everything the
pipeline manipulates — free groups, ``(Z/p)^k``, and mixed groups like
``Z^a + (Z/p)^b`` — without a zoo of special-cased types.

Isomorphism classification happens through :meth:`ZModulePresentation.normal_form`,
which returns the free rank and the ascending chain of invariant factors
(Smith normal form of the relation matrix).  By the structure theorem this
pair is a complete isomorphism invariant, so comparing normal forms is how
all "these two constructions give the same module" checks are phrased.

Elements are coordinate vectors on the generators; two vectors represent
the same element exactly when their difference lies in the relation
lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Iterable, Sequence

from .intlinalg import (
    IntMatrix,
    Lattice,
    _snf_in_place,
    preimage_lattice,
)

__all__ = [
    "ZModulePresentation",
    "ModuleMap",
    "check_map",
]


@dataclass(frozen=True, slots=True)
class ZModulePresentation:
    """The abelian group ``Z^gens / relations``."""

    gens: int
    relations: Lattice
    _normal_form: tuple[int, tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.relations.ambient != self.gens:
            raise ValueError("relation lattice must live in the generator space")

    @staticmethod
    def free(n: int) -> "ZModulePresentation":
        return ZModulePresentation(n, Lattice.zero(n))

    @staticmethod
    def fp_elementary(p: int, n: int) -> "ZModulePresentation":
        """The group ``(Z/p)^n`` presented with relations ``p * e_i``."""
        return ZModulePresentation(n, Lattice.scaled_full(n, p))

    def normal_form(self) -> tuple[int, tuple[int, ...]]:
        """``(free_rank, invariant_factors)`` — a complete isomorphism invariant.

        Invariant factors are the Smith diagonal entries of the relation
        matrix that exceed 1, in ascending divisibility order.  The Smith
        form runs on the basis columns taken as rows, without transforms: a
        transpose has the same Smith diagonal.
        """
        cached = self._normal_form
        if cached is None:
            a = [list(col) for col in self.relations.basis]
            _snf_in_place(a, self.gens)
            # the basis is independent, so every diagonal entry is nonzero
            diag = [row[i] for i, row in enumerate(a)]
            cached = (self.gens - len(diag), tuple(d for d in diag if d > 1))
            object.__setattr__(self, "_normal_form", cached)
        return cached

    @property
    def free_rank(self) -> int:
        return self.normal_form()[0]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.normal_form()[1]

    def elements_equal(self, v: Sequence[int], w: Sequence[int]) -> bool:
        diff = [index(a) - index(b) for a, b in zip(v, w)]
        if len(diff) != self.gens:
            raise ValueError("element vectors have wrong length")
        return self.relations.contains(diff)

    def quotient_by(self, extra: Iterable[Sequence[int]]) -> "ZModulePresentation":
        """The quotient by the classes of ``extra``: one HNF of the relations and them."""
        rels = Lattice.from_generators(self.gens, [*self.relations.basis, *extra])
        return ZModulePresentation(self.gens, rels)

    def __repr__(self) -> str:
        rank, factors = self.normal_form()
        return f"ZModulePresentation(gens={self.gens}, rank={rank}, factors={list(factors)})"


@dataclass(frozen=True, slots=True, eq=False)
class ModuleMap:
    """A homomorphism between presented groups, as a matrix on generators.

    Well-definedness (relations map into relations) is verified by
    :func:`check_map` on every construction, so every ``ModuleMap`` is a
    homomorphism.  The kernel lattice is computed once per map and kept.
    """

    source: ZModulePresentation
    target: ZModulePresentation
    matrix: IntMatrix
    _kernel: Lattice | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = self.matrix
        if matrix.rows != self.target.gens or matrix.cols != self.source.gens:
            raise ValueError(
                f"matrix shape {matrix.rows}x{matrix.cols} does not map "
                f"{self.source.gens} generators to {self.target.gens}"
            )
        if not check_map(self):
            raise ValueError("map does not carry source relations into target relations")

    @staticmethod
    def identity(pres: ZModulePresentation) -> "ModuleMap":
        return ModuleMap(pres, pres, IntMatrix.identity(pres.gens))

    def kernel_lattice(self) -> Lattice:
        """All generator vectors whose image is zero in the target module."""
        cached = self._kernel
        if cached is None:
            cached = preimage_lattice(self.matrix, self.target.relations)
            object.__setattr__(self, "_kernel", cached)
        return cached

    def is_injective(self) -> bool:
        # The kernel lattice always contains the source relations; the map is
        # injective precisely when nothing else is in it.
        return self.kernel_lattice() == self.source.relations

    def is_surjective(self) -> bool:
        return self.cokernel().relations == Lattice.full(self.target.gens)

    def cokernel(self) -> ZModulePresentation:
        return self.target.quotient_by(self.matrix.columns())

    def __repr__(self) -> str:
        return f"ModuleMap({self.source!r} -> {self.target!r})"


def check_map(f: ModuleMap) -> bool:
    """True iff every source relation generator lands in the target relations."""
    return all(
        f.target.relations.contains(f.matrix.mul_vec(col))
        for col in f.source.relations.basis
    )

