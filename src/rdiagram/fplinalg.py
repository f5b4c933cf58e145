"""Linear algebra over the prime fields F_p.

Everything about the mod-p side of the package lives here: matrices with
entries reduced into ``[0, p)``, subspaces in canonical reduced row echelon
form, deterministic complements, and quotient projections.

Complements are always chosen deterministically: the complement of a
subspace is spanned by the standard basis vectors sitting at the non-pivot
columns of its echelon form, and relative complements extend a basis
greedily along the canonical basis of the larger space.  This keeps every
pipeline output byte-reproducible.

Integer lattices between ``p Z^n`` and ``Z^n`` are the lifts of subspaces
of F_p^n, and ``lift_span``/``lift_kernel`` build them from an echelon
form instead of an integer normal form: the RREF rows, with ``p e_i`` at
the non-pivot columns, are already the canonical column HNF basis.  They
trust the ``p`` they are given, which the caller has already validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .intlinalg import IntMatrix, Lattice

__all__ = [
    "validate_prime",
    "FpMatrix",
    "FpSubspace",
    "relative_complement",
    "quotient_projection",
    "lift_span",
    "lift_kernel",
]


def validate_prime(p: int) -> int:
    """Return ``p`` if it is a prime number, raise ``ValueError`` otherwise.

    Trial division, so the cost grows with the square root of ``p``; it
    runs on every construction of an object that carries ``p``.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"modulus must be an integer, got {p!r}")
    if p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime (divisible by {d})")
        d += 1
    return p


def _rref(p: int, rows: list[list[int]], width: int) -> tuple[list[list[int]], list[int]]:
    """In-place Gauss-Jordan over F_p; returns (rows, pivot columns)."""
    pivots: list[int] = []
    r = 0
    for c in range(width):
        src = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                if f:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _null_vectors(
    p: int, rows: Sequence[Sequence[int]], pivots: Sequence[int], width: int
) -> list[list[int]]:
    """A kernel basis read off an RREF: one vector per non-pivot column."""
    bound = set(pivots)
    basis = []
    for c in range(width):
        if c in bound:
            continue
        v = [0] * width
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][c] % p
        basis.append(v)
    return basis


def _lift_rref(p: int, ambient: int, rows: list[list[int]], pivots: list[int]) -> Lattice:
    """The lattice lift(span of the RREF ``rows``) + p Z^ambient, canonically.

    Column i is the row with pivot i, or ``p e_i`` where there is none.
    Pivots are 1 or p and increase; an RREF row is zero at the other
    pivots and in ``[0, p)`` elsewhere, so the entries beside each pivot
    are already reduced as the canonical column HNF requires.
    """
    basis = []
    r = 0
    for i in range(ambient):
        if r < len(pivots) and pivots[r] == i:
            basis.append(tuple(rows[r]))
            r += 1
        else:
            basis.append(tuple(p if t == i else 0 for t in range(ambient)))
    return Lattice(ambient, tuple(basis))


def lift_span(p: int, ambient: int, vecs: Iterable[Sequence[int]]) -> Lattice:
    """The integer lattice ``lift(span of vecs mod p) + p Z^ambient``.

    Equal to ``Lattice.from_generators`` on ``vecs`` and the ``p e_i``,
    read off one echelon form.  ``p`` must already be a validated prime.
    """
    rows = [[int(x) % p for x in v] for v in vecs]
    for v in rows:
        if len(v) != ambient:
            raise ValueError("vector has wrong length")
    rows, pivots = _rref(p, rows, ambient)
    return _lift_rref(p, ambient, rows, pivots)


def lift_kernel(p: int, rows: Iterable[Sequence[int]], width: int) -> Lattice:
    """The integer lattice ``{x in Z^width : A x = 0 mod p}``, A given by rows.

    Equal to ``preimage_lattice(A, Lattice.scaled_full(rows, p))``: the
    kernel of A over F_p, lifted and summed with ``p Z^width``.  ``p``
    must already be a validated prime.
    """
    a = [[int(x) % p for x in r] for r in rows]
    for r in a:
        if len(r) != width:
            raise ValueError("row has wrong length")
    a, pivots = _rref(p, a, width)
    kernel, pivots = _rref(p, _null_vectors(p, a, pivots, width), width)
    return _lift_rref(p, width, kernel, pivots)


@dataclass(frozen=True, slots=True)
class FpMatrix:
    """A dense immutable matrix over F_p with entries in ``[0, p)``."""

    p: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    _rref_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        p = validate_prime(self.p)
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")
        object.__setattr__(self, "entries", tuple(tuple(x % p for x in r) for r in self.entries))

    @staticmethod
    def from_rows(p: int, rows: Iterable[Sequence[int]], cols: int | None = None) -> "FpMatrix":
        data = tuple(tuple(int(x) for x in r) for r in rows)
        if data:
            width = len(data[0])
        else:
            width = 0 if cols is None else cols
        return FpMatrix(p, len(data), width if cols is None else cols, data)

    @staticmethod
    def from_int(M: IntMatrix, p: int) -> "FpMatrix":
        return FpMatrix(p, M.rows, M.cols, M.entries)

    @staticmethod
    def identity(p: int, n: int) -> "FpMatrix":
        return FpMatrix(p, n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "FpMatrix":
        return FpMatrix(p, rows, cols, tuple((0,) * cols for _ in range(rows)))

    def lift(self) -> IntMatrix:
        """Integer matrix with the least nonnegative residues as entries."""
        return IntMatrix(self.rows, self.cols, self.entries)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p:
            raise ValueError("mixing different moduli")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in multiplication")
        bcols = [other.column(j) for j in range(other.cols)]
        p = self.p
        entries = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % p for col in bcols)
            for row in self.entries
        )
        return FpMatrix(p, self.rows, other.cols, entries)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        p = self.p
        return tuple(sum(a * b for a, b in zip(row, v)) % p for row in self.entries)

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.p, self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

    def hstack(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.rows != other.rows:
            raise ValueError("hstack mismatch")
        return FpMatrix(
            self.p, self.rows, self.cols + other.cols,
            tuple(r + s for r, s in zip(self.entries, other.entries)),
        )

    def _rref(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        cached = self._rref_cache
        if cached is None:
            rows, pivots = _rref(self.p, [list(r) for r in self.entries], self.cols)
            cached = (tuple(tuple(r) for r in rows), tuple(pivots))
            object.__setattr__(self, "_rref_cache", cached)
        return cached

    def rank(self) -> int:
        return len(self._rref()[1])

    def kernel(self) -> "FpSubspace":
        """Solution space of ``Mx = 0`` as a subspace of F_p^cols."""
        rows, pivots = self._rref()
        return FpSubspace.from_vectors(
            self.p, self.cols, _null_vectors(self.p, rows, pivots, self.cols)
        )

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One solution of ``Mx = b`` (entries in ``[0, p)``), or ``None``."""
        if len(b) != self.rows:
            raise ValueError("right-hand side has wrong length")
        p = self.p
        aug = [list(r) + [int(bv) % p] for r, bv in zip(self.entries, b)]
        rows, pivots = _rref(p, aug, self.cols + 1)
        if self.cols in pivots:
            return None
        x = [0] * self.cols
        for r, c in enumerate(pivots):
            x[c] = rows[r][self.cols]
        return tuple(x)

    def inverse(self) -> "FpMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n, p = self.rows, self.p
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.entries)]
        rows, pivots = _rref(p, aug, 2 * n)
        if list(pivots[:n]) != list(range(n)):
            raise ValueError("matrix is singular")
        return FpMatrix(p, n, n, tuple(tuple(rows[i][n:]) for i in range(n)))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols}, {list(map(list, self.entries))})"


@dataclass(frozen=True, slots=True)
class FpSubspace:
    """A subspace of F_p^ambient stored by its reduced-row-echelon basis.

    The basis rows are in RREF with recorded pivot columns, which is a
    unique representation per subspace, so ``==`` is subspace equality.
    """

    p: int
    ambient: int
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...] = field(compare=False)

    def __post_init__(self):
        validate_prime(self.p)

    @staticmethod
    def from_vectors(p: int, ambient: int, vecs: Iterable[Sequence[int]]) -> "FpSubspace":
        rows = [[int(x) % p for x in v] for v in vecs]
        for v in rows:
            if len(v) != ambient:
                raise ValueError("vector has wrong length")
        rref_rows, pivots = _rref(p, rows, ambient)
        nonzero = tuple(tuple(r) for r in rref_rows[: len(pivots)])
        return FpSubspace(p, ambient, nonzero, tuple(pivots))

    @staticmethod
    def zero(p: int, ambient: int) -> "FpSubspace":
        return FpSubspace(p, ambient, (), ())

    @staticmethod
    def full(p: int, ambient: int) -> "FpSubspace":
        return FpSubspace.from_vectors(
            p, ambient, [[int(i == j) for j in range(ambient)] for i in range(ambient)]
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[int]) -> bool:
        return self.coords_in(v) is not None

    def coords_in(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Coefficients of ``v`` in the echelon basis, or ``None``.

        Rows of an RREF basis have a 1 in their own pivot column and 0 in
        every other pivot column, so the coefficients can be read off at
        the pivots and then verified.
        """
        p = self.p
        w = [int(x) % p for x in v]
        if len(w) != self.ambient:
            raise ValueError("vector has wrong length")
        coords = tuple(w[c] for c in self.pivots)
        residue = list(w)
        for coeff, row in zip(coords, self.basis):
            if coeff:
                residue = [(x - coeff * y) % p for x, y in zip(residue, row)]
        if any(residue):
            return None
        return coords

    def sum(self, other: "FpSubspace") -> "FpSubspace":
        self._check_compatible(other)
        return FpSubspace.from_vectors(self.p, self.ambient, self.basis + other.basis)

    def intersect(self, other: "FpSubspace") -> "FpSubspace":
        self._check_compatible(other)
        if not self.basis or not other.basis:
            return FpSubspace.zero(self.p, self.ambient)
        stacked = FpMatrix.from_rows(self.p, list(self.basis) + list(other.basis))
        ker = stacked.transpose().kernel()
        da = self.dim
        vecs = []
        for z in ker.basis:
            combo = [0] * self.ambient
            for coeff, row in zip(z[:da], self.basis):
                for i in range(self.ambient):
                    combo[i] = (combo[i] + coeff * row[i]) % self.p
            vecs.append(combo)
        return FpSubspace.from_vectors(self.p, self.ambient, vecs)

    def contains_subspace(self, other: "FpSubspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(v) for v in other.basis)

    def complement(self) -> "FpSubspace":
        """Deterministic complement: standard vectors at non-pivot columns."""
        vecs = []
        for c in range(self.ambient):
            if c not in self.pivots:
                v = [0] * self.ambient
                v[c] = 1
                vecs.append(v)
        return FpSubspace.from_vectors(self.p, self.ambient, vecs)

    def _check_compatible(self, other: "FpSubspace") -> None:
        if self.p != other.p or self.ambient != other.ambient:
            raise ValueError("subspaces live in different spaces")

    def __repr__(self) -> str:
        return f"FpSubspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"


def relative_complement(inner: FpSubspace, outer: FpSubspace) -> list[tuple[int, ...]]:
    """Vectors extending a basis of ``inner`` to one of ``outer``.

    Requires ``inner`` to be contained in ``outer``.  The result is the
    greedy selection along ``outer``'s canonical echelon basis, so it is
    deterministic.  Returns the added vectors (not their span): callers
    typically need the vectors themselves as chosen generators.
    """
    if not outer.contains_subspace(inner):
        raise ValueError("relative complement requires inner to lie inside outer")
    span = inner
    added: list[tuple[int, ...]] = []
    for v in outer.basis:
        if not span.contains(v):
            added.append(v)
            span = span.sum(FpSubspace.from_vectors(span.p, span.ambient, [v]))
    return added


def quotient_projection(W: FpSubspace) -> tuple[FpMatrix, FpMatrix]:
    """Maps realizing F_p^n / W as a literal coordinate space F_p^(n-d).

    Returns ``(proj, section)`` with ``proj`` of shape ``(n-d) x n`` and
    ``section`` of shape ``n x (n-d)``, such that ``ker proj = W``,
    ``proj @ section = identity``, and ``section`` embeds the quotient back
    via the deterministic complement of ``W``.
    """
    p, n = W.p, W.ambient
    comp = W.complement()
    d = W.dim
    cols = [list(v) for v in W.basis] + [list(v) for v in comp.basis]
    if len(cols) != n:
        raise ValueError("basis and complement do not fill the space")
    B = FpMatrix.from_rows(p, cols, cols=n).transpose() if cols else FpMatrix.zeros(p, n, 0)
    if n == 0:
        return FpMatrix.zeros(p, 0, 0), FpMatrix.zeros(p, 0, 0)
    Binv = B.inverse()
    proj = FpMatrix(p, n - d, n, Binv.entries[d:])
    section = FpMatrix.from_rows(p, [list(v) for v in comp.basis], cols=n).transpose() \
        if comp.basis else FpMatrix.zeros(p, n, 0)
    return proj, section
