"""Linear algebra over the prime fields F_p.

Everything about the mod-p side of the package lives here: matrices with
entries reduced into ``[0, p)``, subspaces in canonical reduced row echelon
form, deterministic complements, and quotient projections.

Complements are always chosen deterministically: the complement of a
subspace is spanned by the standard basis vectors sitting at the non-pivot
columns of its echelon form, and relative complements extend a basis
greedily along the canonical basis of the larger space.  This keeps every
pipeline output byte-reproducible.

Derived objects are read off one echelon form each, with no second
elimination: the complement and the quotient projection come straight
from a subspace's stored RREF, an intersection from one elimination of
the rows ``(a | a)`` and ``(b | 0)``, and a kernel from one elimination of
the matrix with its columns reversed, whose null vectors are then already
in RREF.  Each result has a unique form (an RREF, or the inverse of a
fixed basis), so it is the same object the longer constructions built.

The prime is checked once, where a bare ``p`` enters, and the proof is
carried in its type: ``validate_prime`` returns a private ``int``
subclass, and given a value of exactly that type it returns at once.  A
function that takes a bare ``p`` (``from_int``, ``identity``,
``from_vectors`` and the pipeline's entry points) runs
``p = validate_prime(p)`` and passes the result on, so every value it
builds carries the checked ``p`` and no later check divides again.  The
dataclass constructors (``FpMatrix(...)``, ``FpSubspace(...)`` and the
diagrams built on them) check their ``p`` and keep it as given.
``from_int`` still reduces its entries mod p.  A value computed from F_p
values that already exist (a product, a kernel, a sum, an intersection,
a complement, a quotient projection) takes its ``p`` from them, has its
entries in ``[0, p)`` by construction, and is built by the private
``_derived`` constructors without the check, the ``% p`` pass or the
memo set-up.

So one degree of ``homology_rdiagram`` runs one trial division, in
``canonical_kernel_presentation``.  ``ChainComplexR`` keeps its ``p`` as
given, so each degree divides once again.  Storing the checked value
there would remove that division, but the benchmark keeps every op's
output, and the extra ops would raise its peak memory past its bound;
that step waits until the benchmark stops keeping outputs.

``validate_prime`` is trial division, so it rejects any ``p >= 2**32``
before dividing: below that bound one call costs at most about 65 000
divisions, and a larger modulus fails at once instead of starting a loop
whose length grows with its square root.

Integer lattices between ``p Z^n`` and ``Z^n`` are the lifts of subspaces
of F_p^n, and ``lift_span``/``lift_kernel`` build them from an echelon
form instead of an integer normal form: the RREF rows, with ``p e_i`` at
the non-pivot columns, are already the canonical column HNF basis.  They
trust the ``p`` they are given, which the caller has already validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Sequence

from .intlinalg import IntMatrix, Lattice

__all__ = [
    "PRIME_BOUND",
    "validate_prime",
    "FpMatrix",
    "FpSubspace",
    "relative_complement",
    "quotient_projection",
    "lift_span",
    "lift_kernel",
]


PRIME_BOUND = 2**32


class _Prime(int):
    """An ``int`` that ``validate_prime`` has proven prime; nothing else builds one."""

    __slots__ = ()


def validate_prime(p: int) -> int:
    """Return ``p`` checked: a prime below ``PRIME_BOUND``, else raise ``ValueError``.

    The value returned is a private ``int`` subclass that equals ``p`` and
    prints like it; given a value of exactly that type, the function
    returns it at once.  Otherwise it runs trial division, so the cost
    grows with the square root of ``p``; the bound, checked before any
    division, caps one call at about 65 000 divisions.  A caller that
    takes a bare ``p`` runs ``p = validate_prime(p)`` and passes the result
    on, so one ``homology_rdiagram`` degree divides once.
    """
    if type(p) is _Prime:
        return p
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"modulus must be an integer, got {p!r}")
    if p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    if p >= PRIME_BOUND:
        raise ValueError(f"modulus {p} is too large: primes must be below 2**32")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime (divisible by {d})")
        d += 1
    return _Prime(p)


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


def _kernel_rref(p: int, rows: list[list[int]], width: int) -> tuple[list[list[int]], list[int]]:
    """The RREF basis of ``{x : A x = 0}`` over F_p and its pivots.

    ``rows`` are A's rows, reduced mod p; they are reversed in place and
    brought to RREF, one elimination in all.  With the columns reversed,
    the null vector of a free column c has its 1 at c and its other
    entries only at pivot columns to the right of c in the original
    order.  So, taken by increasing c, the null vectors are already in
    RREF with the free columns as pivots.
    """
    for r in rows:
        r.reverse()
    rows, pivots = _rref(p, rows, width)
    top = width - 1
    bound = set(pivots)
    basis, free = [], []
    for c in range(width):
        rc = top - c
        if rc in bound:
            continue
        v = [0] * width
        v[c] = 1
        for row, pc in zip(rows, pivots):
            if pc > rc:
                break
            if row[rc]:
                v[top - pc] = p - row[rc]
        basis.append(v)
        free.append(c)
    return basis, free


def _mul_entries(p: int, a, b, cols: int) -> tuple[tuple[int, ...], ...]:
    """The entries of the product of two entry grids, reduced into ``[0, p)``.

    ``b`` has ``cols`` columns; the inner dimensions must agree.
    """
    bcols = [tuple(r[j] for r in b) for j in range(cols)]
    return tuple(tuple(sum(map(mul, row, col)) % p for col in bcols) for row in a)


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
    return _lift_rref(p, width, *_kernel_rref(p, a, width))


@dataclass(frozen=True, slots=True)
class FpMatrix:
    """A dense immutable matrix over F_p with entries in ``[0, p)``."""

    p: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    _rank: int | None = field(default=None, init=False, repr=False, compare=False)
    _kernel: FpSubspace | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        p = validate_prime(self.p)
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")
        object.__setattr__(self, "entries", tuple(tuple(x % p for x in r) for r in self.entries))

    @staticmethod
    def _derived(p: int, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> "FpMatrix":
        """A matrix over an already-validated ``p``, built without checks.

        ``p`` was validated when the values or the object it was read from
        were built, and the caller produces ``entries`` of the given shape
        in ``[0, p)``.
        """
        M = object.__new__(FpMatrix)
        object.__setattr__(M, "p", p)
        object.__setattr__(M, "rows", rows)
        object.__setattr__(M, "cols", cols)
        object.__setattr__(M, "entries", entries)
        object.__setattr__(M, "_rank", None)
        object.__setattr__(M, "_kernel", None)
        return M

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
        p = validate_prime(p)
        entries = tuple(tuple(x % p for x in r) for r in M.entries)
        return FpMatrix._derived(p, M.rows, M.cols, entries)

    @staticmethod
    def identity(p: int, n: int) -> "FpMatrix":
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return FpMatrix._derived(validate_prime(p), n, n, entries)

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
        p = self.p
        entries = _mul_entries(p, self.entries, other.entries, other.cols)
        return FpMatrix._derived(p, self.rows, other.cols, entries)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        p = self.p
        return tuple(sum(map(mul, row, v)) % p for row in self.entries)

    def kernel(self) -> "FpSubspace":
        """Solution space of ``Mx = 0`` as a subspace of F_p^cols."""
        cached = self._kernel
        if cached is None:
            basis, free = _kernel_rref(self.p, [list(r) for r in self.entries], self.cols)
            cached = FpSubspace._derived(self.p, self.cols, tuple(map(tuple, basis)), tuple(free))
            object.__setattr__(self, "_kernel", cached)
        return cached

    def rank(self) -> int:
        # kept as a number: a wide matrix's kernel is larger than the matrix
        cached = self._rank
        if cached is None:
            cached = len(_rref(self.p, [list(r) for r in self.entries], self.cols)[1])
            object.__setattr__(self, "_rank", cached)
        return cached

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One solution of ``Mx = b`` (entries in ``[0, p)``), or ``None``."""
        return self.solve_many([b])[0]

    def solve_many(self, rhs: Sequence[Sequence[int]]) -> list[tuple[int, ...] | None]:
        """``solve`` for each right-hand side, from one elimination.

        Gauss-Jordan runs once on ``[M | b_1 ... b_k]``, with pivots taken
        only among M's columns; the row operations, and so the solutions,
        are those ``solve`` would make for each b alone.  Returns one
        solution (entries in ``[0, p)``) or ``None`` per right-hand side.
        """
        for b in rhs:
            if len(b) != self.rows:
                raise ValueError("right-hand side has wrong length")
        if not rhs:
            return []
        p, n = self.p, self.cols
        aug = [list(r) + [int(b[i]) % p for b in rhs] for i, r in enumerate(self.entries)]
        rows, pivots = _rref(p, aug, n)
        rank = len(pivots)
        out: list[tuple[int, ...] | None] = []
        for j in range(n, n + len(rhs)):
            if any(row[j] for row in rows[rank:]):
                out.append(None)
                continue
            x = [0] * n
            for row, c in zip(rows, pivots):
                x[c] = row[j]
            out.append(tuple(x))
        return out

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols}, {list(map(list, self.entries))})"


@dataclass(frozen=True, slots=True)
class FpSubspace:
    """A subspace of F_p^ambient stored by its reduced-row-echelon basis.

    The basis rows are in RREF with recorded pivot columns, which is a
    unique representation per subspace, so ``==`` is subspace equality.
    The constructor checks that form: a nonnegative ambient dimension,
    rows of that length with entries in ``[0, p)``, and increasing pivots
    at which the rows are 1, with zeros before and at the other pivots.
    """

    p: int
    ambient: int
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...] = field(compare=False)

    def __post_init__(self):
        p, n, pivots = validate_prime(self.p), self.ambient, self.pivots
        if n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if (
            len(pivots) != len(self.basis)
            or any(not 0 <= c < n for c in pivots)
            or any(a >= b for a, b in zip(pivots, pivots[1:]))
        ):
            raise ValueError("pivots must be increasing columns, one per basis row")
        for row, c in zip(self.basis, pivots):
            if len(row) != n:
                raise ValueError("basis row has wrong length")
            if any(not 0 <= x < p for x in row):
                raise ValueError("basis entries must lie in [0, p)")
            if row[c] != 1 or any(row[:c]) or any(row[d] for d in pivots if d != c):
                raise ValueError("basis is not in reduced row echelon form at its pivots")

    @staticmethod
    def _derived(
        p: int, ambient: int, basis: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]
    ) -> "FpSubspace":
        """A subspace over an already-validated ``p``, built without checks.

        ``p`` was validated when the values or the object it was read from
        were built, and the caller produces ``basis`` as an RREF over F_p
        with the given ``pivots``.
        """
        W = object.__new__(FpSubspace)
        object.__setattr__(W, "p", p)
        object.__setattr__(W, "ambient", ambient)
        object.__setattr__(W, "basis", basis)
        object.__setattr__(W, "pivots", pivots)
        return W

    @staticmethod
    def from_vectors(p: int, ambient: int, vecs: Iterable[Sequence[int]]) -> "FpSubspace":
        p = validate_prime(p)
        if ambient < 0:
            raise ValueError("ambient dimension must be nonnegative")
        rows = [[int(x) % p for x in v] for v in vecs]
        for v in rows:
            if len(v) != ambient:
                raise ValueError("vector has wrong length")
        rref_rows, pivots = _rref(p, rows, ambient)
        nonzero = tuple(tuple(r) for r in rref_rows[: len(pivots)])
        return FpSubspace._derived(p, ambient, nonzero, tuple(pivots))

    @staticmethod
    def zero(p: int, ambient: int) -> "FpSubspace":
        return FpSubspace(p, ambient, (), ())

    @staticmethod
    def full(p: int, ambient: int) -> "FpSubspace":
        return FpSubspace.zero(p, ambient).complement()

    @staticmethod
    def _spanned_by_units(p: int, ambient: int, cols: Iterable[int]) -> "FpSubspace":
        """The span of the e_c for increasing ``cols``: these rows are an RREF.

        ``p`` must already be validated.
        """
        cols = tuple(cols)
        basis = tuple(tuple(int(t == c) for t in range(ambient)) for c in cols)
        return FpSubspace._derived(p, ambient, basis, cols)

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
        if not other.basis:
            return self
        if not self.basis:
            return other
        p, n = self.p, self.ambient
        rows, pivots = _rref(p, [list(v) for v in self.basis + other.basis], n)
        return FpSubspace._derived(p, n, tuple(map(tuple, rows[: len(pivots)])), tuple(pivots))

    def intersect(self, other: "FpSubspace") -> "FpSubspace":
        """``self ∩ other`` from one elimination (Zassenhaus).

        The rows ``(a | a)`` and ``(b | 0)`` span the pairs ``(a + b, a)``;
        in their RREF, the rows with zero left half span the pairs
        ``(0, a)`` with a in both spaces, and their right halves are
        already the RREF of the intersection.
        """
        self._check_compatible(other)
        if not self.basis or not other.basis:
            return FpSubspace._derived(self.p, self.ambient, (), ())
        n = self.ambient
        rows = [list(a + a) for a in self.basis] + [list(b) + [0] * n for b in other.basis]
        rows, pivots = _rref(self.p, rows, 2 * n)
        first = next((r for r, c in enumerate(pivots) if c >= n), len(pivots))
        return FpSubspace._derived(
            self.p,
            n,
            tuple(tuple(row[n:]) for row in rows[first : len(pivots)]),
            tuple(c - n for c in pivots[first:]),
        )

    def contains_subspace(self, other: "FpSubspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(v) for v in other.basis)

    def complement(self) -> "FpSubspace":
        """Deterministic complement: standard vectors at non-pivot columns."""
        return FpSubspace._spanned_by_units(self.p, self.ambient, self._free_columns())

    def _free_columns(self) -> list[int]:
        bound = set(self.pivots)
        return [c for c in range(self.ambient) if c not in bound]

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
    p = inner.p
    # echelon rows of the span so far, by pivot; each row is 1 at its pivot
    # and 0 before it, so reducing by increasing pivot clears every pivot
    echelon = dict(zip(inner.pivots, inner.basis))
    added: list[tuple[int, ...]] = []
    for v in outer.basis:
        w = list(v)
        for c in range(inner.ambient):
            f = w[c]
            if not f:
                continue
            row = echelon.get(c)
            if row is None:
                inv = pow(f, p - 2, p)
                echelon[c] = [x * inv % p for x in w]
                added.append(v)
                break
            w = [(x - f * y) % p for x, y in zip(w, row)]
    return added


def quotient_projection(W: FpSubspace) -> tuple[FpMatrix, FpMatrix]:
    """Maps realizing F_p^n / W as a literal coordinate space F_p^(n-d).

    Returns ``(proj, section)`` with ``proj`` of shape ``(n-d) x n`` and
    ``section`` of shape ``n x (n-d)``, such that ``ker proj = W``,
    ``proj @ section = identity``, and ``section`` embeds the quotient back
    via the deterministic complement of ``W``.
    """
    p, n = W.p, W.ambient
    free = W._free_columns()
    # x = sum_r x[pivot_r] w_r + sum_c b_c e_c, so b_c = x[c] - sum_r w_r[c] x[pivot_r]
    proj_rows = []
    for c in free:
        row = [0] * n
        row[c] = 1
        for w, pc in zip(W.basis, W.pivots):
            if w[c]:
                row[pc] = p - w[c]
        proj_rows.append(tuple(row))
    section_rows = [[0] * len(free) for _ in range(n)]
    for j, c in enumerate(free):
        section_rows[c][j] = 1
    return (
        FpMatrix._derived(p, len(free), n, tuple(proj_rows)),
        FpMatrix._derived(p, n, len(free), tuple(map(tuple, section_rows))),
    )
