"""Exact linear algebra over the integers: matrices, normal forms, lattices.

This module is the computational substrate for the whole package.  All
arithmetic uses Python's arbitrary-precision integers; there is no floating
point anywhere and no dependency outside the standard library.

Conventions the rest of the package relies on:

* ``IntMatrix`` is immutable and dense, with explicit ``rows``/``cols`` so
  that degenerate shapes (``0 x n``, ``n x 0``) survive round trips.  It
  is stored by columns, like the kernels below, ``Lattice`` bases and
  generator families; ``M @ v`` reads only the columns with a nonzero
  coefficient.  Rows are derived, by ``from_rows`` and ``entries``, only
  for JSON and for the F_p side, whose rows are the equations it eliminates.
* ``hnf`` computes a *column* Hermite normal form ``H = M @ U`` with ``U``
  unimodular.  Pivots are positive, pivot rows increase strictly from left
  to right, entries to the left of a pivot (in the pivot's own row) are
  reduced into ``[0, pivot)``, and zero columns are pushed to the right.
  This form is unique per column span, which is what makes ``Lattice``
  values directly comparable with ``==``.
* One column-major kernel computes that form in place on a list of column
  lists.  It clears each row by a Euclid pass that reduces every
  unfinished column by the one with the smallest nonzero entry in the row
  (nearest-integer quotients), which keeps intermediate entries small, then
  normalises the pivot as above, so the canonical form is unchanged.
  Every caller passes columns in and reads columns out, and the kernel
  never carries a transform: ``hnf``, ``factor_modulo`` and
  ``preimage_lattice`` stack the identity below the matrix and read the
  transform off that block.  ``kernel_basis``, ``lattice_intersection``
  and ``preimage_lattice`` keep only the columns with no pivot in a
  stacked top block, so the kernel skips the pivot-row reductions of the
  other columns.
* Lattices between ``p Z^n`` and ``Z^n`` (separatedness, matching pairs,
  congruence mod p, the combined reduction's sub-diagram) are built in
  ``fplinalg`` from an F_p echelon form instead: such a lattice is
  ``lift(V) + p Z^n``, and the RREF rows of ``V`` with ``p e_i`` at the
  non-pivot columns already are its canonical form (pivots 1 or p,
  entries beside them in ``[0, p)``), so ``==`` and every normal form
  agree with the integer route.
* ``factor_modulo(A, L)`` factors ``[A | L]`` once, steered by its top
  rows only, and keeps the result as a ``Factorisation``: the span
  ``A Z^k + L``, the kernel ``{x : Ax in L}``, and the transform columns
  that turn a ``Lattice.solve`` on the triangular span basis into
  coefficients on ``A``.  Solving many vectors modulo one lattice costs
  one normal form, plus one small one for the kernel.
* ``snf`` computes ``(U, D, V)`` with ``D = U @ M @ V`` diagonal and
  nonnegative, each diagonal entry dividing the next.  Its in-place
  kernel carries any of ``U``, ``V`` and ``U^-1`` that the caller asks
  for; ``ZModulePresentation.normal_form`` asks for none.
* ``kernel_basis(M)`` is computed once per matrix object and kept on it,
  outside ``==``, ``hash`` and ``repr``, as ``FpMatrix`` and ``ModuleMap``
  keep theirs; an equal matrix built anew gets its own evaluation.

Sublattices of ``Z^n`` are represented by ``Lattice``: ambient rank plus
the canonical HNF basis with zero columns dropped.  Membership tests and
coordinate solves use back-substitution on the triangular basis, which is
much cheaper than re-running a normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, index
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "Lattice",
    "hnf",
    "snf",
    "det",
    "is_unimodular",
    "kernel_basis",
    "lattice_intersection",
    "preimage_lattice",
    "Factorisation",
    "factor_modulo",
]


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """A dense immutable integer matrix.

    Entries are stored as a tuple of column tuples; ``entries`` derives
    the rows on each read.  ``rows`` and ``cols`` are explicit fields so
    that matrices with zero rows or zero columns keep their shape.
    """

    rows: int
    cols: int
    col_entries: tuple[tuple[int, ...], ...]
    # unset until ``kernel_basis`` fills it: a default would cost every construction
    _kernel: Lattice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.col_entries) != self.cols:
            raise ValueError(f"expected {self.cols} columns, got {len(self.col_entries)}")
        for j, col in enumerate(self.col_entries):
            if len(col) != self.rows:
                raise ValueError(f"column {j} has {len(col)} entries, expected {self.rows}")

    # --- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Build a matrix from an iterable of rows.

        ``cols`` is required when there are no rows (otherwise the column
        count cannot be inferred).
        """
        data = [tuple(map(index, row)) for row in rows]
        if not data:
            return IntMatrix(0, cols or 0, ((),) * (cols or 0))
        if cols is not None and cols != len(data[0]):
            raise ValueError("explicit column count disagrees with row length")
        cols = len(data[0])
        for r in data:
            if len(r) != cols:
                raise ValueError(f"ragged row: expected {cols} entries, got {len(r)}")
        return IntMatrix(len(data), cols, tuple(zip(*data)))

    @staticmethod
    def from_cols(cols: Iterable[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        data = tuple(tuple(map(index, col)) for col in cols)
        if rows is None:
            rows = len(data[0]) if data else 0
        return IntMatrix(rows, len(data), data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for i in range(n)) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, ((0,) * rows,) * cols)

    # --- access -------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The rows, rebuilt on every read: read them once per matrix."""
        if not self.cols:
            return ((),) * self.rows
        return tuple(zip(*self.col_entries))

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return self.col_entries[j]

    def columns(self) -> list[tuple[int, ...]]:
        return list(self.col_entries)

    # --- arithmetic ---------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return IntMatrix(self.rows, other.cols, tuple(map(self.mul_vec, other.col_entries)))

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        """``M v``: the sum of ``v_j`` times column j over the nonzero ``v_j`` only."""
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        acc = [0] * self.rows
        for c, col in zip(v, self.col_entries):
            if c:
                acc = [a + c * x for a, x in zip(acc, col)]
        return tuple(acc)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        sums = tuple(tuple(map(add, c, d)) for c, d in zip(self.col_entries, other.col_entries))
        return IntMatrix(self.rows, self.cols, sums)

    def scale(self, k: int) -> "IntMatrix":
        scaled = tuple(tuple(k * x for x in c) for c in self.col_entries)
        return IntMatrix(self.rows, self.cols, scaled)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix(self.rows, self.cols + other.cols, self.col_entries + other.col_entries)

    # --- misc ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {list(map(list, self.entries))})"


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``a*x + b*y = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_in_place(cols: list[list[int]], height: int, top: int = 0) -> int:
    """Bring the columns ``cols`` to canonical form in their first ``height`` rows, in place.

    The nonzero columns of the result lead and are the canonical HNF basis
    of the span; the return value is their number.  Rows below ``height``
    take part in every column operation but never steer one, so identity
    rows stacked below a matrix end as ``U`` in ``H = M @ U``.  With
    ``top``, the columns whose pivot lies in the first ``top`` rows are
    never reduced in later pivot rows: only the columns with a pivot
    further down come out canonical, and a finished column never feeds
    into another, so those are the same as without ``top``.

    Each row is cleared by a Euclid pass over the unfinished columns: every
    column with a nonzero entry in the row is reduced by the one with the
    smallest nonzero entry, with nearest-integer quotients, until a single
    nonzero entry is left.  That column becomes the pivot; it is made
    positive and the earlier columns are reduced into ``[0, pivot)`` in its
    row.
    """
    n = len(cols)
    j = 0
    low = 0  # columns before ``low`` have their pivot in the first ``top`` rows
    for i in range(height):
        if j == n:
            break
        live = [k for k in range(j, n) if cols[k][i]]
        if not live:
            continue
        while len(live) > 1:
            s = min(live, key=lambda k: abs(cols[k][i]))
            cs = cols[s]
            a2 = 2 * cs[i]
            rest = [s]
            for k in live:
                if k == s:
                    continue
                q = (2 * cols[k][i] + cs[i]) // a2  # nearest integer to b / a
                cols[k] = ck = [x - q * y for x, y in zip(cols[k], cs)]
                if ck[i]:
                    rest.append(k)
            live = rest
        s = live[0]
        if s != j:
            cols[j], cols[s] = cols[s], cols[j]
        cj = cols[j]
        a = cj[i]
        if a < 0:
            cols[j] = cj = [-x for x in cj]
            a = -a
        if i < top:
            low = j + 1
        for k in range(low, j):
            q = cols[k][i] // a
            if q:
                cols[k] = [x - q * y for x, y in zip(cols[k], cj)]
        j += 1
    return j


def _stacked_over_identity(M: IntMatrix) -> list[list[int]]:
    """The columns of ``M`` with the identity's columns stacked below them."""
    n = M.cols
    return [list(c) + [int(i == j) for i in range(n)] for j, c in enumerate(M.col_entries)]


def hnf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Canonical column Hermite normal form with its transform.

    Returns ``(H, U)`` with ``H = M @ U``, ``U`` unimodular, and ``H`` in the
    canonical form described in the module docstring.  The column span of
    ``H`` equals the column span of ``M``.

    It runs the column-major kernel ``_hnf_in_place``, whose rows are
    cleared by Euclid passes with the smallest nonzero entry as divisor, on
    the columns of ``M`` stacked over the identity: the bottom block
    receives every column operation and ends as ``U``.  The pivot
    normalisation makes ``H`` the same canonical form whichever column
    operations reached it.
    """
    m = M.rows
    cols = _stacked_over_identity(M)
    _hnf_in_place(cols, m)
    H = IntMatrix(m, M.cols, tuple(tuple(c[:m]) for c in cols))
    return H, IntMatrix(M.cols, M.cols, tuple(tuple(c[m:]) for c in cols))


def _snf_in_place(
    a: list[list[int]],
    n: int,
    u: list[list[int]] | None = None,
    v: list[list[int]] | None = None,
    uinv: list[list[int]] | None = None,
) -> None:
    """Bring the rows ``a`` (each ``n`` long) to Smith normal form in place.

    ``u`` and ``v``, when given, are row lists that receive the same row
    and column operations, so that ``D = U @ M @ V`` when they start as
    identities.  ``uinv``, when given, receives the inverse of every row
    operation as a column operation, so that it ends as ``U^-1`` when it
    starts as the identity.  The transforms never steer the elimination.
    """
    m = len(a)
    row_mats = [a] if u is None else [a, u]
    col_mats = [a] if v is None else [a, v]

    def row_sub(i: int, k: int, q: int) -> None:
        for mat in row_mats:
            mi, mk = mat[i], mat[k]
            for c in range(len(mi)):
                mi[c] -= q * mk[c]
        if uinv is not None:
            for row in uinv:
                row[k] += q * row[i]

    def row_combine(t: int, i: int, x: int, y: int, xf: int, yf: int) -> None:
        for mat in row_mats:
            rt, ri = mat[t], mat[i]
            for c in range(len(rt)):
                s, w = rt[c], ri[c]
                rt[c] = x * s + y * w
                ri[c] = xf * s + yf * w
        if uinv is not None:
            # the combination has determinant 1; its inverse is [[yf, -y], [-xf, x]]
            for row in uinv:
                s, w = row[t], row[i]
                row[t] = yf * s - xf * w
                row[i] = x * w - y * s

    def col_sub(j: int, k: int, q: int) -> None:
        for mat in col_mats:
            for row in mat:
                row[j] -= q * row[k]

    def col_combine(t: int, j: int, x: int, y: int, xf: int, yf: int) -> None:
        for mat in col_mats:
            for row in mat:
                s, w = row[t], row[j]
                row[t] = x * s + y * w
                row[j] = xf * s + yf * w

    t = 0
    limit = min(m, n)
    while t < limit:
        # Pick the entry of smallest absolute value as pivot (limits growth).
        best = None
        pi = pj = -1
        for i in range(t, m):
            ai = a[i]
            for jj in range(t, n):
                val = ai[jj]
                if val and (best is None or -best < val < best):
                    best = abs(val)
                    pi, pj = i, jj
        if best is None:
            break
        if pi != t:
            for mat in row_mats:
                mat[t], mat[pi] = mat[pi], mat[t]
            if uinv is not None:
                for row in uinv:
                    row[t], row[pi] = row[pi], row[t]
        if pj != t:
            for mat in col_mats:
                for row in mat:
                    row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                b = a[i][t]
                if not b:
                    continue
                piv = a[t][t]
                if b % piv == 0:
                    row_sub(i, t, b // piv)
                else:
                    g, x, y = _ext_gcd(piv, b)
                    row_combine(t, i, x, y, -(b // g), piv // g)
            refilled = False
            for jj in range(t + 1, n):
                b = a[t][jj]
                if not b:
                    continue
                piv = a[t][t]
                if b % piv == 0:
                    col_sub(jj, t, b // piv)
                else:
                    g, x, y = _ext_gcd(piv, b)
                    col_combine(t, jj, x, y, -(b // g), piv // g)
                    refilled = True
            if not refilled and all(a[i][t] == 0 for i in range(t + 1, m)):
                piv = a[t][t]
                offender = -1
                for i in range(t + 1, m):
                    ai = a[i]
                    for jj in range(t + 1, n):
                        if ai[jj] % piv:
                            offender = i
                            break
                    if offender >= 0:
                        break
                if offender < 0:
                    break
                # Fold the offending row into row t so the pivot can shrink
                # to a common divisor on the next elimination pass.
                row_sub(t, offender, -1)
        if a[t][t] < 0:
            for mat in row_mats:
                mat[t] = [-x for x in mat[t]]
            if uinv is not None:
                for row in uinv:
                    row[t] = -row[t]
        t += 1


def snf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: ``(U, D, V)`` with ``D = U @ M @ V``.

    ``U`` (``rows x rows``) and ``V`` (``cols x cols``) are unimodular; the
    diagonal of ``D`` is nonnegative and forms a divisibility chain
    ``d_1 | d_2 | ...`` (trailing zeros allowed).  It runs the in-place
    kernel ``_snf_in_place`` with both transforms carried along.
    """
    m, n = M.rows, M.cols
    a = [list(row) for row in M.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    _snf_in_place(a, n, u, v)
    return (
        IntMatrix.from_rows(u, cols=m),
        IntMatrix.from_rows(a, cols=n),
        IntMatrix.from_rows(v, cols=n),
    )


def det(M: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = [list(row) for row in M.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(M: IntMatrix) -> bool:
    return M.rows == M.cols and det(M) in (1, -1)


@dataclass(frozen=True, slots=True)
class Lattice:
    """A sublattice of ``Z^ambient`` with a canonical HNF basis.

    ``basis`` is a tuple of columns (each a tuple of ints), jointly in the
    canonical column Hermite form with zero columns removed.  Because the
    form is unique, ``==`` on lattices is subgroup equality.  Use
    :meth:`from_generators` unless the basis is already canonical.
    """

    ambient: int
    basis: tuple[tuple[int, ...], ...]
    _pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient < 0:
            raise ValueError("ambient dimension must be nonnegative")
        pivots = []
        for col in self.basis:
            if len(col) != self.ambient:
                raise ValueError("basis vector has wrong length")
            for i, x in enumerate(col):
                if x:
                    pivots.append(i)
                    break
            else:
                raise ValueError("zero column in lattice basis")
        object.__setattr__(self, "_pivots", tuple(pivots))

    @staticmethod
    def from_generators(ambient: int, gens: Iterable[Sequence[int]]) -> "Lattice":
        cols = [list(map(index, g)) for g in gens]
        for col in cols:
            if len(col) != ambient:
                raise ValueError("generator has wrong length")
        rank = _hnf_in_place(cols, ambient)
        return Lattice(ambient, tuple(map(tuple, cols[:rank])))

    @staticmethod
    def zero(ambient: int) -> "Lattice":
        return Lattice(ambient, ())

    @staticmethod
    def full(ambient: int) -> "Lattice":
        return Lattice.scaled_full(ambient, 1)

    @staticmethod
    def scaled_full(ambient: int, k: int) -> "Lattice":
        """The lattice ``k * Z^ambient`` (zero lattice when ``k == 0``)."""
        k = abs(k)
        if k == 0:
            return Lattice(ambient, ())
        return Lattice(
            ambient,
            tuple(tuple(k * int(i == j) for i in range(ambient)) for j in range(ambient)),
        )

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> IntMatrix:
        return IntMatrix(self.ambient, self.rank, self.basis)

    def solve(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Coordinates of ``v`` in the basis, or ``None`` if ``v`` is outside.

        Back-substitution on the triangular basis; no normal form is run.
        """
        if len(v) != self.ambient:
            raise ValueError("vector has wrong length")
        w = list(map(index, v))
        coords = []
        for col, r in zip(self.basis, self._pivots):
            q, rem = divmod(w[r], col[r])
            if rem:
                return None
            coords.append(q)
            if q:
                for i in range(r, self.ambient):
                    w[i] -= q * col[i]
        if any(w):
            return None
        return tuple(coords)

    def contains(self, v: Sequence[int]) -> bool:
        return self.solve(v) is not None

    def contains_lattice(self, other: "Lattice") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient rank mismatch")
        return all(self.contains(col) for col in other.basis)

    def sum(self, other: "Lattice") -> "Lattice":
        if self.ambient != other.ambient:
            raise ValueError("ambient rank mismatch")
        if not other.basis:
            return self
        if not self.basis:
            return other
        return Lattice.from_generators(self.ambient, self.basis + other.basis)

    def __repr__(self) -> str:
        return f"Lattice(ambient={self.ambient}, basis={list(map(list, self.basis))})"


def _lower_lattice(cols: list[list[int]], top: int, ambient: int) -> Lattice:
    """The lattice of bottom parts of the span's vectors whose top part vanishes.

    ``cols`` are ``top + ambient`` long and are brought to canonical form in
    place.  Pivot rows increase, so the columns with no pivot in the top
    ``top`` rows trail the nonzero ones, and their bottom parts are already
    the canonical basis of that lattice.
    """
    rank = _hnf_in_place(cols, top + ambient, top=top)
    first = next((j for j in range(rank) if not any(cols[j][:top])), rank)
    return Lattice(ambient, tuple(tuple(c[top:]) for c in cols[first:rank]))


def kernel_basis(M: IntMatrix) -> Lattice:
    """The kernel ``{x : Mx = 0}`` as a (saturated) sublattice of ``Z^cols``.

    The canonical form of ``M`` stacked over an identity block: columns
    whose top part vanishes record, in the bottom part, integer
    combinations of the original columns that cancel.  It is computed
    once per matrix and kept on it.
    """
    cached = getattr(M, "_kernel", None)
    if cached is None:
        cached = preimage_lattice(M, Lattice.zero(M.rows))
        object.__setattr__(M, "_kernel", cached)
    return cached


def lattice_intersection(A: Lattice, B: Lattice) -> Lattice:
    """``A ∩ B``: the bottoms of the span of ``(a, a)`` and ``(b, 0)`` with zero top."""
    if A.ambient != B.ambient:
        raise ValueError("ambient rank mismatch")
    if not A.basis or not B.basis:
        return Lattice.zero(A.ambient)
    zero = [0] * A.ambient
    cols = [list(a + a) for a in A.basis] + [list(b) + zero for b in B.basis]
    return _lower_lattice(cols, A.ambient, A.ambient)


def preimage_lattice(M: IntMatrix, L: Lattice) -> Lattice:
    """The lattice ``{x in Z^cols : Mx in L}``.

    The bottoms of the span of ``(M e_j, e_j)`` and ``(l, 0)`` for ``l`` in
    the basis of ``L`` whose top part vanishes.
    """
    if L.ambient != M.rows:
        raise ValueError("lattice ambient rank must match matrix row count")
    n = M.cols
    cols = _stacked_over_identity(M) + [list(l) + [0] * n for l in L.basis]
    return _lower_lattice(cols, M.rows, n)


@dataclass(frozen=True, slots=True, eq=False)
class Factorisation:
    """A matrix ``A`` modulo a lattice ``L``, from one canonical form of ``[A | L]``.

    Built by ``factor_modulo``.  ``span`` is ``A Z^k + L`` and ``kernel`` is
    ``{x in Z^k : Ax in L}``, both canonical, so they equal
    ``Lattice.from_generators`` on the columns of ``A`` and the basis of
    ``L``, and ``preimage_lattice(A, L)``.  ``solve`` finds an ``x`` with
    ``v - Ax`` in ``L`` by back-substitution, with no further normal form.
    """

    span: Lattice
    kernel: Lattice
    # column j: the coefficients on ``A`` behind basis column j of ``span``
    _transform: IntMatrix = field(repr=False)

    def solve(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Some ``x`` with ``v - Ax`` in ``L``, or ``None`` if ``v`` is outside ``span``."""
        coords = self.span.solve(v)
        if coords is None:
            return None
        return self._transform.mul_vec(coords)


def factor_modulo(A: IntMatrix, L: Lattice) -> Factorisation:
    """Factor ``A`` modulo ``L`` once; see ``Factorisation``.

    The columns ``(A e_j, e_j)`` and ``(l, 0)`` for ``l`` in the basis of
    ``L`` are brought to canonical form in their top ``A.rows`` rows only.
    The nonzero tops are the canonical basis of the span, and the bottoms
    below them map coordinates in that basis back to coefficients on ``A``.
    The columns with a zero top record combinations ``Ax + Lt = 0``; their
    bottoms generate the kernel, which one small normal form makes
    canonical.
    """
    if L.ambient != A.rows:
        raise ValueError("lattice ambient rank must match matrix row count")
    m, k = A.rows, A.cols
    cols = _stacked_over_identity(A) + [list(l) + [0] * k for l in L.basis]
    rank = _hnf_in_place(cols, m)
    span = Lattice(m, tuple(tuple(c[:m]) for c in cols[:rank]))
    kernel = Lattice.from_generators(k, (c[m:] for c in cols[rank:]))
    transform = IntMatrix(k, rank, tuple(tuple(c[m:]) for c in cols[:rank]))
    return Factorisation(span, kernel, transform)
