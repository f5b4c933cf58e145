"""Exact linear algebra over the integers: matrices, normal forms, lattices.

This module is the computational substrate for the whole package.  All
arithmetic uses Python's arbitrary-precision integers; there is no floating
point anywhere and no dependency outside the standard library.

Conventions the rest of the package relies on:

* ``IntMatrix`` is immutable and dense, with explicit ``rows``/``cols`` so
  that degenerate shapes (``0 x n``, ``n x 0``) survive round trips.
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
  never carries a transform: ``hnf``, ``solve_many`` and
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
* ``solve_many`` factors a matrix once, as ``hnf`` does, and solves every
  right-hand side by ``Lattice.solve`` on the triangular top block, so
  solving many vectors against one matrix costs one normal form.
* ``snf`` computes ``(U, D, V)`` with ``D = U @ M @ V`` diagonal and
  nonnegative, each diagonal entry dividing the next.  Its in-place
  kernel carries any of ``U``, ``V`` and ``U^-1`` that the caller asks
  for; ``ZModulePresentation.normal_form`` asks for none.

Sublattices of ``Z^n`` are represented by ``Lattice``: ambient rank plus
the canonical HNF basis with zero columns dropped.  Membership tests and
coordinate solves use back-substitution on the triangular basis, which is
much cheaper than re-running a normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "Lattice",
    "hnf",
    "snf",
    "det",
    "is_unimodular",
    "kernel_basis",
    "column_span",
    "lattice_intersection",
    "preimage_lattice",
    "solve_many",
    "solve_in_span",
]


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """A dense immutable integer matrix.

    Entries are stored as a tuple of row tuples.  ``rows`` and ``cols`` are
    explicit fields rather than being derived from ``entries`` so that
    matrices with zero rows or zero columns keep their shape.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError(f"ragged row: expected {self.cols} entries, got {len(r)}")

    # --- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Build a matrix from an iterable of rows.

        ``cols`` is required when there are no rows (otherwise the column
        count cannot be inferred).
        """
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with row length")
            cols = width
        elif cols is None:
            cols = 0
        return IntMatrix(len(data), cols, data)

    @staticmethod
    def from_cols(cols: Iterable[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        data = [tuple(map(int, col)) for col in cols]
        if data:
            height = len(data[0])
            if rows is not None and rows != height:
                raise ValueError("explicit row count disagrees with column length")
            rows = height
        elif rows is None:
            rows = 0
        entries = tuple(zip(*data)) if data else ((),) * rows
        return IntMatrix(rows, len(data), entries)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    # --- access -------------------------------------------------------

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        if not self.rows:
            return [()] * self.cols
        return list(zip(*self.entries))

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    # --- arithmetic ---------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        bcols = other.columns()
        entries = tuple(tuple(sum(map(mul, row, col)) for col in bcols) for row in self.entries)
        return IntMatrix(self.rows, other.cols, entries)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(k * x for x in r) for r in self.entries))

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix(
            self.rows,
            self.cols + other.cols,
            tuple(r + s for r, s in zip(self.entries, other.entries)),
        )

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

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
    return [list(c) + [int(i == j) for i in range(n)] for j, c in enumerate(M.columns())]


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
    H = IntMatrix.from_cols([c[:m] for c in cols], rows=m)
    return H, IntMatrix.from_cols([c[m:] for c in cols], rows=M.cols)


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
        cols = [list(map(int, g)) for g in gens]
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
        return IntMatrix.from_cols(self.basis, rows=self.ambient)

    def solve(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Coordinates of ``v`` in the basis, or ``None`` if ``v`` is outside.

        Back-substitution on the triangular basis; no normal form is run.
        """
        if len(v) != self.ambient:
            raise ValueError("vector has wrong length")
        w = [int(x) for x in v]
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

    def direct_sum(self, other: "Lattice") -> "Lattice":
        """Block sum inside ``Z^(a+b)``: first block self, second block other."""
        a, b = self.ambient, other.ambient
        gens = [col + (0,) * b for col in self.basis]
        gens += [(0,) * a + col for col in other.basis]
        return Lattice.from_generators(a + b, gens)

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
    combinations of the original columns that cancel.
    """
    return preimage_lattice(M, Lattice.zero(M.rows))


def column_span(M: IntMatrix) -> Lattice:
    return Lattice.from_generators(M.rows, M.columns())


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


def solve_many(
    M: IntMatrix, rhs: Sequence[Sequence[int]]
) -> list[tuple[int, ...] | None]:
    """Solve ``Mx = b`` for each ``b`` in ``rhs`` with one factorisation.

    Brings ``M`` stacked over the identity to canonical form once, then
    solves each right-hand side by ``Lattice.solve`` on the triangular top
    block and maps the coordinates back through the bottom block, which is
    ``U`` in ``H = M @ U``.  Returns one integer solution per vector, or
    ``None`` where ``b`` is outside the column span.  No factorisation runs
    for an empty ``rhs``.
    """
    m = M.rows
    for b in rhs:
        if len(b) != m:
            raise ValueError("right-hand side has wrong length")
    if not rhs:
        return []
    cols = _stacked_over_identity(M)
    basis = cols[: _hnf_in_place(cols, m)]
    span = Lattice(m, tuple(tuple(c[:m]) for c in basis))
    out = []
    for b in rhs:
        coords = span.solve(b)
        if coords is not None:
            coords = tuple(
                sum(c * col[t] for c, col in zip(coords, basis)) for t in range(m, m + M.cols)
            )
        out.append(coords)
    return out


def solve_in_span(M: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Some integer solution ``x`` of ``Mx = b``, or ``None`` if there is none."""
    return solve_many(M, [b])[0]
