"""Differential tests of the Smith-form layer against sympy.

``snf`` feeds both the pipeline (through ``ZModulePresentation.normal_form``)
and the oracle, so a bug in it could pass every cross-check between the
two.  sympy's invariant factors share no code with ours.
"""

import random

import pytest

from rdiagram.intlinalg import IntMatrix, Lattice, snf
from rdiagram.presentations import ZModulePresentation

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402


def seeded_matrices(seed: int, count: int = 40):
    """Random matrices up to 5x5 with negative entries, zero rows and zero columns."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if m and rng.random() < 0.3:
            rows[rng.randrange(m)] = [0] * n
        if n and rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        yield IntMatrix.from_rows(rows, cols=n)


def sympy_factors(M: IntMatrix) -> list[int]:
    """sympy's nonzero invariant factors of M, units included."""
    S = sympy.Matrix(M.rows, M.cols, lambda i, j: M.entries[i][j])
    return [int(d) for d in invariant_factors(S, domain=sympy.ZZ) if d]


@pytest.mark.parametrize("seed", range(5))
def test_snf_diagonal_agrees_with_sympy(seed):
    for M in seeded_matrices(seed):
        _, D, _ = snf(M)
        diag = [D.entries[i][i] for i in range(min(D.rows, D.cols))]
        assert [d for d in diag if d] == sympy_factors(M), M


@pytest.mark.parametrize("seed", range(5))
def test_normal_form_agrees_with_sympy(seed):
    # Z^rows modulo the column span of M: the rank deficit is free, the
    # factors above 1 are the torsion.
    for M in seeded_matrices(seed):
        factors = sympy_factors(M)
        want = (M.rows - len(factors), tuple(d for d in factors if d > 1))
        span = Lattice.from_generators(M.rows, M.columns())
        assert ZModulePresentation(M.rows, span).normal_form() == want, M
