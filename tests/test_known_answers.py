"""Known answers for rank-one pieces R --(a, a')--> R, derived by hand.

For a = a' mod p the complex R --(a, a')--> R has, degree by degree, the
R-diagram (kdim, S1, S2, Sbar dim) in ``expected``: it is read off a, a'
and p by divisibility alone, with no normal form.  This is the first
known-answer check with K != 0: degree 1 of a piece with p | a and both
entries nonzero.  A block sum of pieces, conjugated by one permutation on
both sides, adds the answers.  Groups are compared as a free rank with
the multiset of prime-power elementary divisors of the torsion.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiagram.homology import ChainComplexR, homology_rdiagram
from rdiagram.intlinalg import IntMatrix

from helpers import prime_powers

BIG = 1_000_000_007
SMALL = (2, 3, 5, 7)


def cyclic(n: int, p: int) -> tuple:
    """Z/n for n > 0, as (free rank, elementary divisors); Z for n = 0."""
    return (0, prime_powers(n, p)) if n else (1, [])


ZERO = (0, [])


def expected(p: int, a: int, b: int) -> dict:
    """{degree: (kdim, S1, S2, Sbar dim)} of R --(a, b)--> R, b = a mod p."""
    if a and b:
        if a % p == 0:
            top = (1, cyclic(p * abs(a), p), cyclic(p * abs(b), p), 1)
        else:
            top = (0, cyclic(abs(a), p), cyclic(abs(b), p), 0)
        return {0: (0, ZERO, ZERO, 0), 1: top}
    bottom = (0, cyclic(p if a else 0, p), cyclic(p if b else 0, p), 1)
    return {0: bottom, 1: (0, cyclic(abs(a), p), cyclic(abs(b), p), 1)}


def answer(C: ChainComplexR, n: int) -> tuple:
    """(kdim, S1, S2, Sbar dim) of degree n as the pipeline computes it."""
    rd = homology_rdiagram(C, n)

    def group(M):
        rank, factors = M.normal_form()
        return (rank, sorted(q for d in factors for q in prime_powers(d, C.p)))

    return (rd.kdim, group(rd.S.M1), group(rd.S.M2), rd.S.mbar_dim)


def add(x: tuple, y: tuple) -> tuple:
    def plus(g, h):
        return (g[0] + h[0], sorted(g[1] + h[1]))

    return (x[0] + y[0], plus(x[1], y[1]), plus(x[2], y[2]), x[3] + y[3])


def piece(p: int, a: int, b: int) -> ChainComplexR:
    return ChainComplexR(p, [(IntMatrix.from_rows([[a]]), IntMatrix.from_rows([[b]]))])


def pieces(p: int, bound: int) -> list:
    return [(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1) if (a - b) % p == 0]


BIG_PIECES = [
    (0, 0), (1, 1), (-3, -3), (1, 1 + BIG), (2, 2 - BIG), (BIG, BIG), (BIG, -BIG),
    (BIG, 2 * BIG), (2 * BIG, 3 * BIG), (BIG * BIG, BIG), (BIG, 0), (0, -BIG), (3, 3 + 2 * BIG),
]


@pytest.mark.parametrize("p", SMALL)
def test_every_small_piece_has_its_known_answer(p):
    for a, b in pieces(p, 12):
        C = piece(p, a, b)
        want = expected(p, a, b)
        for n in (0, 1):
            assert answer(C, n) == want[n], (p, a, b, n)


@pytest.mark.parametrize("a, b", BIG_PIECES)
def test_pieces_at_a_large_prime_have_their_known_answer(a, b):
    C = piece(BIG, a, b)
    want = expected(BIG, a, b)
    for n in (0, 1):
        assert answer(C, n) == want[n], (a, b, n)


def test_the_pieces_reach_every_case_and_a_nonzero_k():
    kinds = {
        (bool(a), bool(b), a % p == 0) for p in SMALL for a, b in pieces(p, 12)
    }
    # (True, True, True) is the row with K != 0
    assert kinds == {
        (True, True, True), (True, True, False), (True, False, True), (False, True, True), (False, False, True)
    }


def block_sum(p: int, chosen: list, order: list) -> ChainComplexR:
    """diag(a_i) and diag(b_i), both conjugated by the permutation ``order``."""
    k = len(chosen)
    d1 = [[0] * k for _ in range(k)]
    d2 = [[0] * k for _ in range(k)]
    for i, (a, b) in enumerate(chosen):
        d1[order[i]][order[i]], d2[order[i]][order[i]] = a, b
    return ChainComplexR(p, [(IntMatrix.from_rows(d1), IntMatrix.from_rows(d2))])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL + (BIG,)), st.integers(0, 2**32), st.integers(2, 3))
def test_a_conjugated_block_sum_adds_the_answers(p, seed, k):
    rng = random.Random(seed)
    chosen = []
    for _ in range(k):
        a = rng.choice([0, rng.randint(-9, 9), p * rng.randint(-3, 3)])
        chosen.append((a, a + p * rng.randint(-2, 2)))
    order = rng.sample(range(k), k)
    C = block_sum(p, chosen, order)
    for n in (0, 1):
        want = (0, ZERO, ZERO, 0)
        for a, b in chosen:
            want = add(want, expected(p, a, b)[n])
        assert answer(C, n) == want, (p, chosen, order, n)
