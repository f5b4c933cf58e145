"""R-diagrams change with the complex exactly as the theory says.

Three checks that need no oracle and see how H^n splits into K, S1, S2
and Sbar, which the group oracle cannot:

* swap: the complex with (d2, d1) in place of (d1, d2) has S1 and S2
  exchanged and the same kdim and Sbar dimension.  ``generator_sets`` and
  the one-sided quotients treat the sides differently, so a fault on one
  side shows here even where it leaves the underlying group intact;
* shift: a zero term in front moves every degree up by one, and the new
  degree 0 is zero;
* sum: the block sum of two complexes adds kdim, the Sbar dimensions and
  the elementary divisors of S1 and of S2.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rdiagram.homology import ChainComplexR, homology_rdiagram
from rdiagram.intlinalg import IntMatrix
from rdiagram.randomgen import random_complex_differentials

from helpers import prime_powers

PRIMES = (2, 3, 5)


def complex_of(p: int, seed: int, ranks: list) -> ChainComplexR:
    rng = random.Random(seed)
    return ChainComplexR(p, random_complex_differentials(rng, p, ranks, bound=2), ranks=ranks)


def answers(C: ChainComplexR) -> list:
    """(kdim, S1 normal form, S2 normal form, Sbar dim) of every degree."""
    out = []
    for n in range(C.terms):
        rd = homology_rdiagram(C, n)
        out.append((rd.kdim, rd.S.M1.normal_form(), rd.S.M2.normal_form(), rd.S.mbar_dim))
    return out


def elementary(form: tuple, p: int) -> tuple:
    """A normal form (rank, invariant factors) as (rank, sorted prime-power elementary divisors)."""
    rank, factors = form
    return rank, sorted(q for d in factors for q in prime_powers(d, p))


def block(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    cols = [c + (0,) * B.rows for c in A.col_entries] + [(0,) * A.rows + c for c in B.col_entries]
    return IntMatrix(A.rows + B.rows, A.cols + B.cols, tuple(cols))


complexes = st.tuples(
    st.sampled_from(PRIMES),
    st.integers(0, 2**32),
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(complexes)
def test_swapping_the_sides_exchanges_s1_and_s2(case):
    p, seed, ranks = case
    C = complex_of(p, seed, ranks)
    swapped = ChainComplexR(p, [(d2, d1) for d1, d2 in C.degrees], ranks=ranks)
    want = [(k, s2, s1, sbar) for k, s1, s2, sbar in answers(C)]
    assert answers(swapped) == want


@settings(max_examples=40, deadline=None)
@given(complexes)
def test_a_zero_term_in_front_shifts_every_degree(case):
    p, seed, ranks = case
    C = complex_of(p, seed, ranks)
    zero = IntMatrix.zeros(ranks[0], 0)
    shifted = ChainComplexR(p, [(zero, zero), *C.degrees], ranks=[0, *ranks])
    assert answers(shifted) == [(0, (0, ()), (0, ()), 0), *answers(C)]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 2**32), st.integers(0, 2**32), st.data())
def test_a_block_sum_adds_every_component(p, seed_a, seed_b, data):
    terms = data.draw(st.integers(1, 3))
    ranks_a, ranks_b = (data.draw(st.lists(st.integers(0, 3), min_size=terms, max_size=terms)) for _ in "ab")
    A, B = complex_of(p, seed_a, ranks_a), complex_of(p, seed_b, ranks_b)
    summed = ChainComplexR(
        p,
        [(block(a1, b1), block(a2, b2)) for (a1, a2), (b1, b2) in zip(A.degrees, B.degrees)],
        ranks=[a + b for a, b in zip(ranks_a, ranks_b)],
    )

    def add(g, h):
        g, h = elementary(g, p), elementary(h, p)
        return g[0] + h[0], sorted(g[1] + h[1])

    want = [
        (ka + kb, add(s1a, s1b), add(s2a, s2b), ba + bb)
        for (ka, s1a, s2a, ba), (kb, s1b, s2b, bb) in zip(answers(A), answers(B))
    ]
    got = [(k, elementary(s1, p), elementary(s2, p), sbar) for k, s1, s2, sbar in answers(summed)]
    assert got == want
