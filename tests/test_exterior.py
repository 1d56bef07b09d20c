"""Exterior algebra: signs, grading, exact division, linear functoriality."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelian_fourier.errors import (
    NonDivisible,
    NonIntegralResult,
    NotHomogeneous,
    RankMismatch,
)
from abelian_fourier.exterior import (
    Multivector,
    bits_of,
    degree_basis_masks,
    integrate,
    wedge_sign,
)
from abelian_fourier.intlinalg import det_bareiss, mat_mul


def permutation_sign_oracle(a_bits, b_bits):
    """Independent sign computation: sort the concatenation, count swaps."""
    seq = list(a_bits) + list(b_bits)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    seq = seq[:]
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_wedge_sign_against_permutation_oracle(a, b):
    assert wedge_sign(a, b) == permutation_sign_oracle(bits_of(a), bits_of(b))


def rand_mv(rng, rank, terms=3, bound=3):
    out = {}
    for _ in range(terms):
        out[rng.randrange(1 << rank)] = rng.randint(-bound, bound)
    return Multivector(rank, out)


def test_wedge_examples():
    e1 = Multivector.generator(4, 0)
    e2 = Multivector.generator(4, 1)
    assert e1.wedge(e2) == Multivector(4, {0b11: 1})
    assert e2.wedge(e1) == Multivector(4, {0b11: -1})
    assert e1.wedge(e1).is_zero()
    # (e1e2 + e3e4)^2 = 2 e1e2e3e4 in rank 4
    x = Multivector(4, {0b0011: 1, 0b1100: 1})
    assert x.wedge(x) == Multivector(4, {0b1111: 2})


def test_wedge_rank_mismatch():
    with pytest.raises(RankMismatch):
        Multivector.unit(2).wedge(Multivector.unit(4))


def test_associativity_random():
    rng = random.Random(101)
    for _ in range(40):
        x, y, z = (rand_mv(rng, 5) for _ in range(3))
        assert x.wedge(y).wedge(z) == x.wedge(y.wedge(z))


def test_graded_commutativity():
    rng = random.Random(7)
    for _ in range(40):
        rank = 6
        p = rng.randint(0, rank)
        q = rng.randint(0, rank)
        xm = sum(1 << i for i in rng.sample(range(rank), p))
        ym = sum(1 << i for i in rng.sample(range(rank), q))
        x = Multivector(rank, {xm: rng.randint(-3, 3)})
        y = Multivector(rank, {ym: rng.randint(-3, 3)})
        sign = (-1) ** (p * q)
        assert x.wedge(y) == y.wedge(x) * sign


def test_graded_component_and_partition():
    x = Multivector(4, {0: 1, 0b11: 5, 0b1111: -2})
    assert x.graded_component(2) == Multivector(4, {0b11: 5})
    assert x.graded_component(0) == Multivector(4, {0: 1})
    assert Multivector.generator(4, 0).graded_component(0).is_zero()
    rng = random.Random(3)
    y = rand_mv(rng, 6, terms=8)
    total = Multivector.zero(6)
    for k in range(7):
        total = total + y.graded_component(k)
    assert total == y
    with pytest.raises(NotHomogeneous):
        x.degree()


def test_integrate():
    assert integrate(Multivector(2, {0b11: 1}), 1) == 1
    assert integrate(Multivector(2, {0b11: 1}), -1) == -1
    assert integrate(Multivector(2, {0b01: 7}), 1) == 0
    with pytest.raises(ValueError):
        integrate(Multivector.unit(2), 2)


def poincare_pairing_matrix(rank, k):
    """Pairing of the degree-k against the degree-(rank - k) monomials."""
    full = (1 << rank) - 1
    return [
        [wedge_sign(a, b) if a | b == full else 0 for b in degree_basis_masks(rank, rank - k)]
        for a in degree_basis_masks(rank, k)
    ]


def test_poincare_pairing_unimodular():
    # genus up to 3 (ranks 2, 4, 6), every degree
    for rank in (2, 4, 6):
        for k in range(rank + 1):
            P = poincare_pairing_matrix(rank, k)
            assert len(P) == comb(rank, k)
            assert abs(det_bareiss(P)) == 1


def test_divide_exact():
    x = Multivector(4, {0b1111: 2})
    assert x.divide_exact(2) == Multivector(4, {0b1111: 1})
    with pytest.raises(NonDivisible) as exc:
        Multivector(4, {0b11: 1}).divide_exact(2)
    assert exc.value.mask == 0b11
    assert exc.value.coefficient == 1
    assert exc.value.divisor == 2
    assert exc.value.rank == 4
    rng = random.Random(17)
    for _ in range(20):
        y = rand_mv(rng, 5)
        n = rng.choice([1, -1, 2, -3, 7])
        assert (y * n).divide_exact(n) == y
    with pytest.raises(ZeroDivisionError):
        x.divide_exact(0)


def test_cup_exponential():
    assert Multivector.zero(4).cup_exponential() == Multivector.unit(4)
    theta = Multivector(2, {0b11: 1})
    assert theta.cup_exponential() == Multivector(2, {0: 1, 0b11: 1})
    with pytest.raises(ValueError):
        Multivector.unit(2).cup_exponential()
    # rank-4 two-term pairing class: 1 + ell + ell^2/2 with top part -1
    ell = Multivector(4, {0b0101: 1, 0b1010: 1})
    e = ell.cup_exponential()
    assert e.graded_component(0) == Multivector.unit(4)
    assert e.graded_component(2) == ell
    assert integrate(e.graded_component(4), 1) == -1


def test_apply_linear_examples():
    x = Multivector(2, {0b11: 1})
    assert x.apply_linear([[2, 0], [0, 2]]) == x * 4
    e1 = Multivector.generator(2, 0)
    assert e1.apply_linear([[-1, 0], [0, -1]]) == -e1
    rng = random.Random(23)
    for _ in range(20):
        M = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        assert x.apply_linear(M) == x * det


def test_apply_linear_functoriality_and_ring_map():
    rng = random.Random(29)
    for _ in range(15):
        n = 4
        M = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        N = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        x = rand_mv(rng, n)
        y = rand_mv(rng, n)
        # generator images compose through the matrix product N*M:
        # applying M-rows first then N-rows equals applying (N then M) rows
        MN = mat_mul(M, N)
        assert x.apply_linear(MN) == x.apply_linear(M).apply_linear(N)
        assert x.wedge(y).apply_linear(M) == x.apply_linear(M).wedge(y.apply_linear(M))


def test_apply_linear_integrality_guard():
    from fractions import Fraction

    x = Multivector.generator(2, 0)
    with pytest.raises(NonIntegralResult):
        x.apply_linear([[Fraction(1, 2), 0], [0, 1]])
    # rational entries that cancel to integers are fine
    y = Multivector(2, {0b11: 4})
    half = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    assert y.apply_linear(half) == Multivector(2, {0b11: 1})


def test_constructor_validation():
    with pytest.raises(ValueError):
        Multivector(2, {0b100: 1})
    with pytest.raises(ValueError):
        Multivector(65)
    with pytest.raises(TypeError):
        Multivector(2, {0b01: 1.5})
    assert Multivector(2, {0b01: 0}).is_zero()


def test_serialization_roundtrip():
    rng = random.Random(31)
    for _ in range(25):
        x = rand_mv(rng, 6, terms=5, bound=10**12)
        records = x.to_records()
        masks = [sum(1 << i for i in rec["generators"]) for rec in records]
        assert masks == sorted(masks)
        assert Multivector.from_records(6, records) == x
        for rec in records:
            assert isinstance(rec["coeff"], str)


def test_degree_basis_masks():
    masks = degree_basis_masks(4, 2)
    assert len(masks) == 6
    assert masks == sorted(masks)
    assert all(m.bit_count() == 2 for m in masks)
