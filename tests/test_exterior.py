"""Exterior algebra: signs, grading, exact division, linear functoriality.

The exterior-power table is tested against :func:`apply_generator_images`,
the per-monomial loop it replaced, and against the minors of the rows; a
table filled from its complete transposed partner against a fresh one.
The prefix-parity signs of ``wedge`` are tested against
:func:`wedge_by_signs`, which calls ``wedge_sign`` on every pair, and the
elementary symmetric divided powers against ``x^k`` divided by ``k!``.
"""

import random
from itertools import combinations
from math import comb, factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abelian_fourier.errors import (
    NonDivisible,
    NotHomogeneous,
    RankMismatch,
)
from abelian_fourier.exterior import (
    MAX_RANK,
    ExteriorPower,
    Multivector,
    bits_of,
    complement_sign,
    degree_basis_masks,
    integrate,
    wedge_sign,
)
from abelian_fourier.intlinalg import det_bareiss, mat_mul


def apply_generator_images(x: Multivector, rows) -> dict:
    """Oracle of :class:`ExteriorPower`: each monomial of x on its own.

    ``rows[i]`` is the image of generator ``i`` as sparse
    ``(target_index, coefficient)`` pairs.  Every monomial is rebuilt one
    generator at a time, lowest first, with no table shared between
    monomials; the sign of appending generator ``j`` to ``pmask`` is the
    parity of the generators of ``pmask`` above ``j``.
    """
    acc = {}
    for mask, coeff in x.items():
        partial = {0: coeff}
        m = mask
        while m:
            low = m & -m
            m ^= low
            row = rows[low.bit_length() - 1]
            nxt = {}
            for pmask, pc in partial.items():
                for j, cj in row:
                    bit = 1 << j
                    if pmask & bit:
                        continue
                    key = pmask | bit
                    if (pmask >> j).bit_count() & 1:
                        nxt[key] = nxt.get(key, 0) - pc * cj
                    else:
                        nxt[key] = nxt.get(key, 0) + pc * cj
            partial = {k: v for k, v in nxt.items() if v}
            if not partial:
                break
        for k, v in partial.items():
            nv = acc.get(k, 0) + v
            if nv:
                acc[k] = nv
            elif k in acc:
                del acc[k]
    return acc


def generator_rows(matrix):
    """Row i of ``matrix`` as the image of generator i, in the sparse
    pairs of :func:`apply_generator_images`."""
    return [[(j, e) for j, e in enumerate(row) if e] for row in matrix]


def apply_linear(x: Multivector, matrix) -> Multivector:
    """Algebra map sending generator i to ``sum_j matrix[i][j] e_j``."""
    return Multivector(len(matrix[0]), ExteriorPower(matrix).apply(x.items()))


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


def wedge_by_signs(x: Multivector, y: Multivector) -> Multivector:
    """Oracle of :meth:`Multivector.wedge`: ``wedge_sign`` on every pair."""
    terms = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            s = wedge_sign(ma, mb)
            if s:
                terms[ma | mb] = terms.get(ma | mb, 0) + s * ca * cb
    return Multivector(x.rank, terms)


def divided_power_oracle(x: Multivector, k: int) -> Multivector:
    """``x^k`` by repeated wedges, divided exactly by ``k!``."""
    return x.wedge_power(k).divide_exact(factorial(k))


@st.composite
def classes_of_rank(draw, max_rank=MAX_RANK, max_terms=6):
    rank = draw(st.integers(0, max_rank), label="rank")
    term = st.tuples(st.integers(0, (1 << rank) - 1), st.integers(-3, 3))
    x = Multivector(rank, dict(draw(st.lists(term, max_size=max_terms))))
    y = Multivector(rank, dict(draw(st.lists(term, max_size=max_terms))))
    return x, y


TOP = 1 << (MAX_RANK - 1)


@settings(max_examples=300, deadline=None)
@given(classes_of_rank())
@example((Multivector(64, {TOP: 1}), Multivector(64, {1: 1})))
@example((Multivector(64, {1: 1}), Multivector(64, {TOP: 1})))
@example((Multivector(64, {TOP: 2, 1 << 40: 1}), Multivector(64, {1 | 1 << 33: 3, 1 << 5: -1})))
@example((Multivector(64, {TOP | 1 << 31: 1}), Multivector(64, {1 | 1 << 32 | 1 << 62: 1})))
def test_wedge_matches_the_pairwise_sign_oracle(xy):
    # bits 0 and 63 pinned: a sign that misses the far end of the prefix
    # parity (its last shift, by 32) is wrong only there
    x, y = xy
    assert x.wedge(y) == wedge_by_signs(x, y)
    assert y.wedge(x) == wedge_by_signs(y, x)


def test_wedge_of_the_end_generators():
    e0, e63 = Multivector.generator(64, 0), Multivector.generator(64, 63)
    assert e63.wedge(e0) == Multivector(64, {TOP | 1: -1})
    assert e0.wedge(e63) == Multivector(64, {TOP | 1: 1})


@st.composite
def even_classes(draw):
    """Classes whose terms have even nonzero degree, masks free to overlap."""
    rank = draw(st.integers(0, 10), label="rank")
    masks = st.integers(0, (1 << rank) - 1).filter(lambda m: m and m.bit_count() % 2 == 0)
    if rank < 2:
        return Multivector(rank)
    term = st.tuples(masks, st.integers(-3, 3))
    return Multivector(rank, dict(draw(st.lists(term, max_size=6))))


@settings(max_examples=200, deadline=None)
@given(even_classes())
@example(Multivector(4, {0b0101: 1, 0b1010: -1, 0b0011: 2, 0b1100: 1}))
@example(Multivector(6, {0b000011: 1, 0b001100: 1, 0b110000: 1, 0b001111: 1}))
# rank 64 with terms on bits 0, 31, 32 and 63: even_classes draws ranks up
# to 10, so only this example reads the far end of the prefix parity
@example(Multivector(64, {1 | 1 << 32: 1, 1 << 31 | TOP: 2, 1 | 1 << 31: -1, 1 << 32 | TOP: 3}))
def test_even_divided_powers_match_the_product_oracle(x):
    for k in range(len(x) + 2):
        assert x.wedge_power_divided(k) == divided_power_oracle(x, k), k


def test_divided_powers_of_other_classes_take_the_product_path(monkeypatch):
    calls = []
    product = Multivector.wedge_power

    def spy(self, k):
        calls.append(k)
        return product(self, k)

    monkeypatch.setattr(Multivector, "wedge_power", spy)
    ell = Multivector(4, {0b0101: 1, 0b1010: 1})
    assert ell.wedge_power_divided(2) == Multivector(4, {0b1111: -1})
    assert calls == []
    # an odd-degree term or a degree-0 term sends the class to x^k / k!
    odd = Multivector(4, {0b0001: 1, 0b0110: 2})
    assert odd.wedge_power_divided(2) == divided_power_oracle(odd, 2)
    assert calls == [2, 2]
    with pytest.raises(NonDivisible) as exc:
        Multivector(4, {0: 1, 0b11: 1}).wedge_power_divided(2)
    assert (exc.value.mask, exc.value.coefficient, exc.value.divisor) == (0, 1, 2)
    with pytest.raises(NonDivisible) as exc:
        Multivector(4, {0: 2, 0b1: 1}).wedge_power_divided(3)
    assert (exc.value.mask, exc.value.coefficient, exc.value.divisor) == (0, 8, 6)
    for x in (ell, odd, Multivector(4, {0: 1})):
        with pytest.raises(ValueError):
            x.wedge_power_divided(-1)


def rand_mv(rng, rank, terms=3):
    out = {}
    for _ in range(terms):
        out[rng.randrange(1 << rank)] = rng.randint(-3, 3)
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
    # a bool or a float equal to +-1 would pass the value check
    for orientation in (True, 1.0, -1.0):
        with pytest.raises(TypeError, match="orientation"):
            integrate(Multivector(2, {0b11: 5}), orientation)


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
    assert apply_linear(x, [[2, 0], [0, 2]]) == x * 4
    e1 = Multivector.generator(2, 0)
    assert apply_linear(e1, [[-1, 0], [0, -1]]) == -e1
    rng = random.Random(23)
    for _ in range(20):
        M = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        assert apply_linear(x, M) == x * det


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
        assert apply_linear(x, MN) == apply_linear(apply_linear(x, M), N)
        assert apply_linear(x.wedge(y), M) == apply_linear(x, M).wedge(apply_linear(y, M))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Multivector(2, {0b100: 1})
    with pytest.raises(ValueError):
        Multivector(65)
    with pytest.raises(TypeError):
        Multivector(2, {0b01: 1.5})
    assert Multivector(2, {0b01: 0}).is_zero()


@pytest.mark.parametrize("index", [True, False, 1.0, 2.0, 0.5])
def test_indices_that_are_not_ints_are_type_errors(index):
    # a bool compares as 0 or 1 and a float as its value, so each would
    # pass the range checks as the int it equals
    x = Multivector(4, {0: 1, 0b11: 5})
    with pytest.raises(TypeError, match="generator index"):
        Multivector.generator(2, index)
    with pytest.raises(TypeError, match="degree"):
        x.graded_component(index)
    with pytest.raises(TypeError, match="degree"):
        degree_basis_masks(4, index)
    with pytest.raises(TypeError, match="rank"):
        degree_basis_masks(index, 1)
    with pytest.raises(TypeError, match="divisor"):
        x.divide_exact(index)
    for power in (x.wedge_power, x.wedge_power_divided):
        with pytest.raises(TypeError, match="wedge exponent"):
            power(index)
    assert Multivector.generator(2, 1) == Multivector(2, {0b10: 1})
    assert x.graded_component(2) == Multivector(4, {0b11: 5})
    assert degree_basis_masks(4, 1) == [1, 2, 4, 8]
    assert x.wedge_power(1) == x.wedge_power_divided(1) == x.divide_exact(1) == x


def test_degree_basis_masks():
    masks = degree_basis_masks(4, 2)
    assert len(masks) == 6
    assert masks == sorted(masks)
    assert all(m.bit_count() == 2 for m in masks)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_coefficients_are_minors(data):
    # the algebra map sending generator i to row i of M has the minors of M
    # as coefficients: e_S goes to sum_T det(M[S, T]) e_T.  One table
    # answers a list of masks and then the same masks again in shuffled
    # order, so that later queries hit entries and prefixes stored by
    # earlier ones; every answer is also the per-monomial oracle's.
    r = data.draw(st.integers(0, 8), label="rows")
    c = data.draw(st.integers(0, 8), label="columns")
    entry = st.integers(-3, 3)
    M = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    masks = data.draw(st.lists(st.integers(0, (1 << r) - 1), min_size=1, max_size=6), label="masks")
    masks += data.draw(st.permutations(masks), label="again")
    rows = generator_rows(M)
    power = ExteriorPower(M)
    minors = {}
    for S in masks:
        x = Multivector(r, {S: 1})
        image = Multivector(c, power.image(S))
        assert image == Multivector(c, apply_generator_images(x, rows))
        src = bits_of(S)
        k = len(src)
        assert image.degrees() <= {k}
        if S not in minors:
            minors[S] = {
                T: det_bareiss([[M[i][j] for j in bits_of(T)] for i in src])
                for T in degree_basis_masks(c, k)
            }
        for T, minor in minors[S].items():
            assert image.coefficient(T) == minor
    x = Multivector(r, dict(data.draw(st.lists(st.tuples(st.integers(0, (1 << r) - 1), entry)))))
    assert power.apply(x.items()) == apply_generator_images(x, rows)


@st.composite
def int_matrices(draw, max_dim=6):
    """``(r, c, M)``: an r x c int matrix, r and c up to ``max_dim``, with
    some of its rows and columns set to zero."""
    r = draw(st.integers(0, max_dim), label="rows")
    c = draw(st.integers(0, max_dim), label="columns")
    M = draw(st.lists(st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=r, max_size=r))
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2) if r else st.just(())):
        M[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=2) if c else st.just(())):
        for row in M:
            row[j] = 0
    return r, c, M


@settings(max_examples=150, deadline=None)
@given(int_matrices(), st.booleans(), st.booleans(), st.data())
def test_a_complete_table_serves_its_transpose(rcM, pull_first, partial, data):
    # one side of a linked pair is filled through apply, over every mask or
    # over all but the full one, so that it is only partly filled; every
    # mask of the other side, read in shuffled order, is then its fresh
    # table's image and the minors.  It fills itself by one transposition
    # pass exactly when the first side is complete and it has a mask to
    # miss, and by its own wedges otherwise.
    r, c, M = rcM
    T = [[M[i][j] for i in range(r)] for j in range(c)]
    pull = ExteriorPower(M)
    push = ExteriorPower(T, partner=pull)
    first, n_first, second, rows, n = (pull, r, push, T, c) if pull_first else (push, c, pull, M, r)
    first.apply((S, 1) for S in range((1 << n_first) - partial))
    complete = not partial or n_first == 0
    fresh = ExteriorPower(rows)
    transpose = ExteriorPower._transpose
    with mock.patch.object(ExteriorPower, "_transpose", autospec=True, side_effect=transpose) as spy:
        for S in data.draw(st.permutations(range(1 << n)), label="masks"):
            got = second.image(S)
            assert got == fresh.image(S)
            src = bits_of(S)
            minors = {
                U: det_bareiss([[rows[i][j] for j in bits_of(U)] for i in src])
                for U in (degree_basis_masks(n_first, len(src)) if len(src) <= n_first else ())
            }
            assert got == {U: v for U, v in minors.items() if v}
    assert spy.call_count == (complete and n > 0)


# target generators where the prefix parity _below_parity(1 << j) that
# ExteriorPower.image reads needs every shift: from 0, bits 33 and 63 lie
# past the first 32 above it
PINNED = (0, 31, 32, 33, 63)


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 2, -1, 3, 1], [2, -1, 1, 1, -2], [1, 1, 3, -1, 1], [-2, 1, 1, 2, 1], [1, -3, 2, 1, 2]],
        [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]],
        [[1, 0, 0, 0, 1], [0, 1, 0, 1, 0], [1, 1, 1, 0, 0], [0, 1, 0, 1, 1], [1, 0, 0, 1, 1]],
    ],
    ids=["dense", "reversal", "sparse"],
)
def test_image_sign_at_the_far_generators(matrix):
    # rank-64 rows whose entries sit at generators 0, 31, 32, 33 and 63,
    # from sources at the same generators: every image of every subset is
    # the per-monomial oracle's and the minor of the 5 x 5 matrix, since
    # the pinned generators keep their order
    dense = [[0] * MAX_RANK for _ in range(MAX_RANK)]
    for i, src in enumerate(PINNED):
        for j, e in enumerate(matrix[i]):
            dense[src][PINNED[j]] = e
    rows = generator_rows(dense)
    power = ExteriorPower(dense)
    for k in range(len(PINNED) + 1):
        for sel in combinations(range(len(PINNED)), k):
            S = sum(1 << PINNED[i] for i in sel)
            image = power.image(S)
            assert image == apply_generator_images(Multivector(MAX_RANK, {S: 1}), rows)
            for cols in combinations(range(len(PINNED)), k):
                T = sum(1 << PINNED[j] for j in cols)
                minor = det_bareiss([[matrix[i][j] for j in cols] for i in sel])
                assert image.get(T, 0) == minor


def test_complement_sign_is_the_poincare_duality_sign():
    for rank in range(13):
        full = (1 << rank) - 1
        for s in range(1 << rank):
            assert complement_sign(s) == wedge_sign(s, full ^ s), (rank, s)
    # bits up to MAX_RANK count by their positions alone
    top = 1 << (MAX_RANK - 1)
    assert complement_sign(top) == wedge_sign(top, top - 1) == -1
