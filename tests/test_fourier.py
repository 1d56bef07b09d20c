"""Operator calculus: transform oracles, convolution, named classes.

The genus-1 values here were computed by hand on the rank-4 product
algebra (generators a1, a2 for the curve, b1, b2 for the dual, bits
0..3) and pin every sign convention in the package.
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelian_fourier.errors import NonDivisible, UnsupportedParams
from abelian_fourier.exterior import Multivector, degree_basis_masks
from abelian_fourier.fourier import (
    beta_from_divisor,
    beta_from_divisor_reference,
    context,
    correspondence_action,
    fourier,
    fourier_reference,
    graph_of_polarization,
    inverse_fourier,
    named_class,
    poincare_class,
    pontryagin,
    pontryagin_reference,
    star_divided_power,
    star_exponential,
    star_power,
)
from abelian_fourier.hodge import is_hodge
from abelian_fourier.intlinalg import det_bareiss, mat_mul, scaled_inverse
from abelian_fourier.varieties import (
    dual,
    elliptic_product,
    make_variety,
    polarization_isogeny,
    product,
    standard_ppav,
    structure_homs,
    structure_scale,
)


def rand_mv(rng, rank, terms=3):
    return Multivector(rank, {rng.randrange(1 << rank): rng.randint(-3, 3) for _ in range(terms)})


# principal and non-principal models, their duals (every generator in the
# negative mask) and a product whose mask covers only its second factor
ORACLE_MODELS = [
    V
    for A in (
        standard_ppav(1),
        standard_ppav(2),
        standard_ppav(3),
        elliptic_product((1, 2)),
        elliptic_product((1, 1, 2)),
    )
    for V in (A, dual(A))
] + [product(standard_ppav(1), dual(standard_ppav(2))).variety]


# --- pairing class and transform, frozen genus-1 oracles -------------------


def test_poincare_class_genus1():
    E1 = standard_ppav(1)
    ell = poincare_class(E1)
    assert ell == Multivector(4, {0b0101: 1, 0b1010: 1})
    P = product(E1, dual(E1)).variety
    assert P.integrate(ell.wedge(ell)) == -2
    assert is_hodge(P, ell)


def test_poincare_class_of_dual_flips_sign():
    E1 = standard_ppav(1)
    ell_hat = poincare_class(dual(E1))
    assert ell_hat == Multivector(4, {0b0101: -1, 0b1010: -1})


def test_pairing_class_pulls_back_to_twice_theta():
    for A in (standard_ppav(1), standard_ppav(2), standard_ppav(3)):
        graph = graph_of_polarization(A)
        assert graph.pullback(poincare_class(A)) == A.theta_class() * 2


def test_pairing_class_identification_with_theta_spread():
    # pulled back along id x lambda, ell becomes m* theta - pi1* theta - pi2* theta
    for A in (standard_ppav(1), standard_ppav(2)):
        sh = structure_homs(A)
        lam = polarization_isogeny(A)
        n = A.rank
        rows = []
        for i in range(n):
            rows.append(tuple(1 if j == i else 0 for j in range(n)) + (0,) * n)
        for i in range(n):
            rows.append((0,) * n + tuple(lam.matrix[i]))
        from abelian_fourier.varieties import Homomorphism

        id_x_lam = Homomorphism(
            sh.square.variety, product(A, dual(A)).variety, tuple(rows)
        )
        theta = A.theta_class()
        spread = (
            sh.m.pullback(theta)
            - sh.square.pull_first(theta)
            - sh.square.pull_second(theta)
        )
        assert id_x_lam.pullback(poincare_class(A)) == spread


def test_fourier_genus1_basis_values():
    E1 = standard_ppav(1)
    theta_hat = dual(E1).theta_class()
    assert fourier(E1, Multivector.unit(2)) == -theta_hat
    assert fourier(E1, Multivector.generator(2, 0)) == Multivector.generator(2, 1)
    assert fourier(E1, Multivector.generator(2, 1)) == -Multivector.generator(2, 0)
    assert fourier(E1, E1.theta_class()) == Multivector.unit(2)


def test_fourier_point_and_fundamental():
    for g in (1, 2, 3):
        A = standard_ppav(g)
        Ah = dual(A)
        assert fourier(A, A.point_class()) == Ah.fundamental_class()
        assert fourier(A, A.fundamental_class()) == Ah.point_class() * ((-1) ** g)


def test_fourier_theta_gives_minimal_class():
    for g in (2, 3, 4):
        A = standard_ppav(g)
        gamma_hat = named_class(dual(A), "gamma_theta")
        want = gamma_hat if (g - 1) % 2 == 0 else -gamma_hat
        assert fourier(A, A.theta_class()) == want


def test_fourier_degree_flip_unimodular():
    # on each degree the transform is a lattice isomorphism onto the
    # complementary degree of the dual
    for A in (standard_ppav(1), standard_ppav(2), elliptic_product((1, 2))):
        g = A.genus
        for j in range(A.rank + 1):
            masks_in = degree_basis_masks(A.rank, j)
            masks_out = degree_basis_masks(A.rank, A.rank - j)
            index = {m: i for i, m in enumerate(masks_out)}
            cols = []
            for m in masks_in:
                img = fourier(A, Multivector(A.rank, {m: 1}))
                assert img.degrees() <= {A.rank - j}
                col = [0] * len(masks_out)
                for mm, c in img.items():
                    col[index[mm]] = c
                cols.append(col)
            M = [[cols[j2][i] for j2 in range(len(cols))] for i in range(len(masks_out))]
            assert abs(det_bareiss(M)) == 1


def test_inverse_fourier_roundtrip():
    rng = random.Random(41)
    for g in (1, 2):
        A = standard_ppav(g)
        for _ in range(6):
            x = rand_mv(rng, A.rank)
            assert inverse_fourier(A, fourier(A, x)) == x
            y = rand_mv(rng, A.rank)
            assert fourier(A, inverse_fourier(A, y)) == y


def minus_one_pullback(x):
    """Pullback along multiplication by -1: degree k scales by (-1)^k.
    With it the inverse transform is its definition, three steps."""
    return Multivector(x.rank, {m: -c if m.bit_count() & 1 else c for m, c in x.items()})


def test_minus_one_pullback():
    x = Multivector(4, {0b1: 1, 0b11: 1, 0b111: 1})
    y = minus_one_pullback(x)
    assert y == Multivector(4, {0b1: -1, 0b11: 1, 0b111: -1})


# --- Pontryagin product and divided powers -----------------------------------


def test_pontryagin_unit():
    rng = random.Random(43)
    for g in (1, 2):
        A = standard_ppav(g)
        pt = A.point_class()
        for _ in range(6):
            x = rand_mv(rng, A.rank)
            assert pontryagin(A, x, pt) == x
            assert pontryagin(A, pt, x) == x


def test_pontryagin_theta_square_genus2():
    A = standard_ppav(2)
    th = A.theta_class()
    assert pontryagin(A, th, th) == A.fundamental_class() * 2


def test_star_power_degree_bookkeeping():
    A = standard_ppav(2)
    th = A.theta_class()
    assert star_power(A, th, 0) == A.point_class()
    assert star_power(A, th, 1) == th


@pytest.mark.parametrize("n", [True, False, 1.0, 1.5])
def test_a_star_exponent_that_is_not_an_int_is_a_type_error(n):
    # a bool would run as the power it equals, and a float fail inside range
    A = standard_ppav(2)
    th = A.theta_class()
    with pytest.raises(TypeError, match="star exponent"):
        star_power(A, th, n)
    with pytest.raises(TypeError, match="star exponent"):
        star_divided_power(A, th, n)
    assert star_power(A, th, 1) == star_divided_power(A, th, 1) == th


def test_star_divided_power_rejects_top_component():
    A = standard_ppav(1)
    with pytest.raises(UnsupportedParams):
        star_divided_power(A, A.point_class(), 2)


def test_star_square_of_odd_class_vanishes():
    # odd-degree classes anticommute under convolution, so their star
    # square is torsion and hence zero; even scalings divide exactly
    A = standard_ppav(2)
    rng = random.Random(59)
    for _ in range(6):
        mask = sum(1 << i for i in rng.sample(range(4), rng.choice((1, 3))))
        x = Multivector(4, {mask: rng.randint(1, 3)})
        assert star_power(A, x, 2).is_zero()
    gamma = named_class(A, "gamma_theta")
    assert star_divided_power(A, gamma * 3, 2) == star_divided_power(A, gamma, 2) * 9


def test_divided_power_binomial_law():
    # x^{[m]} * x^{[n]} = binom(m+n, n) x^{[m+n]} whenever all divisions land
    for g in (2, 3):
        A = standard_ppav(g)
        gamma = named_class(A, "gamma_theta")
        for m in range(0, g + 1):
            for n in range(0, g + 1 - m):
                lhs = pontryagin(
                    A,
                    star_divided_power(A, gamma, m),
                    star_divided_power(A, gamma, n),
                )
                rhs = star_divided_power(A, gamma, m + n) * comb(m + n, n)
                assert lhs == rhs


def test_star_exponential_unit_and_additivity():
    A = standard_ppav(2)
    assert star_exponential(A, Multivector.zero(A.rank)) == A.point_class()
    rng = random.Random(47)

    def safe_even(rng):
        # multiples of 6 make every needed star division land (n <= 4)
        terms = {}
        for _ in range(3):
            k = rng.choice((0, 2))
            mask = sum(1 << i for i in rng.sample(range(4), k))
            terms[mask] = terms.get(mask, 0) + rng.randint(-2, 2)
        return Multivector(4, terms) * 6

    for _ in range(6):
        x, y = safe_even(rng), safe_even(rng)
        lhs = star_exponential(A, x + y)
        rhs = pontryagin(A, star_exponential(A, x), star_exponential(A, y))
        assert lhs == rhs


# --- named classes -----------------------------------------------------------


def test_named_class_gamma():
    E1 = standard_ppav(1)
    assert named_class(E1, "gamma_theta") == E1.fundamental_class()
    # for the threefold model, gamma is the sum of the coordinate-axis classes
    A3 = standard_ppav(3)
    gamma = named_class(A3, "gamma_theta")
    from abelian_fourier.varieties import Homomorphism

    total = Multivector.zero(6)
    for k in range(3):
        rows = [[0, 0] for _ in range(6)]
        rows[k][0] = 1
        rows[3 + k][1] = 1
        incl = Homomorphism(E1, A3, tuple(tuple(r) for r in rows))
        total = total + incl.pushforward(Multivector.unit(2))
    assert gamma == total


def test_named_class_R_rho_sigma():
    A = standard_ppav(2)
    ell = context(A).ell
    assert named_class(A, "R") == ell.wedge_power_divided(3)
    assert named_class(A, "rho") == named_class(A, "R")
    assert named_class(A, "sigma") == ell.wedge_power_divided(2)
    assert named_class(A, "point") == A.point_class()
    assert named_class(A, "fundamental") == Multivector.unit(4)


def test_named_class_requires_principal():
    B = elliptic_product((1, 2))
    with pytest.raises(UnsupportedParams):
        named_class(B, "gamma_theta")
    with pytest.raises(UnsupportedParams):
        named_class(B, "tau")
    with pytest.raises(UnsupportedParams):
        named_class(B, "no_such_tag")


def test_tau_genus1_equals_pairing_class():
    E1 = standard_ppav(1)
    assert named_class(E1, "tau") == poincare_class(E1)


# --- correspondences, beta, Kunneth, projections ------------------------------


def test_correspondence_exponential_is_fourier():
    # the closed form against the correspondence, on every monomial
    for A in ORACLE_MODELS:
        for m in range(1 << A.rank):
            x = Multivector(A.rank, {m: 1})
            assert fourier_reference(A, x) == fourier(A, x)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pontryagin_matches_addition_pushforward(data):
    # the exchange-law product against its m_* definition, odd classes too
    A = data.draw(st.sampled_from(ORACLE_MODELS), label="model")
    terms = st.dictionaries(
        st.integers(0, (1 << A.rank) - 1), st.integers(-3, 3), max_size=4
    )
    x = Multivector(A.rank, data.draw(terms, label="x"))
    y = Multivector(A.rank, data.draw(terms, label="y"))
    assert pontryagin(A, x, y) == pontryagin_reference(A, x, y)


def test_correspondence_diagonal_is_identity():
    E1 = standard_ppav(1)
    sh = structure_homs(E1)
    diag = sh.diagonal.pushforward(Multivector.unit(2))
    for m in range(4):
        x = Multivector(2, {m: 1})
        assert correspondence_action(sh.square, diag, x) == x


def test_beta_linearity_and_sign():
    A = standard_ppav(2)
    lat_basis = [A.theta_class(), Multivector(4, {0b0011: 1, 0b1100: 1})]
    b0 = beta_from_divisor(A, lat_basis[0])
    b1 = beta_from_divisor(A, lat_basis[1])
    assert beta_from_divisor(A, lat_basis[0] + lat_basis[1]) == b0 + b1
    gamma = named_class(A, "gamma_theta")
    assert b0 == -gamma  # (-1)^{g-1} at g = 2
    with pytest.raises(UnsupportedParams):
        beta_from_divisor(elliptic_product((1, 2)), Multivector(4, {0b0101: 1}))
    with pytest.raises(UnsupportedParams):
        beta_from_divisor(A, Multivector(4, {0b0111: 1}))


def other_basis(A, rng, ops):
    """A rewritten in the basis U of ``ops`` random elementary column
    operations ``col_i += s col_j``, ``s = +-1``: ``E' = U^T E U`` and
    ``J' = U^{-1} J U``."""
    n = A.rank
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    U_inv = [row[:] for row in U]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for row in U:
            row[i] += s * row[j]
        U_inv[j] = [b - s * a for a, b in zip(U_inv[i], U_inv[j])]
    Ut = [list(col) for col in zip(*U)]
    E = mat_mul(mat_mul(Ut, [list(r) for r in A.E]), U)
    J = mat_mul(mat_mul(U_inv, [list(r) for r in A.J]), U)
    return make_variety(E, J, name=f"{A.name} in another basis")


def rational_J(A):
    """A's complex structure as make_variety reads it: ``J = N / d``, with
    Fraction entries, from the stored int matrix N of scale d."""
    d = structure_scale(A.J)
    return [[Fraction(x, d) for x in row] for row in A.J]


def rational_conjugate(A, rng):
    """A, with an integral J, pulled back along a random integral P with
    ``|det P| > 1``: ``E' = P^T E P`` and ``J' = P^{-1} J P``, whose
    entries have denominators dividing ``det P``.  P intertwines them, so
    ``Homomorphism(A', A, P)`` builds."""
    n = A.rank
    while True:
        P = [[rng.randint(-1, 1) + (i == j) for j in range(n)] for i in range(n)]
        D = det_bareiss(P)
        if abs(D) > 1:
            break
    E = mat_mul(mat_mul([list(col) for col in zip(*P)], A.E), P)
    # scaled_inverse(P, D) is the integral D P^{-1}
    J = [[Fraction(x, D) for x in row] for row in mat_mul(mat_mul(scaled_inverse(P, D), A.J), P)]
    return make_variety(E, J, name=f"{A.name} conjugated by det {D}"), P


def hermitian_variety(H, name):
    """``C^g / Z[i]^g`` with ``J = i`` and ``E = -Im H`` for a positive
    definite Hermitian Z[i]-matrix H, given as (real, imaginary) parts; in
    the x-then-y basis ``E = [[-B, A], [-A, -B]]`` with ``H = A + iB``."""
    g = len(H)
    A = [[H[a][b][0] for b in range(g)] for a in range(g)]
    B = [[H[a][b][1] for b in range(g)] for a in range(g)]
    E = [[-x for x in B[a]] + A[a] for a in range(g)]
    E += [[-x for x in A[a]] + [-x for x in B[a]] for a in range(g)]
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for a in range(g):
        J[a][g + a] = -1
        J[g + a][a] = 1
    return make_variety(E, J, name=name)


# an even unimodular Hermitian Z[i]-form of rank 4, found by a seeded search;
# its real form is E8, so it is principal and not a product polarization
E8_HERMITIAN = hermitian_variety(
    [
        [(2, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, -1), (2, 0), (0, 1), (-1, 0)],
        [(-1, 0), (0, -1), (2, 0), (1, 0)],
        [(0, 1), (-1, 0), (1, 0), (2, 0)],
    ],
    "E8 over Z[i]",
)

# E_i^1..3, their duals (every generator in the negative mask) and each
# A x A^ (the second half of the generators in it), non-principal types and
# a dual of one, a model in another basis and a non-product polarization
INVERSE_MODELS = (
    [standard_ppav(g) for g in (1, 2, 3)]
    + [dual(standard_ppav(g)) for g in (1, 2, 3)]
    + [product(standard_ppav(g), dual(standard_ppav(g))).variety for g in (1, 2, 3)]
    + [elliptic_product((1, 2)), elliptic_product((1, 1, 2)), dual(elliptic_product((1, 2, 4)))]
    + [other_basis(standard_ppav(2), random.Random(33), 12), E8_HERMITIAN, dual(E8_HERMITIAN)]
)


@pytest.mark.parametrize("A", INVERSE_MODELS, ids=lambda A: A.name)
def test_inverse_fourier_matches_the_inversion_identity(A):
    # the one signed pass against F_{A^} then (-1)^g [-1]^*, on every monomial
    Ahat = dual(A)
    sign = (-1) ** A.genus
    for m in range(1 << A.rank):
        y = Multivector(A.rank, {m: 1})
        assert inverse_fourier(A, y) == minus_one_pullback(fourier(Ahat, y)) * sign


BETA_MODELS = [
    V for A in (standard_ppav(g) for g in (1, 2, 3, 4)) for V in (A, dual(A))
] + [
    elliptic_product((1, 1)),
    other_basis(standard_ppav(2), random.Random(16), 16),
    other_basis(standard_ppav(3), random.Random(16), 16),
]


def beta_literal(A, D):
    """The paper's triple sum as written, ``theta^[k]`` outside ``push_2``:

        sum_{i+j+k = 2g-2} (-1)^{j+k}
            push_2( m^*theta^[i] ^ p_1^*theta^[j] ^ p_1^*D ) ^ theta^[k],

    one ``push_2`` per term; ``beta_from_divisor_reference`` moves
    ``theta^[k]`` inside by the projection formula."""
    g = A.genus
    sh = structure_homs(A)
    theta_div = [A.theta_class().wedge_power_divided(t) for t in range(g + 1)]
    pulled_D = sh.square.pull_first(D)
    out = Multivector.zero(A.rank)
    for i in range(g + 1):
        m_part = sh.m.pullback(theta_div[i])
        for j in range(g + 1):
            k = 2 * g - 2 - i - j
            if 0 <= k <= g:
                inner = m_part.wedge(sh.square.pull_first(theta_div[j])).wedge(pulled_D)
                term = sh.square.push_second(inner).wedge(theta_div[k])
                out = out + (-term if (j + k) % 2 else term)
    return out


@pytest.mark.parametrize("A", BETA_MODELS, ids=lambda A: A.name)
def test_beta_closed_form_matches_triple_sum(A):
    # lambda^* F(D) against the triple sum through T and as written, on
    # every degree-2 monomial
    for m in degree_basis_masks(A.rank, 2):
        D = Multivector(A.rank, {m: 1})
        fast = beta_from_divisor(A, D)
        assert fast == beta_from_divisor_reference(A, D) == beta_literal(A, D)


def test_beta_closed_form_on_the_hermitian_e8_model():
    A = E8_HERMITIAN
    assert A.is_principal and len(A.theta_class()) == 16
    rng = random.Random(8)
    divisors = [A.theta_class()] + [
        Multivector(A.rank, {m: 1}) for m in rng.sample(degree_basis_masks(A.rank, 2), 3)
    ]
    for D in divisors:
        fast = beta_from_divisor(A, D)
        assert fast == beta_from_divisor_reference(A, D) == beta_literal(A, D)
