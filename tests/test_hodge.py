"""Hodge lattices: ranks, membership, certificates, and the derivation
D_J against the Gaussian-prime operator ``T - p^k`` it replaced.

:func:`operator_matrix` is that operator, dense: T is the action of
``a + bJ`` on forms and ``p = a^2 + b^2`` an odd prime (5 by default).
By unique factorization in the Gaussian integers its saturated kernel
is the Hodge lattice, but its entries reach ``p^k`` and its blocks are
dense.  It is the oracle of the lattices and of ``is_hodge``, and
:func:`derivation_matrix` is the dense oracle of the sparse rows of
``D_J``.  ``LATTICE_SHA256`` pins the basis and inverse of every lattice.
"""

import hashlib
import random
import signal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelian_fourier import clear_caches
from abelian_fourier.errors import (
    CheckFailure,
    ImageNotInHodge,
    NoComplexStructure,
    NotHodge,
    NotHomogeneous,
    RiemannRelationViolated,
    UnsupportedParams,
)
from abelian_fourier.exterior import Multivector, degree_basis_masks
from abelian_fourier.fourier import beta_from_divisor, poincare_class, theta_triple_sum
from abelian_fourier.hodge import (
    HodgeLattice,
    _inverse_index,
    _lattice_tables,
    fourier_hodge_matrix,
    hodge_lattice,
    is_hodge,
    voisin_certificate,
)
from abelian_fourier.intlinalg import (
    cokernel_invariants,
    dense_columns,
    det_bareiss,
    kernel_saturated,
    kernel_saturated_reference,
    mat_mul,
    rational_solve,
)
from abelian_fourier.suite import run_check
from abelian_fourier.varieties import (
    _elliptic_product,
    dual,
    elliptic_product,
    make_variety,
    product,
    standard_ppav,
    structure_scale,
)
from test_exterior import apply_generator_images
from test_fourier import E8_HERMITIAN, other_basis, rational_conjugate, rational_J
from test_intlinalg import assert_smith_divisors, rational_inverse, time_limit


def dense_basis(lat):
    """The basis of a lattice as a dense ambient x rank matrix."""
    return dense_columns(lat.basis, lat.ambient_dimension())


def brute_force_hodge_rank(A, k, ab=(1, 2)):
    """Independent oracle: assemble the projector matrix entry by entry
    from 2k x 2k minors of ``d (a + bJ) = ad + bN`` acting on the dual
    basis, then count the saturated kernel columns.
    """
    a, b = ab
    n = A.rank
    d = structure_scale(A.J)
    # dual-basis action: generator i maps to row i of ad I + bN
    P = [[a * d * (i == j) + b * A.J[i][j] for j in range(n)] for i in range(n)]
    cols = list(combinations(range(n), 2 * k))
    index = {c: i for i, c in enumerate(cols)}
    N = len(cols)
    M = [[0] * N for _ in range(N)]
    # Lambda^{2k} matrix entries are minors of P
    for s, rows_sel in enumerate(cols):
        for t, cols_sel in enumerate(cols):
            sub = [[P[i][j] for j in cols_sel] for i in rows_sel]
            M[index[cols_sel]][index[rows_sel]] = det_bareiss(sub)
    lam = (d * d * (a * a + b * b)) ** k
    for i in range(N):
        M[i][i] -= lam
    K = kernel_saturated(M)
    return len(K[0]) if K and K[0] else 0


def test_rank_extremes():
    for g in (1, 2, 3):
        A = standard_ppav(g)
        assert hodge_lattice(A, 0).rank == 1
        assert hodge_lattice(A, g).rank == 1


def test_divisor_rank_g_squared():
    for g in (1, 2, 3):
        A = standard_ppav(g)
        assert hodge_lattice(A, 1).rank == g * g


def test_rank_against_minor_oracle():
    for g, k in [(1, 1), (2, 1), (2, 2)]:
        A = standard_ppav(g)
        assert hodge_lattice(A, k).rank == brute_force_hodge_rank(A, k)
    B = elliptic_product((1, 2))
    assert hodge_lattice(B, 1).rank == brute_force_hodge_rank(B, 1)


def test_membership_examples():
    A = standard_ppav(2)
    assert is_hodge(A, A.theta_class())
    # x1 ^ x2 has a nonzero (2, 0)-part, so it is not a Hodge class;
    # adding y1 ^ y2 cancels it (the graph class of multiplication by i)
    assert not is_hodge(A, Multivector(4, {0b0011: 1}))
    assert is_hodge(A, Multivector(4, {0b0011: 1, 0b1100: 1}))
    assert is_hodge(A, Multivector.zero(4))
    assert not is_hodge(A, Multivector.generator(4, 0))  # odd degree
    with pytest.raises(NotHomogeneous):
        is_hodge(A, Multivector(4, {0b0011: 1, 0b0001: 1}))


def test_membership_needs_complex_structure():
    bare = make_variety([[0, 1], [-1, 0]])
    with pytest.raises(NoComplexStructure):
        is_hodge(bare, Multivector(2, {0b11: 1}))
    with pytest.raises(NoComplexStructure):
        hodge_lattice(bare, 1)


E_RATIONAL = make_variety([[0, 1], [-1, 0]], [[0, Fraction(-1, 2)], [2, 0]], name="E_rational")
# in another basis J has entries off the factor blocks and -J^T != J
OTHER_BASIS = [other_basis(standard_ppav(g), random.Random(16), 16) for g in (2, 3)]
# E^2 and E^3 on a sublattice of index 14 and 16: J has denominators up
# to 14 and 8, so the variety stores N = 14 J and N = 8 J
RATIONAL_CONJUGATES = [
    rational_conjugate(standard_ppav(g), random.Random(seed))[0] for g, seed in ((2, 2), (3, 4))
]

# the models whose dual takes -J^T: E^1 to E^4, three non-principal
# types, rational J of genus 1 to 3, and the duals of all of these
SIGN_MODELS = [standard_ppav(g) for g in (1, 2, 3, 4)] + [
    elliptic_product((1, 2)),
    elliptic_product((1, 1, 2)),
    elliptic_product((1, 1, 3)),
    E_RATIONAL,
    *RATIONAL_CONJUGATES,
]
SIGN_MODELS += [dual(A) for A in SIGN_MODELS]


def test_pairing_class_is_hodge():
    for A in SIGN_MODELS:
        Ah = dual(A)
        assert Ah.J == tuple(tuple(-x for x in col) for col in zip(*A.J))
        assert is_hodge(product(A, Ah).variety, poincare_class(A))


def test_dual_polarization_matches_fraction_inverse():
    for A in SIGN_MODELS:
        c = A.polarization_type[0] * A.polarization_type[-1]
        want = [[-c * x for x in row] for row in rational_inverse(A.E)]
        assert [list(row) for row in dual(A).E] == want


def test_dual_with_plus_J_transpose_violates_riemann():
    # E^ J^ is c S^{-1} for -J^T, with S = E J positive definite, and
    # -c S^{-1} for +J^T
    for A in SIGN_MODELS:
        plus = [list(col) for col in zip(*rational_J(A))]
        with pytest.raises(RiemannRelationViolated):
            make_variety(dual(A).E, plus)
        # (aI + bJ)^2 != (a^2 + b^2) I: +J^T does not fix the pairing class;
        # with N = dJ, (ad + bN)^2 != (a^2 + b^2) d^2 I
        n, d = A.rank, structure_scale(A.J)
        P = [[d * (i == j) + 2 * A.J[i][j] for j in range(n)] for i in range(n)]
        assert mat_mul(P, P) != [[5 * d * d * (i == j) for j in range(n)] for i in range(n)]


def test_theta_is_hodge_every_model():
    for A in (standard_ppav(3), elliptic_product((1, 2)), elliptic_product((2, 2))):
        assert is_hodge(A, A.theta_class())


def test_parameter_validation():
    with pytest.raises(UnsupportedParams):
        hodge_lattice(standard_ppav(1), 5)


@pytest.mark.parametrize("k", [True, 1.0, 1.5])
def test_half_degree_that_is_not_an_int_is_a_type_error(k):
    # True compares and hashes as 1, so it would pass the range check and
    # share the memo key of k = 1; the error names k, not an itertools call
    A = standard_ppav(2)
    gens = hodge_lattice(A, 1).basis_classes()
    memo = _lattice_tables.cache_info()
    message = f"half-degree {k!r} is not an integer"
    with pytest.raises(TypeError, match=message):
        hodge_lattice(A, k)
    with pytest.raises(TypeError, match=message):
        voisin_certificate(A, k, gens)
    with pytest.raises(TypeError, match=message):
        fourier_hodge_matrix(A, k)
    # rejected before the memo is read
    assert _lattice_tables.cache_info() == memo
    assert type(hodge_lattice(A, 1).k) is int


def test_saturation():
    for g in (2, 3):
        A = standard_ppav(g)
        for k in (1, g - 1):
            lat = hodge_lattice(A, k)
            cok = cokernel_invariants(dense_basis(lat), lat.ambient_dimension())
            assert all(d == 1 for d in cok.divisors)


def test_cup_products_of_hodge_are_hodge():
    A = standard_ppav(3)
    rng = random.Random(61)
    basis = hodge_lattice(A, 1).basis_classes()
    for _ in range(10):
        x = basis[rng.randrange(len(basis))]
        y = basis[rng.randrange(len(basis))]
        prod_xy = x.wedge(y)
        if prod_xy.is_zero():
            continue
        assert is_hodge(A, prod_xy)


def divisor_power_span(V, k):
    """Generators of the divisor-power subgroup of the degree-2k Hodge lattice.

    The k-fold wedge products of a basis of the divisor classes (the
    degree-2 Hodge lattice), as columns in the ambient degree-2k monomial
    coordinates.  They are algebraic whenever divisor classes are, so a
    trivial cokernel against the full Hodge lattice certifies that the
    whole lattice is generated by algebraic classes.
    """
    divisors = hodge_lattice(V, 1).basis_classes()
    masks = degree_basis_masks(V.rank, 2 * k)
    products = []
    for combo in combinations_with_replacement(range(len(divisors)), k):
        w = Multivector.unit(V.rank)
        for i in combo:
            w = w.wedge(divisors[i])
        products.append(w)
    return [[w.coefficient(m) for w in products] for m in masks]


def test_divisor_power_span_full_lattice():
    # k = 1 tautologically spans; k = 2 on the threefold model is the
    # classical fact that products of CM elliptic curves have
    # divisor-generated Hodge rings
    A = standard_ppav(3)
    for k in (1, 2):
        span = divisor_power_span(A, k)
        lat = hodge_lattice(A, k)
        ncols = len(span[0])
        coords = []
        for j in range(ncols):
            v = [span[i][j] for i in range(len(span))]
            sol = rational_solve(dense_basis(lat), v)
            assert sol is not None
            coords.append([int(s) for s in sol])
        G = [[coords[j][i] for j in range(ncols)] for i in range(lat.rank)]
        assert cokernel_invariants(G, lat.rank).is_trivial


def test_voisin_certificate():
    A = standard_ppav(2)
    lat = hodge_lattice(A, 1)
    full = voisin_certificate(A, 1, lat.basis_classes())
    assert full.is_trivial
    # doubling one generator leaves index 2
    doubled = [c * 2 for c in lat.basis_classes()[:1]] + lat.basis_classes()[1:]
    cok = voisin_certificate(A, 1, doubled)
    assert [d for d in cok.divisors if d != 1] == [2]
    # a doubled generator of a rank-1 lattice leaves divisor (2)
    top = voisin_certificate(A, 2, [A.point_class() * 2])
    assert top.divisors == (2,)
    assert top.free_rank == 0
    # missing generators leave free rank
    partial = voisin_certificate(A, 1, lat.basis_classes()[:2])
    assert partial.free_rank == 2


def test_voisin_certificate_rejects_non_hodge():
    A = standard_ppav(2)
    with pytest.raises(NotHodge) as exc:
        voisin_certificate(A, 1, [A.theta_class(), Multivector(4, {0b0011: 1})])
    assert exc.value.index == 1
    with pytest.raises(NotHodge, match="generator 0 has degree 2, expected degree 4"):
        # right type, wrong degree
        voisin_certificate(A, 2, [A.theta_class()])
    with pytest.raises(NotHodge, match="generator 1 has degree 2, expected degree 4") as exc:
        voisin_certificate(A, 2, [A.point_class() * 2, A.theta_class()])
    assert exc.value.index == 1


def test_voisin_certificate_rejects_a_generator_of_mixed_degree():
    A = standard_ppav(2)
    mixed = A.theta_class() + A.point_class()
    with pytest.raises(NotHodge, match="generator 1 is not a Hodge class") as exc:
        voisin_certificate(A, 1, [A.theta_class(), mixed])
    assert exc.value.index == 1


def test_beta_classes_certify_curve_lattice():
    for g in (2, 3):
        A = standard_ppav(g)
        gens = [beta_from_divisor(A, D) for D in hodge_lattice(A, 1).basis_classes()]
        assert voisin_certificate(A, g - 1, gens).is_trivial


def test_beta_classes_certify_curve_lattice_on_the_hermitian_e8_model():
    # the coordinate matrix of these 16 curve classes has determinant +-1,
    # and a Smith form with row and column pivoting of its transpose did
    # not finish in 15 s: the alarm guards the Smith divisors
    A = E8_HERMITIAN
    gens = [beta_from_divisor(A, D) for D in hodge_lattice(A, 1).basis_classes()]
    assert len(gens) == 16

    def timeout(signum, frame):
        raise TimeoutError("voisin_certificate on E8_HERMITIAN took over 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        assert voisin_certificate(A, 3, gens).is_trivial
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_certificates_of_random_generator_sets_finish():
    # each generator set is randint(1, rank + 2) Z-combinations of the
    # basis classes, coefficients in [-3, 3]; a Smith form with row and
    # column pivoting did not finish some of these in 2 s.  The
    # coordinates of the generators are the coefficient matrix C, so the
    # certificate's divisors are C's
    cases = []
    for g in (2, 3):
        A = standard_ppav(g)
        for k in range(1, g):
            rng = random.Random(10 * g + k)
            lat = hodge_lattice(A, k)
            basis = lat.basis_classes()
            for _ in range(20):
                count = rng.randint(1, lat.rank + 2)
                C = [[rng.randint(-3, 3) for _ in range(count)] for _ in range(lat.rank)]
                gens = [Multivector.zero(A.rank) for _ in range(count)]
                for row, b in zip(C, basis):
                    gens = [x + b * c for x, c in zip(gens, row)]
                cases.append((A, k, C, gens))
    assert len(cases) == 60
    with time_limit(10, "60 certificates at genus 2 and 3"):
        cokernels = [voisin_certificate(A, k, gens) for A, k, _, gens in cases]
    for (_, _, C, _), cok in zip(cases, cokernels):
        rank = len(cok.divisors)
        assert cok.free_rank == len(C) - rank
        assert_smith_divisors(C, cok.divisors + (0,) * (min(len(C), len(C[0])) - rank))


def test_other_basis_lattices_finish_with_small_entries():
    # E^4 and E^2 in another Z-basis of H^1: a Smith form with row and
    # column pivoting did not finish the genus-4 lattice at k = 2 in 5 s,
    # and gave the genus-2 lattice at k = 1 entries of 64 digits
    A = other_basis(standard_ppav(4), random.Random(16), 16)
    clear_caches()
    with time_limit(10, "the genus-4 Hodge lattices in another basis"):
        lattices = [hodge_lattice(A, k) for k in range(5)]
    for k, lat in enumerate(lattices):
        assert lat.rank == comb(4, k) ** 2
        assert all(is_hodge(A, u) for u in lat.basis_classes())
        lat.check_saturated()
    lat = hodge_lattice(other_basis(standard_ppav(2), random.Random(16), 40), 1)
    assert max(abs(x) for column in lat.basis for _, x in column) < 10**4


def test_fourier_hodge_matrix():
    for g in (1, 2, 3):
        A = standard_ppav(g)
        for i in range(g + 1):
            fm = fourier_hodge_matrix(A, i)
            assert fm.source_rank == fm.target_rank
            assert fm.unimodular and fm.outside is None
    B = elliptic_product((1, 2))
    for i in range(3):
        fm = fourier_hodge_matrix(B, i)
        assert fm.unimodular


def hand_built_lattice(A, masks, basis, inverse):
    # a lattice from given B and L, whose index of L comes from the helper
    # that hodge_lattice's tables use
    return HodgeLattice(A, 1, masks, basis, inverse, _inverse_index(masks, inverse))


def test_coordinates_reject_unsaturated_basis():
    # 2 e0e1 spans a non-saturated lattice, which has no integer left
    # inverse: whatever integer L it is given, e0e1 (coordinate 1/2) and
    # 2 e0e1 (coordinate 1) get None, never a truncated or wrong vector
    for entry in (1, 0, -1, 2):
        lat = hand_built_lattice(standard_ppav(1), (0b11,), (((0, 2),),), (((0, entry),),))
        assert lat.coordinates(Multivector(2, {0b11: 1})) is None
        assert lat.coordinates(Multivector(2, {0b11: 2})) is None

    # a saturated basis, e0e1 + e0e2 and e2e3, with wrong inverses and
    # with right ones (any L with L B = I, also one reading e1e2, where B
    # is zero): an answer is the true nonzero coordinates or None
    A = standard_ppav(2)
    masks = (0b0011, 0b0101, 0b0110, 0b1100)
    basis = (((0, 1), (1, 1)), ((3, 1),))
    right = [(((0, 1),), ((3, 1),)), (((1, 1),), ((3, 1), (2, 5)))]
    # each wrong L with the first basis class it does not invert
    wrong = [
        ((((0, 1), (1, 1)), ((3, 1),)), 0),
        ((((0, 1),), ((3, 2),)), 1),
        ((((3, 1),), ((0, 1),)), 0),
    ]
    classes = [
        Multivector(4, {0b0011: 2, 0b0101: 2, 0b1100: -3}),
        Multivector(4, {0b1100: 1}),
        Multivector(4, {0b0011: 1, 0b1100: 1}),
        Multivector(4, {0b0110: 1, 0b1100: 1}),
        Multivector(4, {0b0011: 1, 0b0101: 1, 0b0110: 4}),
    ]
    expected = [{0: 2, 1: -3}, {1: 1}, None, None, None]
    for inverse in right:
        lat = hand_built_lattice(A, masks, basis, inverse)
        assert [lat.coordinates(x) for x in classes] == expected
        lat.check_saturated()
    for inverse, bad in wrong:
        lat = hand_built_lattice(A, masks, basis, inverse)
        got = [lat.coordinates(x) for x in classes]
        assert all(c is None or c == e for c, e in zip(got, expected))
        assert None in got[:2]
        with pytest.raises(CheckFailure) as exc:
            lat.check_saturated()
        assert exc.value.witness == lat.basis_classes()[bad]
    # an L with a row too many fails at the first basis class and gives
    # no coordinates
    lat = hand_built_lattice(A, masks, basis, (*right[0], ()))
    assert [lat.coordinates(x) for x in classes] == [None] * len(classes)
    with pytest.raises(CheckFailure) as exc:
        lat.check_saturated()
    assert exc.value.witness == lat.basis_classes()[0]


def test_coordinates_reject_terms_outside_the_degree():
    # a class with a term of another degree is not in the lattice, even
    # when its degree-2k part is
    assert hodge_lattice(standard_ppav(1), 1).coordinates(Multivector(2, {0b11: 1, 0: 5})) is None
    lat = hodge_lattice(standard_ppav(2), 1)
    b0 = lat.basis_classes()[0]
    assert lat.coordinates(b0) == {0: 1}
    assert lat.coordinates(b0 + Multivector.generator(4, 0) * 3) is None


def in_span(basis, vectors):
    """Whether every column of vectors has integral coordinates in the
    columns of basis, which are independent.  One Gauss-Jordan
    elimination of ``[basis | vectors]`` over Q serves all the columns:
    a column is in the span when it is zero on the rows without a pivot,
    and its coordinates are then its entries on the pivot rows."""
    r = len(basis[0])
    M = [[Fraction(x) for x in row] + list(v) for row, v in zip(basis, vectors)]
    for c in range(r):
        piv = next(i for i in range(c, len(M)) if M[i][c])
        M[c], M[piv] = M[piv], M[c]
        inv = 1 / M[c][c]
        M[c] = [x * inv for x in M[c]]
        for i in range(len(M)):
            if i != c and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return not any(x for row in M[r:] for x in row[r:]) and all(
        x.denominator == 1 for row in M[:r] for x in row[r:]
    )


ORACLE_MODELS = [standard_ppav(g) for g in (1, 2, 3, 4, 5)] + [
    elliptic_product((1, 2)),
    elliptic_product((1, 1, 2)),
    elliptic_product((1, 1, 1, 2, 2)),
    E_RATIONAL,
    # these catch a derivation that reads J^T where it should read J
    *OTHER_BASIS,
    *RATIONAL_CONJUGATES,
]
ORACLE_MODELS += [dual(A) for A in ORACLE_MODELS]


def operator_matrix(V, k, ab=(1, 2)):
    """Dense oracle of the Gaussian-prime operator: the matrix of
    ``T - (d^2 p)^k`` on the degree-2k monomial basis, T the action of
    ``d (a + bJ) = ad + bN``, one generator-image column at a time.
    Generator i goes to row i of ``ad I + bN``.  When ``p = a^2 + b^2`` is
    an odd prime its saturated kernel is the Hodge lattice, so it checks
    the lattice of the derivation by an independent argument."""
    a, b = ab
    n, d = V.rank, structure_scale(V.J)
    rows_op = [
        [(j, b * V.J[i][j]) for j in range(n) if V.J[i][j]] + [(i, a * d)] for i in range(n)
    ]
    masks = degree_basis_masks(V.rank, 2 * k)
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    M = [[0] * n for _ in range(n)]
    for j, mask in enumerate(masks):
        image = apply_generator_images(Multivector(V.rank, {mask: 1}), rows_op)
        for m, c in image.items():
            M[index[m]][j] = c
    p = d * d * (a * a + b * b)
    for i in range(n):
        M[i][i] -= p**k
    return M


def derivation_matrix(V, k):
    """Dense oracle of the rows ``hodge_lattice`` builds: the matrix of
    D_N on the degree-2k monomial basis, N = dJ the stored complex
    structure.  Column S sums, over the slots r of the sorted word S and
    the entries ``N[S_r][t]``, the word S with ``S_r`` replaced by t,
    signed by the parity of its inversions."""
    n = V.rank
    masks = degree_basis_masks(n, 2 * k)
    index = {m: i for i, m in enumerate(masks)}
    M = [[0] * len(masks) for _ in masks]
    for j, mask in enumerate(masks):
        word = [i for i in range(n) if mask >> i & 1]
        for r, i in enumerate(word):
            for t in range(n):
                new = word[:r] + [t] + word[r + 1 :]
                if not V.J[i][t] or len(set(new)) < len(new):
                    continue
                inversions = sum(x > y for x, y in combinations(new, 2))
                M[index[sum(1 << x for x in new)]][j] += (-1) ** inversions * V.J[i][t]
    return M


def assert_same_lattice(basis, ref):
    """The columns of basis and of ref span the same lattice."""
    assert len(basis[0]) == len(ref[0])
    assert in_span(ref, basis)
    assert in_span(basis, ref)


def assert_in_kernel(basis, M):
    """M kills every column of basis: each row of M, read over its
    nonzero entries, combines the rows of basis to zero."""
    for row in M:
        image = [0] * len(basis[0])
        for a, basis_row in zip(row, basis):
            if a:
                image = [x + a * y for x, y in zip(image, basis_row)]
        assert not any(image)


_ORACLE_KERNELS: dict = {}


def oracle_kernel(V, k):
    """``operator_matrix(V, k)`` and its whole-matrix Smith-form kernel.
    Both depend on J and k alone, so the models of ORACLE_MODELS that
    share a J (a model and its dual, E^5 and type (1, 1, 1, 2, 2)) compute
    them once."""
    key = (V.J, k)
    if key not in _ORACLE_KERNELS:
        M = operator_matrix(V, k)
        _ORACLE_KERNELS[key] = M, kernel_saturated_reference(M)
    return _ORACLE_KERNELS[key]


@pytest.mark.parametrize("V", ORACLE_MODELS, ids=lambda V: V.name)
def test_hodge_lattice_spans_oracle_lattice(V):
    # the saturated kernel of D_J and the whole-matrix Smith-form kernel
    # of T - p^k span the same lattice
    for k in range(V.genus + 1):
        lat = hodge_lattice(V, k)
        M, ref = oracle_kernel(V, k)
        if V.genus < 5:
            assert_same_lattice(dense_basis(lat), ref)
            continue
        # at genus 5 the two eliminations of in_span, on 210 rows with 200
        # columns, would triple the test's time; a saturated basis of
        # ref's rank that M kills lies in ref, the whole saturated kernel
        # of M, with index 1.  The basis is
        # saturated: test_sparse_operator_rows_give_the_dense_kernel_basis
        # pins it to kernel_saturated's on the dense derivation
        assert lat.rank == len(ref[0])
        assert_in_kernel(dense_basis(lat), M)


def test_parameter_independence():
    # the kernel of T - p^k is the Hodge lattice for every Gaussian prime,
    # here (1, 2) of norm 5, (2, 3) of norm 13 and the conjugate (2, 1):
    # each equals the kernel of the derivation
    for A in (standard_ppav(2), elliptic_product((1, 2))):
        for k in range(A.genus + 1):
            lat = hodge_lattice(A, k)
            for ab in ((1, 2), (2, 3), (2, 1)):
                assert_same_lattice(dense_basis(lat), kernel_saturated_reference(operator_matrix(A, k, ab)))


def test_unit_parameter_is_inadmissible():
    # a + bJ of norm 1 fixes every eigenvalue i^{p-q} with p = q mod 4, so
    # at genus 4, degree 4 its kernel also holds the (4, 0) and (0, 4)
    # parts; the derivation sees i(p - q) and keeps only the (2, 2) part
    A = standard_ppav(4)
    assert hodge_lattice(A, 2).rank == 36
    assert len(kernel_saturated(operator_matrix(A, 2, (0, 1)))[0]) == 38


@pytest.mark.parametrize("V", ORACLE_MODELS, ids=lambda V: V.name)
def test_sparse_operator_rows_give_the_dense_kernel_basis(V):
    # the sparse rows of D_J and the dense matrix through kernel_saturated
    # give the same basis, not only the same lattice
    for k in range(V.genus + 1):
        basis = kernel_saturated(derivation_matrix(V, k))
        lat = hodge_lattice(V, k)
        assert dense_basis(lat) == basis
        # and the memoized inverse proves it saturated: L B = I
        lat.check_saturated()


# sha256 of ``repr((B, L))`` over k = 0 .. g, B the dense basis and L the
# sparse inverse of each lattice, recorded before the kernel solved each
# distinct block once and kept B sparse: the basis and inverse of every
# (model, k) are the ones the dense, block-by-block kernel gave
LATTICE_SHA256 = {
    "E_i^1": "3edbcb24afe77acfe7110b56621a310492bf9e77692c0c827b710fa526fc208f",
    "E_i^2": "4093803cdc172790b3ee6c641f31b04b948cb63c1fee703761ad912f905287c0",
    "E_i^3": "268886e4d9496552983d32c4ba94af5c7d00569c14209d4e501b77c33bdd710c",
    "E_i^4": "fe02bdabd4be475e9f0b7c3cf62ddec94aa3a93bed7c6e8cf7873cc79eb3a3af",
    "E_i^5": "4af6c41b3973d74c30974d9dd0616641f14df0b250f73432d8b1e5e817798737",
    "E_i^2(1, 2)": "4093803cdc172790b3ee6c641f31b04b948cb63c1fee703761ad912f905287c0",
    "E_i^3(1, 1, 2)": "268886e4d9496552983d32c4ba94af5c7d00569c14209d4e501b77c33bdd710c",
    "E_i^5(1, 1, 1, 2, 2)": "4af6c41b3973d74c30974d9dd0616641f14df0b250f73432d8b1e5e817798737",
    "E_rational": "3edbcb24afe77acfe7110b56621a310492bf9e77692c0c827b710fa526fc208f",
    "E_i^2 in another basis": "4901cda8f8e277a1dffb1b2dbb9de0fdb60610323d016c8a5de532cbb5108dbb",
    "E_i^3 in another basis": "9906ad43cfa2b0013af4192f70b4a13bf957f64fbded294a8583d19e6287e619",
    "E_i^1^": "3edbcb24afe77acfe7110b56621a310492bf9e77692c0c827b710fa526fc208f",
    "E_i^2^": "4093803cdc172790b3ee6c641f31b04b948cb63c1fee703761ad912f905287c0",
    "E_i^3^": "268886e4d9496552983d32c4ba94af5c7d00569c14209d4e501b77c33bdd710c",
    "E_i^4^": "fe02bdabd4be475e9f0b7c3cf62ddec94aa3a93bed7c6e8cf7873cc79eb3a3af",
    "E_i^5^": "4af6c41b3973d74c30974d9dd0616641f14df0b250f73432d8b1e5e817798737",
    "E_i^2(1, 2)^": "4093803cdc172790b3ee6c641f31b04b948cb63c1fee703761ad912f905287c0",
    "E_i^3(1, 1, 2)^": "268886e4d9496552983d32c4ba94af5c7d00569c14209d4e501b77c33bdd710c",
    "E_i^5(1, 1, 1, 2, 2)^": "4af6c41b3973d74c30974d9dd0616641f14df0b250f73432d8b1e5e817798737",
    "E_rational^": "3edbcb24afe77acfe7110b56621a310492bf9e77692c0c827b710fa526fc208f",
    "E_i^2 in another basis^": "19457893863b14d2bf5d5c3d00f1204e3f93a6794941dc870abc434e765d0ea9",
    "E_i^3 in another basis^": "a1513651c233b9118d766226dcc180e51cb74255827144540d75ece5e062a65b",
    # recorded before J was stored as N = dJ, with D_J's rows scaled one
    # by one to ints: scaling them all by d moves no basis or inverse
    "E_i^2 conjugated by det 14": "e882acfa421d3f5f182fdfd021c33407d925110be7d58f5b64f27556cb2a2020",
    "E_i^3 conjugated by det 16": "bc3148cf73ce8aa887f26839d0472831a3c519bca31ce2b3b95f2734adb71d41",
    "E_i^2 conjugated by det 14^": "275ba95bbb86c3bbab7dcda2b0f96d9ec65ea75ba821d3a7043d950da2900149",
    "E_i^3 conjugated by det 16^": "953dd19e2101671304d1ee57ee5e80060c725cfa4ac6f2004a2a04c423a8fbca",
}


@pytest.mark.parametrize("V", ORACLE_MODELS, ids=lambda V: V.name)
def test_lattice_bases_and_inverses_are_pinned(V):
    digest = hashlib.sha256()
    for k in range(V.genus + 1):
        lat = hodge_lattice(V, k)
        digest.update(repr((tuple(map(tuple, dense_basis(lat))), lat.inverse)).encode())
    assert digest.hexdigest() == LATTICE_SHA256[V.name]


def test_genus_6_lattices_have_rank_c6k_squared():
    # E^6: the Gaussian-prime operator had 64x64 blocks at k = 3 whose
    # Smith form did not finish; the derivation's kernel takes well under
    # a second per k, and the alarm fails the test if that regresses
    A = standard_ppav(6)

    def timeout(signum, frame):
        raise TimeoutError("the genus-6 Hodge lattices took over 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        clear_caches()
        for k in range(7):
            assert hodge_lattice(A, k).rank == comb(6, k) ** 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_genus_6_fourier_hodge_matrices_are_unimodular():
    # on standard_ppav(6) the coordinates of the transforms of each Hodge
    # basis are a signed permutation, which the cokernel takes as 1x1
    # blocks; all seven matrices take well under a second, and the alarm
    # fails the test if that regresses to dense Smith forms
    A = standard_ppav(6)

    def timeout(signum, frame):
        raise TimeoutError("the genus-6 Fourier-Hodge matrices took over 3 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(3)
    try:
        for i in range(7):
            assert fourier_hodge_matrix(A, i).unimodular
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


MEMBERSHIP_MODELS = [standard_ppav(3), OTHER_BASIS[0], E_RATIONAL]


@lru_cache(maxsize=None)
def cached_operator_matrix(V, k):
    return operator_matrix(V, k)


def operator_fixes(V, x):
    """Oracle of ``is_hodge`` in even degree 2k: ``T x == p^k x``, read
    off the dense ``T - p^k`` of :func:`operator_matrix`."""
    k = x.degree() // 2
    v = [x.coefficient(m) for m in degree_basis_masks(V.rank, 2 * k)]
    return all(sum(a * b for a, b in zip(row, v)) == 0 for row in cached_operator_matrix(V, k))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_is_hodge_matches_the_operator_oracle(data):
    V = data.draw(st.sampled_from(MEMBERSHIP_MODELS))
    k = data.draw(st.integers(0, V.genus))
    lat = hodge_lattice(V, k)
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=lat.rank, max_size=lat.rank))
    x = Multivector.zero(V.rank)
    for c, u in zip(coeffs, lat.basis_classes()):
        x = x + u * c
    noise = data.draw(st.dictionaries(st.sampled_from(lat.masks), st.integers(-3, 3), max_size=3))
    x = x + Multivector(V.rank, noise)
    if x.is_zero():
        assert is_hodge(V, x)
    else:
        assert is_hodge(V, x) == operator_fixes(V, x)
        if not noise:
            assert is_hodge(V, x)
    # odd degrees are never Hodge, whatever the class
    odd = data.draw(st.sampled_from(range(1, V.rank, 2)))
    terms = data.draw(
        st.dictionaries(st.sampled_from(degree_basis_masks(V.rank, odd)), st.integers(-3, 3), max_size=3)
    )
    y = Multivector(V.rank, terms)
    assert is_hodge(V, y) == y.is_zero()


def dense_coordinates(lat, c):
    """The sparse coordinates ``c`` of :meth:`HodgeLattice.coordinates`
    as a list with one entry per basis class; None stays None."""
    if c is None:
        return None
    dense = [0] * lat.rank
    for s, cj in c.items():
        dense[s] = cj
    return dense


def reference_coordinates(lat, x):
    """Full-basis oracle of ``HodgeLattice.coordinates``: one rational
    solve against every basis column, then the same integrality check."""
    sol = rational_solve(dense_basis(lat), [x.coefficient(m) for m in lat.masks])
    if sol is None:
        return None
    for j, c in enumerate(sol):
        if c.denominator != 1:
            raise CheckFailure(f"coordinate {j} = {c}", lat.basis_classes()[j] * c.numerator)
    return [int(c) for c in sol]


COORDINATE_LATTICES = [
    hodge_lattice(standard_ppav(3), 1),
    hodge_lattice(standard_ppav(3), 2),
    hodge_lattice(elliptic_product((1, 2)), 1),
    hodge_lattice(dual(elliptic_product((1, 1, 2))), 2),
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_coordinates_match_full_basis_solve(data):
    lat = data.draw(st.sampled_from(COORDINATE_LATTICES))
    classes = lat.basis_classes()
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=lat.rank, max_size=lat.rank))
    member = Multivector.zero(lat.A.rank)
    for c, u in zip(coeffs, classes):
        member = member + u * c
    # a non-member: random integer entries on a few ambient monomials
    noise = data.draw(
        st.dictionaries(st.sampled_from(lat.masks), st.integers(-3, 3), max_size=4)
    )
    for x in (member, member + Multivector(lat.A.rank, noise)):
        c = lat.coordinates(x)
        assert c is None or 0 not in c.values()
        assert dense_coordinates(lat, c) == reference_coordinates(lat, x)
    assert dense_coordinates(lat, lat.coordinates(member)) == coeffs


def test_lattice_memo_is_keyed_by_the_complex_structure():
    # two polarizations on one J: each computed from cold gives the same
    # lattice, so the (J, k) memo may serve one with the other's basis
    A, B = standard_ppav(5), elliptic_product((1, 1, 1, 2, 2))
    assert A.J == B.J and A.E != B.E
    for k in range(A.genus + 1):
        clear_caches()
        fresh = hodge_lattice(A, k)
        clear_caches()
        other = hodge_lattice(B, k)
        assert (other.masks, other.basis) == (fresh.masks, fresh.basis)
        served = hodge_lattice(A, k)
        assert (served.A, served.basis) == (A, fresh.basis)
        assert other.A is B


@pytest.mark.parametrize("A", OTHER_BASIS, ids=lambda A: f"genus {A.genus}")
def test_memoized_lattices_of_a_model_and_its_dual_match_the_dense_oracle(A):
    # in another basis -J^T != J, so A and its dual key different entries;
    # both stay in the memo while the other is computed
    Ah = dual(A)
    assert Ah.J != A.J
    clear_caches()
    for k in range(A.genus + 1):
        for V in (A, Ah, A):
            basis = kernel_saturated(derivation_matrix(V, k))
            assert dense_basis(hodge_lattice(V, k)) == basis
    # is_hodge reads the J of the side it is asked about
    for V in (A, Ah):
        assert all(is_hodge(V, u) for u in hodge_lattice(V, 1).basis_classes())
        assert not is_hodge(V, Multivector(V.rank, {0b11: 1}))


def test_clear_caches_empties_the_hodge_memos():
    A = standard_ppav(2)
    hodge_lattice(A, 1)
    theta_triple_sum(A)
    assert _lattice_tables.cache_info().currsize > 0
    assert theta_triple_sum.cache_info().currsize > 0
    assert _elliptic_product.cache_info().currsize > 0
    clear_caches()
    assert _lattice_tables.cache_info().currsize == 0
    assert theta_triple_sum.cache_info().currsize == 0
    assert _elliptic_product.cache_info().currsize == 0
    # a model is built once and then shared, equal to the one before
    assert standard_ppav(2) is standard_ppav(2) == A
    assert _elliptic_product.cache_info().misses == 1
    # beta_surjectivity pushes forward T for theta and each divisor basis
    # class, and builds it once
    assert run_check("beta_surjectivity", genus=3).status == "pass"
    assert theta_triple_sum.cache_info().misses == 1
