"""Hodge lattices: ranks, membership, certificates, parameter independence."""

import random
import signal
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelian_fourier.errors import (
    ImageNotInHodge,
    NoComplexStructure,
    NonIntegralResult,
    NotHodge,
    NotHomogeneous,
    RiemannRelationViolated,
    UnsupportedParams,
)
from abelian_fourier.exterior import Multivector, degree_basis_masks
from abelian_fourier.fourier import beta_from_divisor, poincare_class
from abelian_fourier.hodge import (
    HodgeLattice,
    fourier_hodge_matrix,
    hodge_lattice,
    is_hodge,
    voisin_certificate,
)
from abelian_fourier.intlinalg import (
    cokernel_invariants,
    kernel_saturated,
    kernel_saturated_reference,
    mat_mul,
    rational_solve,
)
from abelian_fourier.varieties import (
    dual,
    elliptic_product,
    make_variety,
    product,
    standard_ppav,
)
from test_exterior import apply_generator_images
from test_fourier import E8_HERMITIAN
from test_intlinalg import rational_inverse


def brute_force_hodge_rank(A, k, ab=(1, 2)):
    """Independent oracle: assemble the projector matrix entry by entry
    from 2k x 2k minors of a + bJ acting on the dual basis, then count the
    saturated kernel columns.
    """
    from abelian_fourier.intlinalg import det_bareiss  # noqa: F401  (exact minors)

    a, b = ab
    n = A.rank
    # dual-basis action: generator i maps to row i of a*I + b*J
    P = [
        [Fraction(a) if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            P[i][j] += Fraction(b) * A.J[i][j]
    cols = list(combinations(range(n), 2 * k))
    index = {c: i for i, c in enumerate(cols)}
    N = len(cols)
    M = [[Fraction(0)] * N for _ in range(N)]
    # Lambda^{2k} matrix entries are minors of P
    for s, rows_sel in enumerate(cols):
        for t, cols_sel in enumerate(cols):
            sub = [[P[i][j] for j in cols_sel] for i in rows_sel]
            # fraction-free expansion by permutations is too slow; use
            # rational Gaussian elimination for the determinant
            det = _rational_det(sub)
            M[index[cols_sel]][index[rows_sel]] = det
    lam = Fraction((a * a + b * b) ** k)
    for i in range(N):
        M[i][i] -= lam
    K = kernel_saturated(M)
    return len(K[0]) if K and K[0] else 0


def _rational_det(M):
    n = len(M)
    A = [row[:] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        inv = 1 / A[c][c]
        for r in range(c + 1, n):
            if A[r][c]:
                f = A[r][c] * inv
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


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


# the models whose dual takes -J^T: E^1 to E^4, three non-principal
# types, a rational J, and the duals of all of these
SIGN_MODELS = [standard_ppav(g) for g in (1, 2, 3, 4)] + [
    elliptic_product((1, 2)),
    elliptic_product((1, 1, 2)),
    elliptic_product((1, 1, 3)),
    make_variety([[0, 1], [-1, 0]], [[0, Fraction(-1, 2)], [2, 0]], name="E_rational"),
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
        plus = [list(col) for col in zip(*A.J)]
        with pytest.raises(RiemannRelationViolated):
            make_variety(dual(A).E, plus)
        # (aI + bJ)^2 != (a^2 + b^2) I: +J^T does not fix the pairing class
        n = A.rank
        P = [[(1 if i == j else 0) + 2 * A.J[i][j] for j in range(n)] for i in range(n)]
        assert mat_mul(P, P) != [[5 if i == j else 0 for j in range(n)] for i in range(n)]


def test_theta_is_hodge_every_model():
    for A in (standard_ppav(3), elliptic_product((1, 2)), elliptic_product((2, 2))):
        assert is_hodge(A, A.theta_class())


def test_parameter_validation():
    with pytest.raises(UnsupportedParams):
        hodge_lattice(standard_ppav(1), 5)


def test_saturation():
    for g in (2, 3):
        A = standard_ppav(g)
        for k in (1, g - 1):
            lat = hodge_lattice(A, k)
            cok = cokernel_invariants(
                [list(r) for r in lat.basis], lat.ambient_dimension()
            )
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
            sol = rational_solve([list(r) for r in lat.basis], v)
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
    with pytest.raises(NotHodge):
        # right type, wrong degree
        voisin_certificate(A, 2, [A.theta_class()])


def test_beta_classes_certify_curve_lattice():
    for g in (2, 3):
        A = standard_ppav(g)
        gens = [beta_from_divisor(A, D) for D in hodge_lattice(A, 1).basis_classes()]
        assert voisin_certificate(A, g - 1, gens).is_trivial


def test_beta_classes_certify_curve_lattice_on_the_hermitian_e8_model():
    # the coordinate matrix of these 16 curve classes has determinant +-1,
    # and the Smith form of its transpose does not finish in 15 s: the
    # alarm fails the test if the certificate stops taking the determinant
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


def test_fourier_hodge_matrix():
    for g in (1, 2, 3):
        A = standard_ppav(g)
        for i in range(g + 1):
            fm = fourier_hodge_matrix(A, i)
            assert fm.source_rank == fm.target_rank
            assert fm.unimodular
    B = elliptic_product((1, 2))
    for i in range(3):
        fm = fourier_hodge_matrix(B, i)
        assert fm.unimodular


def test_coordinates_reject_unsaturated_basis():
    # 2 e0e1 spans a non-saturated lattice: e0e1 has coordinate 1/2, which
    # must raise rather than be truncated, also when asserts are stripped
    lat = HodgeLattice(A=standard_ppav(1), k=1, masks=(0b11,), basis=((2,),))
    assert lat.coordinates(Multivector(2, {0b11: 2})) == [1]
    with pytest.raises(NonIntegralResult) as exc:
        lat.coordinates(Multivector(2, {0b11: 1}))
    # coordinate 1/2: its numerator times the basis class 2 e0e1
    assert exc.value.witness == Multivector(2, {0b11: 2})

    # two blocks, both unsaturated: coordinates (1/2, 1/3); the witness is
    # still the first fractional coordinate's, as in one full-basis solve
    A = standard_ppav(2)
    masks = (0b0011, 0b0101, 0b0110, 0b1100)
    two = HodgeLattice(A=A, k=1, masks=masks, basis=((2, 0), (2, 0), (0, 0), (0, 3)))
    assert two._blocks == ([([0, 1], [0], [[2], [2]]), ([3], [1], [[3]])], [2])
    assert two.coordinates(Multivector(4, {0b0011: 4, 0b0101: 4, 0b1100: -3})) == [2, -1]
    x = Multivector(4, {0b0011: 1, 0b0101: 1, 0b1100: 1})
    with pytest.raises(NonIntegralResult) as exc:
        two.coordinates(x)
    assert exc.value.witness == Multivector(4, {0b0011: 2, 0b0101: 2})
    assert exc.value.witness == _outcome(reference_coordinates, two, x)[1]
    # saturated in its first block only: the second block's 1/3 is reported
    half = HodgeLattice(A=A, k=1, masks=masks, basis=((1, 0), (1, 0), (0, 0), (0, 3)))
    with pytest.raises(NonIntegralResult) as exc:
        half.coordinates(x)
    assert exc.value.witness == Multivector(4, {0b1100: 3})
    # inconsistent in one block, or nonzero outside every block: not a
    # member, whatever the other block says
    assert two.coordinates(Multivector(4, {0b0011: 1, 0b1100: 1})) is None
    assert two.coordinates(Multivector(4, {0b0110: 1, 0b1100: 1})) is None


def in_span(basis, v):
    """Whether v has integral coordinates in the columns of basis."""
    sol = rational_solve([list(r) for r in basis], v)
    return sol is not None and all(c.denominator == 1 for c in sol)


ORACLE_MODELS = [standard_ppav(g) for g in (1, 2, 3, 4)] + [
    elliptic_product((1, 2)),
    elliptic_product((1, 1, 2)),
]


def operator_matrix(V, k, ab=(1, 2)):
    """Dense oracle of the operator ``hodge_lattice`` builds as sparse
    rows: the matrix of ``T - p^k`` on the degree-2k monomial basis, T the
    (a + bJ)-action, one generator-image column at a time.  Generator i
    goes to row i of ``aI + bJ``."""
    a, b = ab
    n = V.rank
    rows_op = [[(j, b * V.J[i][j]) for j in range(n) if V.J[i][j]] + [(i, a)] for i in range(n)]
    masks = degree_basis_masks(V.rank, 2 * k)
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    M = [[0] * n for _ in range(n)]
    for j, mask in enumerate(masks):
        image = apply_generator_images(Multivector(V.rank, {mask: 1}), rows_op)
        for m, c in image.items():
            M[index[m]][j] = c
    p = ab[0] ** 2 + ab[1] ** 2
    for i in range(n):
        M[i][i] -= p**k
    return M


@pytest.mark.parametrize(
    "V",
    ORACLE_MODELS + [dual(A) for A in ORACLE_MODELS],
    ids=lambda V: V.name,
)
def test_hodge_lattice_spans_oracle_lattice(V):
    # the block kernel and the whole-matrix Smith-form kernel of T - p^k
    # span the same lattice
    for k in range(V.genus + 1):
        lat = hodge_lattice(V, k)
        ref = kernel_saturated_reference(operator_matrix(V, k))
        assert lat.rank == len(ref[0])
        for j in range(lat.rank):
            assert in_span(ref, [row[j] for row in lat.basis])
            assert in_span(lat.basis, [row[j] for row in ref])


def test_parameter_independence():
    # the lattice for the fixed parameter (1, 2) is the kernel for any
    # other Gaussian prime, here (2, 3) of norm 13 and the conjugate (2, 1)
    for A in (standard_ppav(2), elliptic_product((1, 2))):
        for k in range(A.genus + 1):
            lat = hodge_lattice(A, k)
            for ab in ((2, 3), (2, 1)):
                ref = kernel_saturated_reference(operator_matrix(A, k, ab))
                assert lat.rank == len(ref[0])
                for j in range(lat.rank):
                    assert in_span(ref, [row[j] for row in lat.basis])
                    assert in_span(lat.basis, [row[j] for row in ref])


def test_unit_parameter_is_inadmissible():
    # a + bJ of norm 1 fixes every eigenvalue i^{p-q} with p = q mod 4, so
    # at genus 4, degree 4 its kernel also holds the (4, 0) and (0, 4) parts
    A = standard_ppav(4)
    assert hodge_lattice(A, 2).rank == 36
    assert len(kernel_saturated(operator_matrix(A, 2, (0, 1)))[0]) == 38


DENSE_MODELS = [standard_ppav(g) for g in (1, 2, 3, 4, 5)] + [elliptic_product((1, 1, 1, 2, 2))]


@pytest.mark.parametrize(
    "V",
    DENSE_MODELS + [dual(A) for A in DENSE_MODELS],
    ids=lambda V: V.name,
)
def test_sparse_operator_rows_give_the_dense_kernel_basis(V):
    # the sparse rows built from the generator images and the dense matrix
    # through kernel_saturated give the same basis, not only the same lattice
    for k in range(V.genus + 1):
        basis = kernel_saturated(operator_matrix(V, k))
        assert hodge_lattice(V, k).basis == tuple(tuple(row) for row in basis)


def reference_coordinates(lat, x):
    """Full-basis oracle of ``HodgeLattice.coordinates``: one rational
    solve against every basis column, then the same integrality check."""
    sol = rational_solve([list(r) for r in lat.basis], lat.ambient_vector(x))
    if sol is None:
        return None
    for j, c in enumerate(sol):
        if c.denominator != 1:
            raise NonIntegralResult(f"coordinate {j} = {c}", lat.basis_classes()[j] * c.numerator)
    return [int(c) for c in sol]


def _scaled(lat, scales):
    """The same columns multiplied by the given scales: unsaturated when a
    scale is not 1."""
    basis = tuple(tuple(v * s for v, s in zip(row, scales)) for row in lat.basis)
    return HodgeLattice(A=lat.A, k=lat.k, masks=lat.masks, basis=basis)


COORDINATE_LATTICES = [
    hodge_lattice(standard_ppav(3), 1),
    hodge_lattice(standard_ppav(3), 2),
    hodge_lattice(elliptic_product((1, 2)), 1),
    hodge_lattice(dual(elliptic_product((1, 1, 2))), 2),
]


def _outcome(fn, lat, x):
    try:
        return fn(lat, x)
    except NonIntegralResult as exc:
        return ("NonIntegralResult", exc.witness)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_coordinates_match_full_basis_solve(data):
    saturated = data.draw(st.sampled_from(COORDINATE_LATTICES))
    scales = data.draw(
        st.lists(st.sampled_from((1, 1, 1, 2, -3)), min_size=saturated.rank, max_size=saturated.rank)
    )
    lat = data.draw(st.sampled_from((saturated, _scaled(saturated, scales))))
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
        expected = _outcome(reference_coordinates, lat, x)
        got = _outcome(HodgeLattice.coordinates, lat, x)
        assert got == expected
    if lat is saturated:
        assert lat.coordinates(member) == coeffs
