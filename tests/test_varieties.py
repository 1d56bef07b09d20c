"""Variety model: validation, duality, products, functorial maps."""

import random
import sys
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelian_fourier import clear_caches
from abelian_fourier.errors import (
    ComplexStructureInvalid,
    InvalidType,
    NotAlternating,
    NotIsogeny,
    RankMismatch,
    RiemannRelationViolated,
    SingularPolarization,
)
from abelian_fourier.exterior import Multivector, wedge_sign
from abelian_fourier.fourier import fourier, graph_of_polarization
from abelian_fourier.hodge import _derive, _slot_rows
from abelian_fourier.intlinalg import mat_mul
from abelian_fourier.suite import _gaussian_hom, default_suite, run_suite
from abelian_fourier.varieties import (
    Homomorphism,
    _pfaffian,
    dual,
    elliptic_product,
    gaussian_elliptic_curve,
    identity_hom,
    make_variety,
    polarization_isogeny,
    product,
    scalar_hom,
    standard_ppav,
    structure_homs,
)
from test_exterior import apply_generator_images
from test_fourier import E8_HERMITIAN, other_basis

STD_E = [[0, 1], [-1, 0]]
STD_J = [[0, -1], [1, 0]]


def rand_mv(rng, rank, terms=3):
    return Multivector(rank, {rng.randrange(1 << rank): rng.randint(-3, 3) for _ in range(terms)})


def adjoint_pushforward(f, x):
    """Reference pushforward read off the adjunction with the pullback.

    The coefficient of ``e_w`` in ``f_* x`` is, up to the orientations and
    ``wedge_sign(w, U)`` with ``U`` the complement of ``w``, the top
    coefficient of ``x ^ f^*(e_U)``: one pullback and one wedge per
    target subset.
    """
    nA, nB = f.source.rank, f.target.rank
    full_A, full_B = (1 << nA) - 1, (1 << nB) - 1
    out = {}
    for k in sorted(x.degrees()):
        xk = x.graded_component(k)
        for combo in combinations(range(nB), nA - k):
            u = sum(1 << i for i in combo)
            top = xk.wedge(f.pullback(Multivector(nB, {u: 1}))).coefficient(full_A)
            if top:
                w = full_B ^ u
                sign = f.source.orientation * f.target.orientation * wedge_sign(w, u)
                out[w] = out.get(w, 0) + sign * top
    return Multivector(nB, out)


def oracle_pullback(f, y):
    """The pullback by the per-monomial loop, sharing nothing with f."""
    rows = [[(j, e) for j, e in enumerate(row) if e] for row in f.matrix]
    return Multivector(f.source.rank, apply_generator_images(y, rows))


def oracle_pushforward(f, x):
    """The pushforward by the per-monomial loop on the columns, with the
    Poincare-duality signs taken from ``wedge_sign``."""
    nA, nB = f.source.rank, f.target.rank
    full_A, full_B = (1 << nA) - 1, (1 << nB) - 1
    homology = Multivector(nA, {full_A ^ m: wedge_sign(m, full_A ^ m) * c for m, c in x.items()})
    cols = [[(i, row[j]) for i, row in enumerate(f.matrix) if row[j]] for j in range(nA)]
    sign = f.source.orientation * f.target.orientation
    out = {}
    for u, c in apply_generator_images(homology, cols).items():
        w = full_B ^ u
        out[w] = sign * wedge_sign(w, u) * c
    return Multivector(nB, out)


def theta_top_coefficient(E):
    """Top coefficient of ``theta^g / g!`` for the 2-form of E."""
    n = len(E)
    theta = Multivector(
        n, {(1 << i) | (1 << j): E[i][j] for i in range(n) for j in range(i + 1, n)}
    )
    g = n // 2
    return theta.wedge_power(g).divide_exact(factorial(g)).coefficient((1 << n) - 1)


def test_make_variety_gaussian_curve():
    A = make_variety(STD_E, STD_J)
    assert A.genus == 1
    assert A.polarization_type == (1,)
    assert A.orientation == 1
    assert A.is_principal


def test_make_variety_rejects_wrong_sign_J():
    # E J is negative definite for the transposed structure
    with pytest.raises(RiemannRelationViolated):
        make_variety(STD_E, [[0, 1], [-1, 0]])


def test_make_variety_rejects_non_alternating():
    with pytest.raises(NotAlternating):
        make_variety([[1, 0], [0, 1]])
    with pytest.raises(NotAlternating):
        make_variety([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def test_make_variety_rejects_singular():
    with pytest.raises(SingularPolarization):
        make_variety([[0, 0], [0, 0]])


def test_make_variety_rejects_bad_J_square():
    with pytest.raises(ComplexStructureInvalid):
        make_variety(STD_E, [[1, 0], [0, 1]])


def test_make_variety_rejects_incompatible_J():
    # rank 4 symplectic form; rotating the y-plane against the x-plane gives
    # J^2 = -1 with E(x, Jy) non-symmetric (compatibility failure)
    E = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    J_bad = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    with pytest.raises(RiemannRelationViolated):
        make_variety(E, J_bad)
    # same-direction rotation is compatible but E(x, Jx) is indefinite
    J_indef = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    with pytest.raises(RiemannRelationViolated):
        make_variety(E, J_indef)


def test_rational_J_accepted():
    # a rational conjugate of the Gaussian structure is a valid CM model
    J = [[Fraction(0), Fraction(-1, 2)], [Fraction(2), Fraction(0)]]
    A = make_variety(STD_E, J)
    assert A.J is not None and A.polarization_type == (1,)
    # integral entries are read as ints, the rest stay exact Fractions
    assert A.J == ((0, Fraction(-1, 2)), (2, 0))
    assert [type(x) for x in A.J[1]] == [int, int]
    # D_J(e_0 + e_1) is the sum of the rows of J
    image = _derive(_slot_rows(A.J), [(0b01, 1), (0b10, 1)])
    assert image == {0b10: Fraction(-1, 2), 0b01: 2}
    assert type(image[0b01]) is int


def test_integral_J_is_int_on_every_construction():
    A = elliptic_product((1, 2))
    for V in (A, dual(A), product(A, dual(A)).variety):
        assert all(type(x) is int for row in V.J for x in row)
        terms = [(1 << i, 1) for i in range(V.rank)] + [(0b11, 1), (0b101, 1)]
        assert all(type(c) is int for c in _derive(_slot_rows(V.J), terms).values())


def test_integral_J_builds_no_fraction(monkeypatch):
    # int entries of J are kept as they are, not sent through Fraction;
    # varieties imports Fraction when it builds one, so the module is patched
    import fractions

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built for an integral J")

    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    A = elliptic_product((1, 1, 2))
    assert all(type(x) is int for row in A.J for x in row)
    assert make_variety(A.E, [list(r) for r in A.J]).J == A.J


def test_theta_class_examples():
    A = gaussian_elliptic_curve()
    assert A.theta_class() == Multivector(2, {0b11: 1})
    B = elliptic_product((1, 2))
    # Frobenius layout: x1 y1 + 2 x2 y2 with x = bits 0,1 and y = bits 2,3
    assert B.theta_class() == Multivector(4, {0b0101: 1, 0b1010: 2})
    top = B.theta_class().wedge_power_divided(2)
    assert B.integrate(top) == 2


def test_theta_top_integral_principal():
    for g in range(1, 6):
        A = standard_ppav(g)
        assert A.integrate(A.theta_class().wedge_power_divided(g)) == 1


def test_elliptic_product_type_validation():
    with pytest.raises(InvalidType):
        elliptic_product((2, 3))
    with pytest.raises(InvalidType):
        elliptic_product((0, 2))
    assert elliptic_product((1, 2, 4)).polarization_type == (1, 2, 4)


def test_dual_involution_and_structure():
    for A in (gaussian_elliptic_curve(), standard_ppav(2), elliptic_product((1, 2))):
        Ah = dual(A)
        assert Ah.rank == A.rank
        J2 = mat_mul([list(r) for r in Ah.J], [list(r) for r in Ah.J])
        assert all(J2[i][i] == -1 for i in range(A.rank))
        assert dual(Ah) == A
        assert A.negative == 0 and Ah.negative == (1 << A.rank) - 1


@pytest.mark.parametrize("gA, gB", [(1, 2), (2, 1)])
def test_dual_of_product_is_product_of_duals(gA, gB):
    # every field but the name agrees, the negative mask included
    A, B = standard_ppav(gA), standard_ppav(gB)
    lhs = dual(product(A, B).variety)
    rhs = product(dual(A), dual(B)).variety
    assert lhs.name != rhs.name
    assert lhs._replace(name=rhs.name) == rhs
    # a product mixing a variety and a dual carries the dual's mask, shifted
    assert product(A, dual(B)).variety.negative == ((1 << B.rank) - 1) << A.rank


def test_dual_type():
    assert dual(elliptic_product((1, 2))).polarization_type == (1, 2)
    assert dual(elliptic_product((1, 1, 2))).polarization_type == (1, 2, 2)
    assert dual(dual(elliptic_product((1, 1, 2)))).polarization_type == (1, 1, 2)


# a rational conjugate of the Gaussian structure (see test_rational_J_accepted)
RATIONAL_J = make_variety(STD_E, [[0, Fraction(-1, 2)], [2, 0]], name="E_rational")

TRUSTED_BASES = (
    [standard_ppav(g) for g in range(1, 6)]
    + [elliptic_product(t) for t in ((1, 2), (1, 1, 2), (1, 1, 3), (1, 2, 4))]
    + [
        other_basis(standard_ppav(2), random.Random(16), 16),
        other_basis(standard_ppav(3), random.Random(16), 16),
        E8_HERMITIAN,
        RATIONAL_J,
    ]
)


def assert_matches_make_variety(X):
    # make_variety runs every check again (Smith form, J^2, Riemann
    # relations, positivity, Pfaffian); the mask is not its to set.  Equal
    # hashes keep the memo keys (dual, product, the Hodge tables) shared.
    Y = make_variety(X.E, X.J, X.name)._replace(negative=X.negative)
    assert X == Y and hash(X) == hash(Y)


@pytest.mark.parametrize("A", TRUSTED_BASES, ids=lambda A: A.name)
def test_trusted_varieties_match_make_variety(A):
    # elliptic_product, dual and product build their models without
    # validation; each must be the model the validating constructor builds
    for X in (A, dual(A), dual(dual(A)), product(A, dual(A)).variety):
        assert_matches_make_variety(X)
    assert dual(dual(A)) == A


def test_product_type_is_not_the_union_of_factor_types():
    P = product(elliptic_product((2,)), elliptic_product((3,))).variety
    assert P.polarization_type == (1, 6)
    assert_matches_make_variety(P)
    assert_matches_make_variety(dual(P))
    assert dual(P).polarization_type == (1, 6)


def test_trusted_homomorphisms_pass_the_public_checks(monkeypatch):
    # record every map built without the intertwining check, with the
    # function that built it, over a whole suite run and a few direct calls
    built = []
    trusted = Homomorphism._trusted.__func__

    def recording(cls, *args):
        h = trusted(cls, *args)
        built.append((sys._getframe(1).f_code.co_name, h))
        return h

    monkeypatch.setattr(Homomorphism, "_trusted", classmethod(recording))
    clear_caches()
    run_suite(default_suite(genus=2))
    for A in (elliptic_product((1, 2)), RATIONAL_J, E8_HERMITIAN):
        polarization_isogeny(A).dual_hom()
        graph_of_polarization(A)
        identity_hom(A).compose(scalar_hom(A, -2))
    assert {name for name, _ in built} == {
        "compose",
        "dual_hom",
        "graph_of_polarization",
        "hom",  # the projections and inclusions of product
        "polarization_isogeny",
        "projection",  # p13 and p24 of the 4-fold product
        "scalar_hom",
        "structure_homs",
    }
    for _, h in built:
        assert all(type(x) is int for row in h.matrix for x in row)
        # raises RankMismatch or ComplexStructureInvalid on a bad map
        assert Homomorphism(h.source, h.target, h.matrix, h.holomorphic) == h


def test_compose_through_a_variety_without_J_is_checked():
    # neither factor's flag can be checked against a missing J, so the
    # composite of two such maps goes through the public constructor
    E1 = gaussian_elliptic_curve()
    bare = make_variety(STD_E, name="no J")
    conj = Homomorphism(E1, bare, ((1, 0), (0, -1)), True)
    ident = Homomorphism(bare, E1, ((1, 0), (0, 1)), True)
    with pytest.raises(ComplexStructureInvalid):
        ident.compose(conj)
    assert ident.compose(Homomorphism(E1, bare, ((1, 0), (0, 1)), True)) == identity_hom(E1)


def test_polarization_isogeny():
    A = standard_ppav(2)
    lam = polarization_isogeny(A)
    assert lam.degree() == 1
    assert lam.holomorphic
    B = elliptic_product((1, 2))
    assert polarization_isogeny(B).degree() == 4  # (d1 d2)^2


def test_product_structure():
    E1 = gaussian_elliptic_curve()
    P = product(E1, E1)
    assert P.variety.rank == 4
    assert P.variety.polarization_type == (1, 1)
    # theta of the product is the sum of the factor pullbacks
    th = P.variety.theta_class()
    assert th == P.pull_first(E1.theta_class()) + P.pull_second(E1.theta_class())
    # Kunneth: integrate over the product multiplies factor integrals
    rng = random.Random(5)
    for _ in range(10):
        x, y = rand_mv(rng, 2), rand_mv(rng, 2)
        lhs = P.variety.integrate(P.pull_first(x).wedge(P.pull_second(y)))
        assert lhs == E1.integrate(x) * E1.integrate(y)


def test_pullback_scaling_and_projection():
    A = standard_ppav(2)
    n2 = scalar_hom(A, 2)
    theta = A.theta_class()
    assert n2.pullback(theta) == theta * 4
    sq = product(A, A)
    assert sq.pi1.pullback(theta) == sq.pull_first(theta)
    assert sq.pi2.pullback(theta) == sq.pull_second(theta)


def test_pushforward_adjoint_property():
    rng = random.Random(11)
    E1 = gaussian_elliptic_curve()
    A = standard_ppav(2)
    homs = [
        product(E1, E1).j1,
        product(E1, E1).pi2,
        structure_homs(E1).m,
        structure_homs(A).diagonal,
        scalar_hom(A, 3),
    ]
    for f in homs:
        for _ in range(8):
            x = rand_mv(rng, f.source.rank)
            y = rand_mv(rng, f.target.rank)
            lhs = f.target.integrate(f.pushforward(x).wedge(y))
            rhs = f.source.integrate(x.wedge(f.pullback(y)))
            assert lhs == rhs


def test_pushforward_fast_paths_agree_with_adjoint():
    rng = random.Random(13)
    A, B = standard_ppav(1), standard_ppav(2)
    P = product(A, B)
    for _ in range(10):
        z = rand_mv(rng, P.variety.rank, terms=5)
        assert P.push_second(z) == P.pi2.pushforward(z)


def test_pushforward_examples():
    E1 = gaussian_elliptic_curve()
    P = product(E1, dual(E1))
    one = Multivector.unit(2)
    # zero-section inclusions push the fundamental class to the fiber classes
    assert P.j1.pushforward(one) == Multivector(4, {0b1100: 1})
    assert P.j2.pushforward(one) == Multivector(4, {0b0011: 1})
    # fiber integration of a split monomial
    z = Multivector(4, {0b0111: 5})  # e0 e1 e2 = (full first factor) ^ e2
    assert P.push_second(z) == Multivector(2, {0b01: 5})
    # an isogeny pushes then pulls the point class by its degree
    alpha = scalar_hom(E1, 2)
    pt = E1.point_class()
    assert alpha.pullback(alpha.pushforward(pt)) == pt * 4
    assert alpha.pushforward(E1.fundamental_class()) == E1.fundamental_class() * 4


def test_hom_composition_and_degree():
    A = standard_ppav(2)
    f = scalar_hom(A, 2)
    g = scalar_hom(A, 3)
    assert f.compose(g).matrix == scalar_hom(A, 6).matrix
    assert f.degree() == 2 ** 4
    assert f.compose(g).degree() == f.degree() * g.degree()
    with pytest.raises(NotIsogeny):
        scalar_hom(A, 0).degree()
    rng = random.Random(19)
    for _ in range(10):
        x = rand_mv(rng, 4)
        assert f.compose(g).pullback(x) == g.pullback(f.pullback(x))
        assert f.compose(g).pushforward(x) == f.pushforward(g.pushforward(x))


def test_dual_hom():
    A = standard_ppav(2)
    f = scalar_hom(A, 3)
    assert f.dual_hom().matrix == scalar_hom(dual(A), 3).matrix
    assert f.dual_hom().dual_hom() == f
    rng = random.Random(23)
    M = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
    while not any(any(r) for r in M):
        M = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
    h = Homomorphism(A, A, tuple(tuple(r) for r in M), False)
    try:
        assert h.dual_hom().degree() == h.degree()
    except NotIsogeny:
        pass


def test_structure_homs_identities():
    A = standard_ppav(2)
    sh = structure_homs(A)
    two = scalar_hom(A, 2)
    assert sh.m.compose(sh.diagonal).matrix == two.matrix
    assert sh.m.compose(sh.square.j1).matrix == identity_hom(A).matrix
    # m^* on a degree-1 generator is a (x) 1 + 1 (x) a
    a = Multivector.generator(A.rank, 0)
    assert sh.m.pullback(a) == sh.square.pull_first(a) + sh.square.pull_second(a)
    # diagonal^* . m^* scales degree k by 2^k
    rng = random.Random(29)
    for _ in range(8):
        k = rng.randint(0, A.rank)
        mask = sum(1 << i for i in rng.sample(range(A.rank), k))
        x = Multivector(A.rank, {mask: 1})
        assert sh.diagonal.pullback(sh.m.pullback(x)) == x * (2 ** k)


def test_holomorphic_flag_validation():
    E1 = gaussian_elliptic_curve()
    # complex conjugation on homology is not holomorphic for J
    M = ((1, 0), (0, -1))
    with pytest.raises(ComplexStructureInvalid):
        Homomorphism(E1, E1, M, True)
    # nor is a shear inside one factor of a product
    P = product(E1, E1).variety
    shear = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ComplexStructureInvalid):
        Homomorphism(P, P, shear, True)
    h = Homomorphism(E1, E1, M, False)
    assert h.degree() == 1


def test_hom_shape_validation():
    E1 = gaussian_elliptic_curve()
    A = standard_ppav(2)
    with pytest.raises(RankMismatch):
        Homomorphism(E1, A, ((1, 0), (0, 1)), False)
    with pytest.raises(RankMismatch):
        identity_hom(E1).pullback(Multivector.unit(4))


@pytest.mark.parametrize("half", [Fraction(1, 2), 0.5], ids=["Fraction", "float"])
def test_homomorphism_rejects_non_integer_entries(half):
    # a rational entry gave pushforward a Fraction coefficient and a float
    # one crashed pullback; both are input errors when the map is built
    E1 = gaussian_elliptic_curve()
    with pytest.raises(TypeError):
        Homomorphism(E1, E1, ((half, 0), (0, 1)), False)


def _fixed_homs():
    E1 = gaussian_elliptic_curve()
    P = product(E1, E1)
    return [
        P.j1,
        P.j2,
        P.pi1,
        P.pi2,
        structure_homs(E1).m,
        structure_homs(E1).diagonal,
        graph_of_polarization(E1),
        polarization_isogeny(elliptic_product((1, 2))),
        polarization_isogeny(elliptic_product((1, 2))).dual_hom(),
    ]


@st.composite
def homs(draw):
    """A shipped non-square or isogeny hom, or a random Gaussian hom,
    with source and target ranks adding up to at most 8."""
    fixed = _fixed_homs()
    pick = draw(st.integers(0, len(fixed)))
    if pick < len(fixed):
        return fixed[pick]
    h1 = draw(st.integers(1, 3))
    h2 = draw(st.integers(1, 4 - h1))
    block = st.lists(st.lists(st.integers(-3, 3), min_size=h1, max_size=h1),
                     min_size=h2, max_size=h2)
    P, Q = draw(block), draw(block)
    M = [P[i] + [-x for x in Q[i]] for i in range(h2)] + [Q[i] + P[i] for i in range(h2)]
    return Homomorphism(standard_ppav(h1), standard_ppav(h2), tuple(map(tuple, M)), True)


def classes(rank):
    term = st.tuples(st.integers(0, (1 << rank) - 1), st.integers(-3, 3))
    return st.lists(term, max_size=6).map(lambda ts: Multivector(rank, dict(ts)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pushforward_matches_adjoint_reference(data):
    f = data.draw(homs())
    x = data.draw(classes(f.source.rank))
    y = data.draw(classes(f.target.rank))
    pushed = f.pushforward(x)
    assert pushed == adjoint_pushforward(f, x)
    assert f.target.integrate(pushed.wedge(y)) == f.source.integrate(x.wedge(f.pullback(y)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pfaffian_matches_theta_power(data):
    g = data.draw(st.integers(0, 4))
    n = 2 * g
    E = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            E[i][j] = data.draw(st.integers(-2, 2))
            E[j][i] = -E[i][j]
    if n and data.draw(st.booleans(), label="singular"):
        # a zero row and column forces a zero Pfaffian
        k = data.draw(st.integers(0, n - 1))
        for i in range(n):
            E[k][i] = E[i][k] = 0
    assert _pfaffian(E) == theta_top_coefficient(E)


def test_reused_hom_tables_keep_their_entries():
    # one Gaussian hom keeps its exterior-power tables across calls: every
    # mask is pulled back and pushed forward twice, with random classes
    # sent through the same tables in between, and every answer must be
    # the oracle's, so an entry changed after it was stored shows up
    rng = random.Random(41)
    X, Y = standard_ppav(2), standard_ppav(3)
    f = Homomorphism(X, Y, tuple(map(tuple, _gaussian_hom(rng, 2, 3))), True)
    for _ in range(2):
        for mask in range(1 << Y.rank):
            y = Multivector(Y.rank, {mask: 1})
            assert f.pullback(y) == oracle_pullback(f, y)
            x = rand_mv(rng, X.rank, terms=4)
            assert f.pushforward(x) == oracle_pushforward(f, x)
        for mask in range(1 << X.rank):
            x = Multivector(X.rank, {mask: 1})
            pushed = f.pushforward(x)
            assert pushed == oracle_pushforward(f, x)
            assert pushed == adjoint_pushforward(f, x)
            y = rand_mv(rng, Y.rank, terms=4)
            assert f.pullback(y) == oracle_pullback(f, y)


@pytest.mark.parametrize("h_src, h_tgt", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("dual_first", [False, True], ids=["map first", "dual first"])
def test_dual_hom_shares_tables_with_the_map(h_src, h_tgt, dual_first):
    # the dual pulls back through the map's pushforward table and pushes
    # forward through its pullback table; on every mask its answers are
    # those of the same dual rebuilt through the public constructor, whose
    # tables are its own, whichever side fills the shared tables first
    rng = random.Random(10 * h_src + h_tgt)
    X, Y = standard_ppav(h_src), elliptic_product((1,) * (h_tgt - 1) + (2,))
    f = Homomorphism(X, Y, tuple(map(tuple, _gaussian_hom(rng, h_src, h_tgt))), True)
    fhat = f.dual_hom()
    assert fhat._pullback_power is f._pushforward_power
    assert fhat._pushforward_power is f._pullback_power
    assert fhat.dual_hom()._pullback_power is f._pullback_power
    rebuilt = Homomorphism(fhat.source, fhat.target, fhat.matrix, fhat.holomorphic)
    assert rebuilt == fhat and rebuilt._pullback_power is not fhat._pullback_power
    for side in ((fhat, f) if dual_first else (f, fhat)):
        # the map's own calls only fill the shared tables
        for mask in range(1 << side.target.rank):
            y = Multivector(side.target.rank, {mask: 1})
            got = side.pullback(y)
            if side is fhat:
                assert got == rebuilt.pullback(y)
        for mask in range(1 << side.source.rank):
            x = Multivector(side.source.rank, {mask: 1})
            got = side.pushforward(x)
            if side is fhat:
                assert got == rebuilt.pushforward(x)


def assert_clean(out: Multivector):
    # what a kernel hands back is what the public constructor would build
    assert all(type(c) is int and c for _, c in out.items())
    assert out == Multivector(out.rank, dict(out.items()))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_outputs_are_valid_classes(data):
    # the kernels build their results without validation; each result must
    # still have int coefficients, none of them zero
    f = data.draw(homs())
    x, y = data.draw(classes(f.source.rank)), data.draw(classes(f.source.rank))
    z = data.draw(classes(f.target.rank))
    P = product(f.source, f.target)
    even = Multivector(x.rank, {m: c for m, c in x.items() if m and m.bit_count() % 2 == 0})
    k = data.draw(st.integers(0, 4), label="k")
    for out in (
        x + y,
        x - y,
        -x,
        x.wedge(y),
        even.wedge_power_divided(k),
        fourier(f.source, x),
        f.pushforward(x),
        f.pullback(z),
        P.pull_first(x),
        P.pull_second(z),
    ):
        assert_clean(out)
    # equal to the empty class only if no zero coefficient was kept
    assert x - x == Multivector.zero(x.rank) == x + -x
