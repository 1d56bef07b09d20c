"""Exact cohomological Fourier calculus for complex abelian varieties.

The package models integral cohomology rings of abelian varieties as
exterior algebras over the integers, implements the Fourier transform and
the Pontryagin convolution calculus exactly, computes lattices of Hodge
classes for models with rational complex multiplication, and machine
verifies a battery of identities of the calculus, producing Smith-form
certificates that distinguished curve classes generate the full one-cycle
Hodge lattice on the shipped models.
"""

__version__ = "0.1.0"

from .errors import (
    CheckFailure,
    ComplexStructureInvalid,
    ImageNotInHodge,
    InvalidType,
    NoComplexStructure,
    NonDivisible,
    NonTerminatingSeries,
    NotAlternating,
    NotHodge,
    NotHomogeneous,
    NotIsogeny,
    NotSymmetric,
    RankMismatch,
    RiemannRelationViolated,
    SingularPolarization,
    UnknownCheck,
    UnsupportedParams,
)
from .exterior import Multivector, integrate, wedge_sign
from .intlinalg import (
    CokernelInvariants,
    SmithDecomposition,
    cokernel_invariants,
    is_positive_definite,
    kernel_saturated,
    kernel_saturated_reference,
    smith_normal_form,
)
from .varieties import (
    AbelianVariety,
    Homomorphism,
    ProductStructure,
    dual,
    elliptic_product,
    make_variety,
    polarization_isogeny,
    product,
    scalar_hom,
    standard_ppav,
    structure_homs,
)
from .fourier import (
    PoincareContext,
    beta_from_divisor,
    beta_from_divisor_reference,
    context,
    correspondence_action,
    fourier,
    fourier_reference,
    inverse_fourier,
    named_class,
    poincare_class,
    pontryagin,
    pontryagin_reference,
    star_divided_power,
    star_exponential,
)
from .hodge import (
    FourierHodgeMatrix,
    HodgeLattice,
    fourier_hodge_matrix,
    hodge_lattice,
    is_hodge,
    voisin_certificate,
)
from .suite import CheckDescriptor, CheckResult, REGISTRY, default_suite, run_check, run_suite


def clear_caches():
    """Drop all internal memoization.

    The memos are the models of ``varieties.elliptic_product``,
    ``varieties.dual``, ``varieties.polarization_isogeny``,
    ``varieties.product``, ``varieties.structure_homs``, ``fourier.context``,
    ``fourier.theta_triple_sum``, and in ``hodge`` the lattice per complex
    structure and degree (``_lattice_tables``).
    The caches are semantically invisible; this exists for tests that
    deliberately corrupt a convention and need fresh constructions, and
    for timing a pass from cold.
    """
    import sys

    # the exported `fourier` function shadows the submodule attribute, so
    # resolve the modules through sys.modules
    _varieties = sys.modules["abelian_fourier.varieties"]
    _fourier = sys.modules["abelian_fourier.fourier"]
    _hodge = sys.modules["abelian_fourier.hodge"]
    _varieties._elliptic_product.cache_clear()
    _varieties.dual.cache_clear()
    _varieties.polarization_isogeny.cache_clear()
    _varieties.product.cache_clear()
    _varieties.structure_homs.cache_clear()
    _fourier.context.cache_clear()
    _fourier.theta_triple_sum.cache_clear()
    _hodge._lattice_tables.cache_clear()
