"""Exception types shared across the package.

Every mathematically meaningful failure mode gets its own class so that
callers (in particular the verification suite and the CLI) can turn
exceptions into reported findings instead of stack traces.
"""


class RankMismatch(ValueError):
    """Operands live in exterior algebras on different generator counts."""


class CheckFailure(ArithmeticError):
    """A mathematical identity or integrality statement failed.

    ``witness`` is a nonzero integral class locating the failure.  The
    suite reports every subclass raised in a check body as a ``fail``
    carrying that witness, and the CLI exits 1 on one, never 2: these are
    findings about the mathematics, not input errors.
    """

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(message)


class NonIntegralResult(CheckFailure):
    """A rational linear map produced a non-integer coefficient.

    Raised when pulling back an integral class along a rational matrix
    leaves a fractional term, which signals that the map does not act on
    the integral lattice, and when a class has a fractional coordinate in
    a lattice basis that should be saturated.  The witness is the
    numerator of the offending coefficient on its monomial, or of the
    offending coordinate times its lattice basis class.
    """


class NonDivisible(CheckFailure):
    """Exact division of a class by an integer failed.

    Carries the first offending term: ``mask`` is the basis monomial
    (bitmask over generators), ``coefficient`` the integer that is not
    divisible by ``divisor``, and ``rank`` the generator count of the
    class it belongs to.  The witness is that term as a class.
    """

    def __init__(self, mask, coefficient, divisor, rank):
        from .exterior import Multivector  # exterior raises this error

        self.mask = mask
        self.coefficient = coefficient
        self.divisor = divisor
        self.rank = rank
        super().__init__(
            f"exact division failed: coefficient {coefficient} of monomial "
            f"mask {mask:#x} is not divisible by {divisor}",
            Multivector(rank, {mask: coefficient}),
        )


class NotSymmetric(ValueError):
    """A matrix that must be symmetric is not."""


class NotAlternating(ValueError):
    """A polarization matrix is not alternating (``E^T != -E``)."""


class SingularPolarization(ValueError):
    """A polarization matrix is singular."""


class ComplexStructureInvalid(ValueError):
    """A complex structure matrix does not square to minus the identity."""


class RiemannRelationViolated(ValueError):
    """``E(Jx, Jy) = E(x, y)`` fails or ``E(x, Jx)`` is not positive definite."""


class InvalidType(ValueError):
    """A polarization type is not a divisor chain ``d1 | d2 | ... | dg``."""


class NotIsogeny(ValueError):
    """A homomorphism expected to be an isogeny has singular matrix."""


class UnsupportedParams(ValueError):
    """Check parameters lie outside the mathematically supported range."""


class NoComplexStructure(UnsupportedParams):
    """A Hodge-theoretic operation was requested on a variety without J."""


class NotHomogeneous(ValueError):
    """A class expected to be homogeneous mixes several degrees."""


class NotHodge(ValueError):
    """A supplied generator is not a Hodge class.

    ``index`` locates the offending generator in the caller's list;
    ``message``, when given, says more than the default text.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"generator {index} is not a Hodge class")


class ImageNotInHodge(CheckFailure):
    """The transform of a Hodge class left the Hodge lattice.

    This would contradict the transform being a morphism of Hodge
    structures; the witness is the offending image.
    """


class NonTerminatingSeries(CheckFailure):
    """A nilpotent series kept producing nonzero terms past its degree bound.

    The witness is the last nonzero term, which should have vanished.
    """


class UnknownCheck(KeyError):
    """A check name is not registered in the verification suite."""

