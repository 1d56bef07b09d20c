"""Exception types shared across the package.

Every mathematically meaningful failure mode gets its own class so that
callers (in particular the verification suite and the CLI) can turn
exceptions into reported findings instead of stack traces.
"""


class RankMismatch(ValueError):
    """Operands live in exterior algebras on different generator counts."""


class NonIntegralResult(ArithmeticError):
    """A rational linear map produced a non-integer coefficient.

    Raised when pulling back an integral class along a rational matrix
    leaves a fractional term, which signals that the map does not act on
    the integral lattice, and when a class has a fractional coordinate in
    a lattice basis that should be saturated.  ``witness`` is a nonzero
    integral class locating the failure: the numerator of the offending
    coefficient on its monomial, or of the offending coordinate times its
    lattice basis class.
    """

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(message)


class NonDivisible(ArithmeticError):
    """Exact division of a class by an integer failed.

    Carries the first offending term as an integrality witness: ``mask``
    is the basis monomial (bitmask over generators), ``coefficient`` the
    integer that is not divisible by ``divisor``, and ``rank`` the
    generator count of the class it belongs to.
    """

    def __init__(self, mask, coefficient, divisor, rank):
        self.mask = mask
        self.coefficient = coefficient
        self.divisor = divisor
        self.rank = rank
        super().__init__(
            f"coefficient {coefficient} of monomial mask {mask:#x} "
            f"is not divisible by {divisor}"
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


class NoComplexStructure(ValueError):
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


class ImageNotInHodge(ArithmeticError):
    """The transform of a Hodge class left the Hodge lattice.

    This would contradict the transform being a morphism of Hodge
    structures, so it is a check failure; ``witness`` is the offending
    image.
    """

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(message)


class NonTerminatingSeries(ArithmeticError):
    """A nilpotent series kept producing nonzero terms past its degree bound.

    ``witness`` is the last nonzero term, which should have vanished.
    """

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(message)


class UnknownCheck(KeyError):
    """A check name is not registered in the verification suite."""


class UnsupportedParams(ValueError):
    """Check parameters lie outside the mathematically supported range."""
