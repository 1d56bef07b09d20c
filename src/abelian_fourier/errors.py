"""Exception types shared across the package.

Every mathematically meaningful failure mode gets its own class so that
callers (in particular the verification suite and the CLI) can turn
exceptions into reported findings instead of stack traces.

Integrality is checked where integers enter.  A scalar argument (a
rank, degree, exponent, divisor, scale or orientation) and a class
coefficient go through :func:`require_int`, and a dense matrix, a
homomorphism's or a polarization's among them, through
``intlinalg.int_matrix``.  A value that is not an int (a bool is not
one) raises the built-in ``TypeError``, an input error, so pullback and
pushforward never meet a fraction and no check reports one.

A failed identity ``lhs = rhs`` is witnessed by ``lhs - rhs``, and
:func:`require_equal` is the one place that builds that witness.
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


def require_equal(lhs, rhs, detail="left and right sides differ"):
    """Raise :class:`CheckFailure` with ``detail``, witnessed by
    ``lhs - rhs``, unless the two classes are equal."""
    if lhs != rhs:
        raise CheckFailure(detail, lhs - rhs)


def require_int(value, what):
    """Raise :class:`TypeError` naming ``what`` unless ``value`` is an int
    (a bool or a float is not): the one check of a scalar int argument.

    >>> require_int(2.0, "degree")
    Traceback (most recent call last):
    TypeError: degree 2.0 is not an integer
    """
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an integer")


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

