"""Exception types shared across the package."""


class NotDivisible(ArithmeticError):
    """Exact division was requested but no quotient exists over Z[s, s^-1]."""


class TooLarge(ValueError):
    """A request's tables could exceed the one size guard, ``permutations.check_size``."""


class NotQuasiIdempotent(ArithmeticError):
    """e^2 failed to be a nonzero scalar multiple of e.

    This cannot happen for a correctly built symmetrizer; seeing it means a
    convention bug in the kernel, so it is raised loudly instead of returned.
    """


class NotEigenvector(ArithmeticError):
    """A central element failed to act on a symmetrizer by a scalar."""
