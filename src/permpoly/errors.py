"""Exception types shared across the package."""


class PermpolyError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedDegree(PermpolyError, ValueError):
    """Extension degree outside the supported range 1..24."""


class ReducibleModulus(PermpolyError, ValueError):
    """A supplied reduction polynomial is not irreducible over F_2."""


class NotCoprime(PermpolyError, ValueError):
    """gcd(k, m) != 1, so k has no inverse modulo m."""


class OutOfRange(PermpolyError, ValueError):
    """A parameter lies outside its documented range."""


class NotDivisible(PermpolyError, ArithmeticError):
    """Exact division by X^2 failed: an exponent below 2 is present."""

