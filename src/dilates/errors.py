"""Exception types shared across the package."""


class DilatesError(Exception):
    """Base class for all library errors."""


class ArithmeticRangeError(DilatesError):
    """A value or intermediate result left the signed 64-bit range."""


class MergeLimitError(DilatesError):
    """A pairwise merge would form more sums than backend.MERGE_PAIR_LIMIT."""


class InvalidCoefficientError(DilatesError):
    """A dilation coefficient is zero, repeated, or otherwise unusable."""


class InvalidModulusError(DilatesError):
    """A modulus argument fails its constraints (>= 2, odd, prime, ...)."""


class InvalidComponentError(DilatesError):
    """A set passed as a congruence component of another set is not one."""


class SearchConfigError(DilatesError):
    """A search parameter set is inconsistent."""
