"""Exception types and the digit limit shared across the package."""

# Python's default int/str digit limit, fixed so that PYTHONINTMAXSTRDIGITS
# cannot open a quadratic conversion; the console script pins it as well
MAX_DIGITS = 4300
# 2**e prints within MAX_DIGITS digits iff e <= MAX_BITS
MAX_BITS = (10 ** MAX_DIGITS).bit_length() - 1


class SetLiteralError(ValueError):
    """A set literal string could not be parsed."""


class RangeError(ValueError):
    """A request exceeds the cap on its cost."""
