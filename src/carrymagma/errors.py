"""Exception types and the cost policy: the digit limit, the byte budget
the size caps derive from, and how a refusal names a number."""

# Python's default int/str digit limit, fixed so that PYTHONINTMAXSTRDIGITS
# cannot open a quadratic conversion; the console script pins it as well
MAX_DIGITS = 4300
DIGIT_LIMIT = 10 ** MAX_DIGITS  # n prints iff abs(n) < DIGIT_LIMIT
MAX_BITS = DIGIT_LIMIT.bit_length() - 1  # 2**e prints iff e <= MAX_BITS

# One request's memory budget (16 MiB), and the bytes one small record
# may take: an orbit iterate or a search candidate, measured at 152-228 B
MAX_BYTES = 2**24
RECORD_BYTES = 256


def shown(n: int) -> str:
    """Decimal n if it prints within MAX_DIGITS digits, else its bit length."""
    return (str(n) if -DIGIT_LIMIT < n < DIGIT_LIMIT
            else "-" * (n < 0) + f"<{n.bit_length()}-bit integer>")


class SetLiteralError(ValueError):
    """A set literal string could not be parsed."""


class RangeError(ValueError):
    """A request exceeds the cap on its cost; the message names both, a
    number past the digit limit by its bit length (see shown)."""
