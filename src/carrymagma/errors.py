"""Exception types shared across the package."""


class SetLiteralError(ValueError):
    """A set literal string could not be parsed."""


class RangeError(ValueError):
    """A probe parameter exceeds its desk-scale cap."""
