"""Finite subsets of the naturals stored as unbounded-int bit masks."""

import json
from dataclasses import dataclass
from itertools import compress, count
from typing import Collection, Iterator

from .errors import MAX_BYTES, SetLiteralError, shown

# Elements must be below this cap: one byte per position in the buffers
# that build a set and that its text and iteration go through (see
# errors.py).  Only sets built from element values are checked.
MAX_ELEMENT = MAX_BYTES
_CAP_DIGITS = len(str(MAX_ELEMENT))
_SHOWN_DIGITS = 32  # a longer token is named by its digit count, as by shown

# Every character of a plain literal body: the ASCII digits, the comma,
# and the ten ASCII characters for which str.isspace() is true.  The JSON
# scanner accepts only JSON's four whitespace characters and no leading
# zeros; every other plain body takes the per-token loop.
_PLAIN = b"0123456789,\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_CLASS = bytes(c if c == 44 else int(c not in _PLAIN) for c in range(256))

# Text and iteration read a set through _view, one byte per position.
# A set is written one block of 1000 positions at a time: block q > 0
# writes str(q) before each member's three zero-padded low digits,
# block 0 the low digits alone.
_VIEW = bytes.maketrans(b"01", b"\x00\x01")
_BLOCK = 1000
_LOW = tuple(map(str, range(_BLOCK)))
_PADDED = tuple(s.zfill(3) for s in _LOW)


def _too_large(element: str) -> SetLiteralError:
    if len(element) > _SHOWN_DIGITS:
        element = f"<{len(element)}-digit number>"
    return SetLiteralError(f"element {element} is too large: elements must "
                           f"be below MAX_ELEMENT = {MAX_ELEMENT}")


def _view(bits: int) -> bytes:
    """Byte n is 1 if n is a member and 0 if not, up to the top member."""
    return bin(bits)[:1:-1].encode().translate(_VIEW)


def _mask(elements: Collection[int], top: int) -> int:
    """The int with bit n set for each n, one binary digit per position
    read back by int() in C, at a cost linear in the elements and top.
    The caller passes top: the largest element, checked against
    MAX_ELEMENT, or 0 for none (one "0", as int(b"", 2) raises)."""
    digits = bytearray(b"0") * (top + 1)
    for n in elements:
        digits[n] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


# a dataclass: a tuple's iter, len, `in` and order would clash with its own
@dataclass(frozen=True, order=True)
class FinSet:
    """A finite set of natural numbers.

    Bit n of ``bits`` is set iff n is a member.  Python ints carry no
    trailing-zero padding, so equality and hashing are extensional for
    free, and ordering FinSets orders them by their integer encoding.
    """

    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError(f"bit mask must be non-negative, got {self.bits}")

    @classmethod
    def of(cls, *elements: int) -> "FinSet":
        """Build a set from element values (duplicates collapse).

        Raises SetLiteralError for an element at or above MAX_ELEMENT.
        """
        for n in elements:
            if n < 0:
                raise ValueError(f"element must be a natural number, got {n}")
            if n >= MAX_ELEMENT:
                raise _too_large(shown(n))
        return cls(_mask(elements, max(elements, default=0)))

    def __contains__(self, n: int) -> bool:
        return n >= 0 and (self.bits >> n) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return compress(count(), _view(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        return format(self)

    def __repr__(self) -> str:
        return "FinSet.of(" + format(self)[1:-1].replace(",", ", ") + ")"


EMPTY = FinSet(0)


def parse(text: str) -> FinSet:
    """Parse a set literal such as ``{3,4,5}`` or ``3,4,5`` (order-free).

    Raises SetLiteralError on malformed tokens, duplicates, mismatched
    braces, anything that is not a decimal natural number, or an element
    at or above MAX_ELEMENT.  Duplicates are rejected rather than
    collapsed so typos in hand-written input surface instead of silently
    shrinking the set.
    """
    body = text.strip()
    if body.startswith("{"):
        if not body.endswith("}"):
            raise SetLiteralError(f"unclosed brace in set literal: {text!r}")
        body = body[1:-1]
    elif body.endswith("}"):
        raise SetLiteralError(f"unopened brace in set literal: {text!r}")
    body = body.strip()
    if not body:
        return EMPTY
    # Fast path.  On a body of _PLAIN characters with no token longer
    # than _CAP_DIGITS, the C JSON scanner accepts only tokens the loop
    # below accepts, at a bounded cost per token even where the int/str
    # digit limit is lifted.  Elements below the cap whose mask has one
    # bit per element repeat none, and give the loop's result; the cap is
    # checked first, so an element past it allocates no buffer.  _CLASS
    # keeps the comma, reads other plain bytes as 0 and the rest (-, e, .,
    # [, a letter, or the "?" encode makes of non-ASCII) as 1, so a token
    # too long is _CAP_DIGITS + 1 zeros and no JSON-only spelling passes.
    view = body.encode("ascii", "replace").translate(_CLASS)
    plain = 1 not in view and bytes(_CAP_DIGITS + 1) not in view
    del view  # as long as the body: free it before the buffers below
    if plain:
        try:
            elements = json.loads("[" + body + "]")
        except ValueError:  # a leading zero, a blank token, other whitespace
            pass
        else:
            if (top := max(elements)) < MAX_ELEMENT:
                bits = _mask(elements, top)
                if bits.bit_count() == len(elements):
                    return FinSet(bits)
    # The loop checks token by token, so its error names the first
    # offender in listing order.  It also takes the rarer valid
    # spellings: leading zeros, whitespace outside JSON's four, and
    # tokens padded past _CAP_DIGITS characters.
    seen = set()
    for token in body.split(","):
        token = token.strip()
        if not (token.isascii() and token.isdigit()):
            raise SetLiteralError(f"invalid element {token!r} in set literal: "
                                  "expected a decimal natural number")
        # int() refuses strings over 4300 digits, so compare lengths first
        digits = token.lstrip("0") or "0"
        n = int(digits) if len(digits) <= _CAP_DIGITS else MAX_ELEMENT
        if n >= MAX_ELEMENT:
            raise _too_large(token)
        if n in seen:
            raise SetLiteralError(f"duplicate element {token!r} in set literal")
        seen.add(n)
    return FinSet(_mask(seen, max(seen)))


def format(a: FinSet) -> str:
    """Canonical literal: ascending elements, comma-separated, braced."""
    view = _view(a.bits)
    parts = []
    start = view.find(1)
    while start >= 0:
        q = start // _BLOCK
        end = (q + 1) * _BLOCK
        prefix = str(q) if q else ""
        low = compress(_PADDED if q else _LOW, view[end - _BLOCK:end])
        parts.append(prefix + ("," + prefix).join(low))
        start = view.find(1, end)
    return "{" + ",".join(parts) + "}"


def encode(a: FinSet) -> int:
    """Sum of 2**n over members n: the set viewed as a binary integer."""
    return a.bits


def decode(m: int) -> FinSet:
    """Inverse of encode: the set of bit positions set in m."""
    if m < 0:
        raise ValueError(f"cannot decode a negative integer: {m}")
    return FinSet(m)
