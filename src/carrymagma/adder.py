"""Word-level carry arithmetic on unbounded non-negative integers.

All operations work on plain Python ints with no wraparound, mirroring
the set-level algebra: a set corresponds to the integer whose 1-bits
sit at the set's elements, and one carry round on sets is exactly
``approx_add`` on the encodings.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .errors import MAX_BITS, MAX_DIGITS, RangeError, shown

MAX_STATS_WIDTH = MAX_BITS // 2  # 4**width pairs print within MAX_DIGITS


def approx_add(a: int, b: int) -> int:
    """One-round approximation of a + b using only bitwise operations.

    Computes (a XOR b) XOR ((a AND b) << 1): Knuth's exact decomposition
    a + b = (a XOR b) + ((a AND b) << 1) with its outer + cut to one
    carry round.  Exact whenever no injected carry collides with a
    partial-sum bit.
    """
    return (a ^ b) ^ ((a & b) << 1)


class AddResult(NamedTuple):
    sum: int
    rounds: int


def iterated_add(a: int, b: int) -> AddResult:
    """Add by repeated carry rounds, counting the rounds needed.

    Starting from the decomposition (s, c) = (a XOR b, (a AND b) << 1),
    repeat (s, c) <- (s XOR c, (s AND c) << 1) until c = 0.  ``rounds``
    counts every update performed after the initial decomposition, so a
    carry-free pair costs 0 rounds.  Terminates because the lowest set
    bit of the carry strictly rises each round.
    """
    s, c = a ^ b, (a & b) << 1
    rounds = 0
    while c:
        s, c = s ^ c, (s & c) << 1
        rounds += 1
    return AddResult(s, rounds)


def exactness(a: int, b: int) -> bool:
    """Whether approx_add(a, b) equals a + b.

    Equivalent bit test: the injected carry (a AND b) << 1 must not
    collide with the partial sum a XOR b, i.e. their AND is 0; a
    collision is exactly what would need a second carry round.
    """
    return (a ^ b) & ((a & b) << 1) == 0


# a dataclass: adder-stats and the benchmark render it with dataclasses.asdict
@dataclass(frozen=True)
class WordStats:
    """Exactness statistics of approx_add over all pairs of w-bit words."""

    width: int
    total_pairs: int
    exact_pairs: int
    max_abs_error: int
    iterations_max: int


def approx_stats(width: int) -> WordStats:
    """Exact approx_add statistics over all (a, b) in [0, 2**width)^2.

    approx_add(a, b) falls short of a + b by 2 * (s AND c), where
    s = a XOR b and c = (a AND b) << 1: a collision at bit i, where the
    operands differ and both hold a 1 at bit i - 1, loses 2 << i.
    ``exact_pairs`` counts the pairs without one by a recurrence over the
    bit positions, on g = "both operands hold a 1 at the position below".
    ``max_abs_error`` is ((4 << w) - (4 << (w & 1))) // 3, the loss at
    bits w - 1, w - 3, ... down to 1, which the pair (2**w - 1, bits
    w - 2, w - 4, ...) attains: bit 0 never collides, and a collision at
    bit i leaves the operands differing at i, so none follows at i + 1.

    ``iterations_max``, the most carry rounds ``iterated_add`` needs on
    any pair, is ``width`` itself.  A carry chain starts at a generate
    position j >= 0 (both operands 1) and moves up one position per
    round through the propagate positions (operands differ) above it.
    Those lie below ``width``, so the chain crosses at most
    width - 1 - j of them and one more round lands it: at most
    ``width`` rounds.  The pair (2**width - 1, 1) needs exactly
    ``width``.  4**width must print, so width <= MAX_STATS_WIDTH.
    """
    if not 0 <= width <= MAX_STATS_WIDTH:
        raise RangeError(f"width {shown(width)} out of range: 4**width "
                         f"pairs must print within {MAX_DIGITS} digits, so "
                         f"width <= {MAX_STATS_WIDTH}")
    # exact[g]: the collision-free pairs in state g; width 0 has one, in g = 0
    exact = (1, 0)
    for _ in range(width):
        exact = (3 * exact[0] + exact[1], exact[0] + exact[1])
    return WordStats(width=width, total_pairs=1 << (2 * width),
                     exact_pairs=sum(exact), iterations_max=width,
                     max_abs_error=((4 << width) - (4 << (width & 1))) // 3)
