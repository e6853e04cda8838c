"""Word-level carry arithmetic on unbounded non-negative integers.

All operations work on plain Python ints with no wraparound, mirroring
the set-level algebra: a set corresponds to the integer whose 1-bits
sit at the set's elements, and one carry round on sets is exactly
``approx_add`` on the encodings.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .errors import RangeError

MAX_STATS_WIDTH = 12


def approx_add(a: int, b: int) -> int:
    """One-round approximation of a + b using only bitwise operations.

    Computes (a XOR b) XOR ((a AND b) << 1): the carry-free partial sum
    with a single carry round folded in.  Exact whenever no injected
    carry collides with a partial-sum bit.
    """
    return (a ^ b) ^ ((a & b) << 1)


def knuth_sum(a: int, b: int) -> int:
    """Knuth's carry decomposition (a XOR b) + ((a AND b) << 1).

    The outer + is true addition, so this always equals a + b; it is the
    identity that ``approx_add`` truncates to one round.
    """
    return (a ^ b) + ((a & b) << 1)


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
    operands differ and both hold a 1 at bit i - 1, loses 2 << i.  So
    one pass over the bit positions counts the pairs, with the state
    g = "both operands hold a 1 at the position below": ``exact_pairs``
    counts the pairs without a collision, and ``max_abs_error`` is the
    largest collision loss over all pairs reaching each state.

    ``iterations_max``, the most carry rounds ``iterated_add`` needs on
    any pair, is ``width`` itself.  A carry chain starts at a generate
    position j >= 0 (both operands 1) and moves up one position per
    round through the propagate positions (operands differ) above it.
    Those lie below ``width``, so the chain crosses at most
    width - 1 - j of them and one more round lands it: at most
    ``width`` rounds.  The pair (2**width - 1, 1) needs exactly
    ``width``.  The width is capped at 12.
    """
    if not 0 <= width <= MAX_STATS_WIDTH:
        raise RangeError(f"width {width} out of range: statistics are capped "
                         f"at width {MAX_STATS_WIDTH}")
    if width == 0:
        return WordStats(0, 1, 1, 0, 0)
    # exact[g] counts the collision-free pairs in state g and worst[g]
    # is the largest loss among all pairs in state g.  After bit 0,
    # whose pairs (0, 0), (0, 1) and (1, 0) give g = 0 and (1, 1) gives
    # g = 1, nothing has collided yet.
    exact, worst = (3, 1), (0, 0)
    for i in range(1, width):
        # a differing pair after g = 1 collides and loses 2 << i
        exact = (3 * exact[0] + exact[1], exact[0] + exact[1])
        worst = (max(worst[0], worst[1] + (2 << i)), max(worst))
    return WordStats(width=width, total_pairs=1 << (2 * width),
                     exact_pairs=sum(exact), max_abs_error=max(worst),
                     iterations_max=width)
