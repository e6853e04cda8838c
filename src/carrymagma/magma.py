"""The carry-approximation magma on finite sets of naturals.

The binary operation treats a set as the positions of 1-bits in a binary
number and performs one round of carry propagation on the sum:

    oplus(A, B) = (A △ B) △ ((A ∩ B) + 1)

with △ symmetric difference and ∩ intersection.  It is commutative,
has the empty set as neutral element, and every equation
oplus(A, X) = B has exactly one finite solution, so every set has an
inverse: the solution for B = {}.  It is not associative:
({0} oplus {0}) oplus {1} gives {2} while {0} oplus ({0} oplus {1})
gives the empty set.  One solver serves both solve and invert; it is
the carry-lookahead (Kogge-Stone parallel-prefix) form of the carry
recurrence and takes O(log longest run) big-integer steps.
"""

from .adder import approx_add
from .bitset import EMPTY, FinSet


def oplus(a: FinSet, b: FinSet) -> FinSet:
    """Apply one carry round to the pair: (A △ B) △ ((A ∩ B) + 1).

    This is ``approx_add`` on the encodings: the symmetric difference is
    XOR and the shifted intersection injects each colliding element as
    a carry one position higher, without propagating further.
    """
    return FinSet(approx_add(a.bits, b.bits))


def stretch(a: FinSet, n: int) -> int:
    """Length of the contiguous run of members of ``a`` ending at n.

    Returns 0 when n is not a member; otherwise n minus the highest
    non-member below n (taken as -1 when the run reaches 0).  The mask
    of positions 0..n is built only once n is known to be a member, so
    n is below the bit length of ``a`` and a huge n costs nothing.
    """
    if n < 0:
        raise ValueError(f"position must be a natural number, got {n}")
    if n not in a:
        return 0
    return n - (~a.bits & ((1 << (n + 1)) - 1)).bit_length() + 1


def invert(a: FinSet) -> FinSet:
    """The set B with oplus(a, B) = {}: the solution of a ⊕ X = {}.

    It equals the paper's stretch-parity construction: B keeps every
    member of ``a`` whose stretch is odd, and also contains the
    successor of each such member that is not itself a member.  The
    empty set is neutral, hence its own inverse, and for non-empty
    ``a`` the minimum has stretch 1, so min(invert(a)) = min(a).
    """
    return solve(a, EMPTY)


def solve(a: FinSet, b: FinSet) -> FinSet:
    """The finite X with oplus(a, X) = b, by carry-lookahead doubling.

    Writing a_n, b_n, x_n for membership bits, the result bit at n is
    b_n = a_n XOR x_n XOR (a_{n-1} AND x_{n-1}), so X is the unique
    solution of the linear recurrence x = d XOR ((a AND x) << 1) with
    d = a XOR b.  Unrolled, x_n is the XOR over j >= 0 of d_{n-j} times
    a_{n-1} ... a_{n-j}.  Each doubling step adds the next m terms,
    where g holds at bit n the AND of a_n .. a_{n+m-1}; g empties once
    m exceeds the longest run of ``a``.  Raises RuntimeError if the
    result fails the defining equation, which would indicate a bug here
    rather than bad input.
    """
    x, g, m = a.bits ^ b.bits, a.bits, 1
    while g:
        x ^= (x & g) << m
        g &= g >> m
        m <<= 1
    result = FinSet(x)
    if oplus(a, result) != b:
        raise RuntimeError(
            f"internal error: solver produced {result} for a={a}, b={b} "
            "but it does not satisfy the defining equation")
    return result
