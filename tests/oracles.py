"""Reference computations for the magma, on plain ints.

These are the straightforward forms of the library's operations, kept
as oracles: the paper's stretch-parity inverse construction, the
one-bit-per-step solver sweep, and two readings of stretch.  Nothing
here imports carrymagma, so a test never checks an operation against
itself.
"""


def positions(a: int) -> list[int]:
    """Ascending member positions, one shift-and-test per position."""
    return [n for n in range(a.bit_length()) if a >> n & 1]


def stretch_by_steps(a: int, n: int) -> int:
    """Run length of members ending at n, stepping down one position at a
    time until the first non-member or past 0."""
    k = 0
    while k <= n and a >> (n - k) & 1:
        k += 1
    return k


def stretch_by_gap(a: int, n: int) -> int:
    """Run length of members ending at n, from the highest gap below n."""
    if not (a >> n) & 1:
        return 0
    gaps = ~a & ((1 << (n + 1)) - 1)
    return n - (gaps.bit_length() - 1)


def inverse_by_stretch_parity(a: int) -> int:
    """The paper's inverse construction.

    Keep every member whose stretch is odd, and add the successor of
    each such member when the successor is not a member.
    """
    out = 0
    for x in positions(a):
        if stretch_by_gap(a, x) % 2 == 1:
            out |= 1 << x
            if not a >> (x + 1) & 1:
                out |= 1 << (x + 1)
    return out


def solve_by_sweep(a: int, b: int) -> int:
    """The X with one carry round a (+) X = b, forced one bit at a time:

        x_n = b_n XOR a_n XOR (a_{n-1} AND x_{n-1}),  x_{-1} = 0,

    swept up to max(bit length of a + 1, bit length of b), beyond which
    every bit is 0.
    """
    x = 0
    top = max(a.bit_length() + 1, b.bit_length())
    for n in range(top + 1):
        an = (a >> n) & 1
        bn = (b >> n) & 1
        carry = (a >> (n - 1)) & (x >> (n - 1)) & 1 if n else 0
        x |= (bn ^ an ^ carry) << n
    return x
