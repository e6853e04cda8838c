"""Reference computations for the magma, on plain ints.

These are the straightforward forms of the library's operations, kept
as oracles: the paper's definition of oplus on sets of positions,
Knuth's carry decomposition, the paper's stretch-parity inverse
construction, the one-bit-per-step solver sweep, two readings of
stretch, the triple-by-triple associativity scan, the bit-position
automaton that counts the same triples and the one that counts the
pairs one carry round adds exactly.  Nothing here imports carrymagma,
so a test never checks an operation against itself.
"""

from math import comb


def positions(a: int) -> list[int]:
    """Ascending member positions, one shift-and-test per position."""
    return [n for n in range(a.bit_length()) if a >> n & 1]


def oplus_on_sets(a: set[int], b: set[int]) -> set[int]:
    """The paper's definition on sets of positions:
    (A △ B) △ ((A ∩ B) + 1)."""
    return (a ^ b) ^ {n + 1 for n in a & b}


def knuth_sum(a: int, b: int) -> int:
    """Knuth's carry decomposition (a XOR b) + ((a AND b) << 1).

    The outer + is true addition, so this always equals a + b; it is the
    identity that one carry round truncates.
    """
    return (a ^ b) + ((a & b) << 1)


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


def oplus(a: int, b: int) -> int:
    """One carry round on encodings: (a XOR b) XOR ((a AND b) << 1)."""
    return (a ^ b) ^ ((a & b) << 1)


def scan_by_triples(bound: int) -> tuple[int, int, tuple | None]:
    """Total triples, failing triples and the first failing triple (in
    lexicographic order) over all subsets of [0, bound), each triple
    checked in both association orders on a lookup table.

    Intermediates of universe pairs stay below 2**(bound+1), so a
    square table that size covers every lookup.
    """
    n = 1 << bound
    size = 1 << (bound + 1)
    op = [[oplus(x, y) for y in range(size)] for x in range(size)]
    failing = 0
    first = None
    for a in range(n):
        row_a = op[a]
        for b in range(n):
            row_ab = op[row_a[b]]
            row_b = op[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    failing += 1
                    if first is None:
                        first = (a, b, c)
    return n ** 3, failing, first


def _agrees(window: int) -> bool:
    """Whether both association orders agree at bit i of a triple window.

    The window holds one 3-bit group per position i-2, i-1 and i, from
    low to high, each with the bits of a, b and c in that order.  Bit i
    of either order reads only those positions; it lands at bit 2 of
    the results on the operands' 3-bit columns.
    """
    a, b, c = (sum((window >> (3 * j + k) & 1) << j for j in range(3))
               for k in range(3))
    return (oplus(oplus(a, b), c) ^ oplus(a, oplus(b, c))) & 4 == 0


def associative_by_automaton(max_bound: int) -> list[int]:
    """Associative triples over subsets of [0, b), for every b up to
    max_bound, by a 64-state walk over the bit positions.

    The state is each operand's two bits below position i.  The walk
    for bound b reads b positions with all 8 letters, then position b,
    where every operand is 0.  Neither order sets a bit above b: there
    every operand is 0 at i and i-1, so bit i of either order is 0.
    """
    agrees = [_agrees(window) for window in range(1 << 9)]
    # counts[state]: triples agreeing so far whose bits at i-2 and i-1
    # are the low and high 3-bit groups of state
    counts = [1] + [0] * 63
    out = []
    for _ in range(max_bound + 1):
        out.append(sum(count for state, count in enumerate(counts)
                       if agrees[state]))
        step = [0] * 64
        for state, count in enumerate(counts):
            for bits in range(8):
                window = state | bits << 6
                if agrees[window]:
                    step[window >> 3] += count
        counts = step
    return out


def exact_pairs_by_automaton(max_width: int) -> list[int]:
    """Pairs of w-bit words that one carry round adds exactly, for every
    w up to max_width, by a 4-state walk over the bit positions.

    The state is the two operands' bits at the position below i.  A
    pair collides at bit i, which a second round would have to repair,
    iff both operands hold a 1 at i-1 and differ at i.  No collision
    happens at bit w, where both operands are 0.
    """
    # counts[state]: collision-free pairs so far whose bits at i-1 are
    # a's (low) and b's (high) bit of state
    counts = [1, 0, 0, 0]
    out = []
    for _ in range(max_width + 1):
        out.append(sum(counts))
        step = [0] * 4
        for state, count in enumerate(counts):
            for bits in range(4):
                if not (state == 3 and bits in (1, 2)):
                    step[bits] += count
        counts = step
    return out


def candidates(bound: int, max_size: int) -> list[tuple[int, ...]]:
    """Every sorted tuple of subset encodings below 2**bound that holds 0
    and at most max_size members, by size, then lexicographically."""
    n = 1 << bound
    layer = {(0,)} if max_size else set()
    found = set(layer)
    for _ in range(max_size - 1):
        layer = {tuple(sorted(c + (x,)))
                 for c in layer for x in range(1, n) if x not in c}
        found |= layer
    return sorted(found, key=lambda c: (len(c), c))


def search_totals(bound: int, max_size: int) -> dict:
    """The subset search's totals line by counting subsets, not
    classifying them.

    A candidate escapes iff its largest member holds bit bound - 1, {{}}
    is the one subgroup, and every other candidate is not_closed.  With
    n = 2**bound and h = n/2 (h = 1 at bound 0), the candidates number
    the sum of C(n - 1, k - 1) over sizes k up to max_size, and those
    with every member below h the sum of C(h - 1, k - 1).
    """
    n = 1 << bound
    h = max(n >> 1, 1)
    candidates = sum(comb(n - 1, k - 1) for k in range(1, max_size + 1))
    inside = sum(comb(h - 1, k - 1) for k in range(1, max_size + 1))
    subgroup = 1 if max_size >= 1 else 0
    return {"candidates": candidates, "subgroup": subgroup,
            "escaping": candidates - inside,
            "not_closed": inside - subgroup,
            "not_inverse_closed": 0, "non_associative": 0}


def classify(members: tuple[int, ...], bound: int) -> tuple[str, tuple | None]:
    """Status and witness of one subset-search candidate, with no tables.

    Checks, in order: an oplus and then an inverse at or beyond
    2**bound (escaping), an oplus that is not a member (not_closed), an
    inverse that is not a member (not_inverse_closed), a triple whose
    association orders differ (non_associative).  The witness is the
    first offender in scan order: pairs x, y with y at or after x in the
    sorted members, single members in order, triples in every order.
    It reads ("oplus", (x, y), result), ("invert", (x,), result) or
    ("assoc", (a, b, c), left, right).
    """
    n = 1 << bound
    pairs = [(x, y) for i, x in enumerate(members) for y in members[i:]]
    inverses = [(x, inverse_by_stretch_parity(x)) for x in members]
    for x, y in pairs:
        if oplus(x, y) >= n:
            return "escaping", ("oplus", (x, y), oplus(x, y))
    for x, inv in inverses:
        if inv >= n:
            return "escaping", ("invert", (x,), inv)
    for x, y in pairs:
        if oplus(x, y) not in members:
            return "not_closed", ("oplus", (x, y), oplus(x, y))
    for x, inv in inverses:
        if inv not in members:
            return "not_inverse_closed", ("invert", (x,), inv)
    for a in members:
        for b in members:
            for c in members:
                left, right = oplus(oplus(a, b), c), oplus(a, oplus(b, c))
                if left != right:
                    return "non_associative", ("assoc", (a, b, c), left, right)
    return "subgroup", None
