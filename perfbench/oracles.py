"""Independent reference computations for checking carrymagma outputs.

Nothing here imports carrymagma: every expected value is computed on
plain ints from the definitions, so a check never calls the function it
checks and never compares against a stored copy.
"""

from math import comb


class CheckError(AssertionError):
    """An output of the program under test disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def oplus(a: int, b: int) -> int:
    """One carry round on bit masks: (a XOR b) XOR ((a AND b) << 1)."""
    return (a ^ b) ^ ((a & b) << 1)


def stretch(a: int, n: int) -> int:
    """Run length of members ending at n, from the highest gap below n."""
    if not (a >> n) & 1:
        return 0
    gaps = ~a & ((1 << (n + 1)) - 1)
    return n - (gaps.bit_length() - 1)


def literal(x: int) -> str:
    """Canonical set literal: the ascending 1-bit positions of x."""
    low_first = bin(x)[:1:-1]
    return "{" + ",".join(str(i) for i, c in enumerate(low_first)
                          if c == "1") + "}"


def bits_of(text: str) -> int:
    """Bit mask of a canonical literal, built in one pass over the digits."""
    expect(text.startswith("{") and text.endswith("}"),
           f"not a braced literal: {text[:40]!r}")
    body = text[1:-1]
    if not body:
        return 0
    positions = [int(t) for t in body.split(",")]
    expect(positions == sorted(set(positions)),
           "literal elements are not strictly ascending")
    digits = bytearray(b"0" * (positions[-1] + 1))
    for p in positions:
        digits[p] = ord("1")
    return int(digits[::-1].decode(), 2)


def check_literal(text: str, x: int, what: str) -> None:
    """The literal lists x's bits in ascending order and reads back as x."""
    expect(text == literal(x), f"{what}: literal is not the ascending bit "
                               "positions of the result")
    expect(bits_of(text) == x, f"{what}: literal does not read back as x")


def assoc_count(bound: int) -> tuple[int, int, tuple[int, int, int] | None]:
    """Total triples, failing triples and first failing triple (a, b, c)
    in lexicographic order over subsets of [0, bound)."""
    n = 1 << bound
    failing = 0
    first = None
    for a in range(n):
        for b in range(n):
            ab = oplus(a, b)
            for c in range(n):
                if oplus(ab, c) != oplus(a, oplus(b, c)):
                    failing += 1
                    if first is None:
                        first = (a, b, c)
    return n ** 3, failing, first


def carry_rounds(a: int, b: int) -> int:
    """Carry rounds of the iterated adder, counted by running it."""
    s, c = a ^ b, (a & b) << 1
    rounds = 0
    while c:
        s, c = s ^ c, (s & c) << 1
        rounds += 1
    return rounds


def word_stats_brute(width: int) -> dict:
    """Exactness statistics of one carry round by trying every pair."""
    n = 1 << width
    exact = max_err = iters = 0
    for a in range(n):
        for b in range(n):
            err = a + b - oplus(a, b)
            exact += err == 0
            max_err = max(max_err, abs(err))
            iters = max(iters, carry_rounds(a, b))
    return {"width": width, "total_pairs": n * n, "exact_pairs": exact,
            "max_abs_error": max_err, "iterations_max": iters}


_DIGITS = [(x, y) for x in (0, 1) for y in (0, 1)]


def word_stats_automaton(width: int) -> dict:
    """The same statistics by a per-bit automaton, linear in width.

    Bit i of the one-round sum is wrong exactly when the carry generated
    at i-1 (both operands 1) meets a propagate bit at i (operands
    differ), and each such collision costs 2 * 2**i.  A carry chain
    needs one round per position it moves, so the round count is the
    longest run of propagate bits above a generate bit, plus one.
    """
    # exact: pairs with no collision so far, keyed by "carry into bit i".
    exact = {0: 1, 1: 0}
    # worst: largest error so far, keyed the same way (-1 = unreachable).
    worst = {0: 0, 1: -1}
    # chains: reachable (carry-in, rounds of the chain carrying in).
    chains = {(0, 0)}
    iters = 0
    for i in range(width):
        exact2 = {0: 0, 1: 0}
        worst2 = {0: -1, 1: -1}
        chains2 = set()
        for g in (0, 1):
            for x, y in _DIGITS:
                gen, prop = x & y, x ^ y
                if not (g and prop):
                    exact2[gen] += exact[g]
                if worst[g] >= 0:
                    err = worst[g] + (2 << i if g and prop else 0)
                    worst2[gen] = max(worst2[gen], err)
        for g, r in chains:
            for x, y in _DIGITS:
                gen, prop = x & y, x ^ y
                if gen:
                    iters = max(iters, r)
                    chains2.add((1, 1))
                elif prop:
                    chains2.add((g, r + 1 if g else 0))
                else:
                    iters = max(iters, r)
                    chains2.add((0, 0))
        exact, worst, chains = exact2, worst2, chains2
    iters = max([iters] + [r for _, r in chains])
    n = 1 << width
    return {"width": width, "total_pairs": n * n,
            "exact_pairs": exact[0] + exact[1],
            "max_abs_error": max(worst.values()), "iterations_max": iters}


def subset_candidates(bound: int, max_size: int) -> int:
    """Subsets of the universe that contain {}: sum of C(2**b - 1, k - 1)."""
    others = (1 << bound) - 1
    return sum(comb(others, k - 1) for k in range(1, max_size + 1))
