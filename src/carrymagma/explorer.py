"""Desk-scale probes of the magma's structure.

Closed-form associativity counts over a truncated universe of sets, a
search for closed substructures behaving like subgroups, and self-oplus
orbits.  Universes are the power sets of [0, bound); operation results
may leave the universe, and candidates whose closure does so are
classified as escaping rather than silently truncated, since truncation
would fabricate closure that does not exist over the full naturals.
"""

from bisect import bisect_left
from itertools import combinations
from math import comb
from typing import NamedTuple, Optional

from .bitset import FinSet, format
from .errors import (MAX_BITS, MAX_BYTES, MAX_DIGITS, RECORD_BYTES,
                     RangeError, shown)
from .magma import oplus

MAX_ASSOC_BOUND = MAX_BITS // 3  # 8**bound triples print within MAX_DIGITS
MAX_SUBSET_BOUND = 5
MAX_SUBSET_CANDIDATES = MAX_BYTES // RECORD_BYTES
MAX_ORBIT_BITS = 8 * MAX_BYTES
_MIN_ITERATE_BITS = 8 * RECORD_BYTES


class Witness(NamedTuple):
    """A triple on which the two association orders disagree."""

    a: FinSet
    b: FinSet
    c: FinSet
    left: FinSet   # (a oplus b) oplus c
    right: FinSet  # a oplus (b oplus c)


class ClosureFailure(NamedTuple):
    """The operation application that pushed a candidate out of shape."""

    operation: str  # "oplus" in every search report (see SubsetReport)
    operands: tuple[FinSet, ...]
    result: FinSet


class SubsetReport(NamedTuple):
    """Classification of one candidate subset of the universe.

    status is one of:
      escaping    some oplus result has an element at or beyond the
                  universe bound
      not_closed  some oplus result stays inside the universe but is
                  not a member
      subgroup    contains {}, closed under oplus and invert, and oplus
                  restricted to the members is associative

    No other outcome exists, since a ⊕ a = a << 1: the largest
    non-empty member's double escapes or is a larger set, so not a
    member.  Only {{}} is left, and it is a subgroup: {} ⊕ {} = {} and
    invert({}) = {}.  witness is the ClosureFailure of the first
    offending pair, or None for a subgroup.
    """

    members: tuple[FinSet, ...]
    status: str
    witness: Optional[ClosureFailure] = None


class AssocScan(NamedTuple):
    total_triples: int
    failing_triples: int
    first_witness: Optional[Witness]


def assoc_witness(a: FinSet, b: FinSet, c: FinSet) -> Optional[Witness]:
    """Return a Witness iff (a⊕b)⊕c differs from a⊕(b⊕c)."""
    left = oplus(oplus(a, b), c)
    right = oplus(a, oplus(b, c))
    if left == right:
        return None
    return Witness(a, b, c, left, right)


def _associative_triples(bound: int) -> int:
    """Associative triples over subsets of [0, bound): s_0 = 1, s_1 = 8,
    s_b = 6 s_{b-1} + 4 s_{b-2}, proved in the tests against the
    64-state automaton that walks the triples' bit positions."""
    s, t = 1, 8
    for _ in range(bound):
        s, t = t, 6 * t + 4 * s
    return s


def scan_associativity(bound: int) -> AssocScan:
    """Count the triples of subsets of [0, bound) that are not associative.

    Returns total and failing triple counts plus the first failing
    triple in lexicographic encoding order, in O(bound) steps, up to
    MAX_ASSOC_BOUND.  A triple holding {} is associative, {} being
    neutral, and ({0}, {0}, {0}) is by commutativity, so the first
    witness is ({0}, {0}, {1}) once the universe holds {1}, at bound 2.
    """
    if not 0 <= bound <= MAX_ASSOC_BOUND:
        raise RangeError(f"bound {shown(bound)} out of range: 8**bound "
                         f"triples must print within {MAX_DIGITS} digits, so "
                         f"bound <= {MAX_ASSOC_BOUND}")
    total = 8 ** bound
    witness = (assoc_witness(FinSet.of(0), FinSet.of(0), FinSet.of(1))
               if bound >= 2 else None)
    return AssocScan(total, total - _associative_triples(bound), witness)


def _classify(fins: tuple[FinSet, ...], members: tuple[int, ...],
              pairs: list[list[ClosureFailure]]) -> SubsetReport:
    """Classify a candidate whose members all lie below top, so no pair
    escapes: the first pair in encoding order whose result is not a
    member is the witness.  x ⊕ x = x << 1 for the largest non-empty
    member x, so every candidate but (0,) = {{}} is not closed by then,
    and inverses and associativity need no check.  fins are the members'
    shared universe FinSets."""
    mask = sum(1 << x for x in members)
    for i, x in enumerate(members):
        for y in members[i:]:
            if not mask >> pairs[x][y].result.bits & 1:
                return SubsetReport(fins, "not_closed", pairs[x][y])
    return SubsetReport(fins, "subgroup")


def search_closed_subsets(bound: int,
                          max_size: Optional[int] = None) -> list[SubsetReport]:
    """Classify every subset of the universe that contains {}.

    Enumerates all S with {} in S and |S| <= max_size (default: the
    whole universe) over the universe of subsets of [0, bound), by size
    then lexicographic on the encoding tuple.  The candidate count, the
    sum of C(2**bound - 1, k - 1) over sizes k up to max_size, grows as
    2**(2**bound - 1) for full sweeps, so it is capped at
    MAX_SUBSET_CANDIDATES.  x ⊕ y leaves the universe iff x & y holds
    top, bit bound - 1 (0 at bound 0), and no inverse escapes first, as
    max(invert(a)) <= max(a) + 1: a candidate escapes iff its largest
    member holds top, first at (H, H), H the least member that does, in
    O(1) steps.  Only the 2**(n/2 - 1) at most below top get a pair
    scan (n = 2**bound >= 2).  Reports share their sets: one FinSet per
    universe set, and one ClosureFailure per application, in one table.
    """
    if not 0 <= bound <= MAX_SUBSET_BOUND:
        raise RangeError(f"bound {shown(bound)} out of range: the subset "
                         f"search is capped at bound {MAX_SUBSET_BOUND}")
    n = 1 << bound
    max_size = n if max_size is None else max_size
    if not 0 <= max_size <= n:
        raise RangeError(f"max_size {shown(max_size)} out of range: a "
                         f"universe of {n} sets admits at most {n} members")
    count = sum(comb(n - 1, k - 1) for k in range(1, max_size + 1))
    if count > MAX_SUBSET_CANDIDATES:
        raise RangeError(f"{count} candidates > limit "
                         f"{MAX_SUBSET_CANDIDATES}: lower the bound or "
                         "max_size")
    # every oplus result of universe sets lies below 2 * n
    universe = [FinSet(x) for x in range(2 * n)]
    pairs = [[ClosureFailure("oplus", (a, b), universe[oplus(a, b).bits])
              for b in universe[:n]] for a in universe[:n]]
    top = n >> 1
    empty = (universe[0],)
    out = []
    for k in range(max_size):
        for fins, xs in zip(combinations(universe[1:n], k),
                            combinations(range(1, n), k)):
            if xs and xs[-1] & top:
                h = xs[bisect_left(xs, top)]
                out.append(SubsetReport(empty + fins, "escaping",
                                        pairs[h][h]))
            else:
                out.append(_classify(empty + fins, (0, *xs), pairs))
    return out


def orbit(a: FinSet, k: int) -> list[FinSet]:
    """First k left-iterates of a under oplus: a, a⊕a, (a⊕a)⊕a, ...

    Every iterate's members lie in A ∪ (A + 1): if c's do, so do those
    of c ⊕ a = (c ^ a) ^ ((c & a) << 1).  So with m = a.bits.bit_length()
    an iterate has at most m + 1 bits and a literal of at most 2|A|
    members of len(str(m)) digits.  Each iterate weighs the larger of
    its bits, 8 bits per literal byte and _MIN_ITERATE_BITS, so the
    cost is known before iterating; it is capped at MAX_ORBIT_BITS.
    """
    if k < 0:
        raise ValueError(f"iteration count must be non-negative, got {k}")
    m = a.bits.bit_length()
    literal_bytes = 2 * a.bits.bit_count() * (len(str(m)) + 1) + 2
    cost = k * max(m + 1, 8 * literal_bytes, _MIN_ITERATE_BITS)
    if cost > MAX_ORBIT_BITS:
        raise RangeError(f"{shown(k)} iterations cost {shown(cost)} bits > "
                         f"limit {MAX_ORBIT_BITS}: ask for fewer iterations")
    out = []
    current = a
    for _ in range(k):
        out.append(current)
        current = oplus(current, a)
    return out


# Literals of every set below 2 << MAX_SUBSET_BOUND, which holds every
# member, operand and result of a subset search.
_LITERALS = [format(FinSet(x)) for x in range(2 << MAX_SUBSET_BOUND)]


def _literals(sets: tuple[FinSet, ...]) -> list[str]:
    """The sets' literals, from the table unless one is too large for it."""
    try:
        return [_LITERALS[a.bits] for a in sets]
    except IndexError:
        return [format(a) for a in sets]


def witness_as_dict(w: Witness) -> dict:
    return dict(zip(Witness._fields, _literals(w)))


def failure_as_dict(f: ClosureFailure) -> dict:
    # inlined, not _literals((*f.operands, f.result)): that tuple and
    # unpacking cost 9-22 ms more per 32,767 witnesses (25 -> 34-47 ms)
    try:
        operands = [_LITERALS[a.bits] for a in f.operands]
        result = _LITERALS[f.result.bits]
    except IndexError:
        operands, result = list(map(format, f.operands)), format(f.result)
    return {"operation": f.operation, "operands": operands, "result": result}


def report_as_dict(r: SubsetReport) -> dict:
    w = r.witness
    return {"size": len(r.members),
            "members": _literals(r.members),
            "status": r.status,
            "witness": None if w is None else failure_as_dict(w)}


def search_summary(reports: list[SubsetReport]) -> dict:
    """Totals line for a search run, with a fixed key order."""
    # the last two statuses never occur (see SubsetReport); their keys
    # stay so the totals line keeps its shape
    counts = {"subgroup": 0, "escaping": 0, "not_closed": 0,
              "not_inverse_closed": 0, "non_associative": 0}
    for r in reports:
        counts[r.status] += 1
    return {"candidates": len(reports), **counts}
