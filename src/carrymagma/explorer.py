"""Desk-scale probes of the magma's structure.

Exhaustive associativity scans over a truncated universe of sets, a
search for closed substructures behaving like subgroups, and self-oplus
orbits.  Universes are the power sets of [0, bound); operation results
may leave the universe, and candidates whose closure does so are
classified as escaping rather than silently truncated, since truncation
would fabricate closure that does not exist over the full naturals.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .bitset import FinSet, format
from .errors import RangeError
from .magma import invert, oplus

MAX_ASSOC_BOUND = 6
MAX_SUBSET_BOUND = 5
MAX_SUBSET_CANDIDATES = 2**16

_CHUNK = 4096


@dataclass(frozen=True)
class Witness:
    """A triple on which the two association orders disagree."""

    a: FinSet
    b: FinSet
    c: FinSet
    left: FinSet   # (a oplus b) oplus c
    right: FinSet  # a oplus (b oplus c)


@dataclass(frozen=True)
class ClosureFailure:
    """The operation application that pushed a candidate out of shape."""

    operation: str  # "oplus" or "invert"
    operands: tuple[FinSet, ...]
    result: FinSet


@dataclass(frozen=True)
class SubsetReport:
    """Classification of one candidate subset of the universe.

    status is one of:
      subgroup            contains {}, closed under oplus and invert,
                          and oplus restricted to the members is
                          associative
      escaping            some oplus or invert result has an element at
                          or beyond the universe bound
      not_closed          some oplus result stays inside the universe
                          but is not a member
      not_inverse_closed  some inverse is not a member
      non_associative     closed, but some member triple has a Witness

    witness carries the explaining Witness or ClosureFailure when the
    status has one.
    """

    members: tuple[FinSet, ...]
    status: str
    witness: Union[Witness, ClosureFailure, None] = None


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


def _op_table(size: int) -> list[list[int]]:
    """size x size table of oplus on encodings, built from the real op."""
    return [[oplus(FinSet(x), FinSet(y)).bits for y in range(size)]
            for x in range(size)]


def _scan_rows(rows: range, n: int, op: list[list[int]]):
    failing = 0
    first = None
    for a in rows:
        row_a = op[a]
        for b in range(n):
            row_ab = op[row_a[b]]
            row_b = op[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    failing += 1
                    if first is None:
                        first = (a, b, c)
    return failing, first


def scan_associativity(bound: int, workers: int = 1) -> AssocScan:
    """Test every triple of subsets of [0, bound) for associativity.

    Returns total and failing triple counts plus the first failing
    triple in lexicographic encoding order.  Triples are evaluated with
    the full operation, so intermediate results beyond the universe
    bound are handled exactly.  Worker counts only partition the scan
    range; the merged result is identical for any count.
    """
    if not 0 <= bound <= MAX_ASSOC_BOUND:
        raise RangeError(f"bound {bound} out of range: associativity scans are "
                         f"capped at bound {MAX_ASSOC_BOUND} "
                         f"(2**{3 * MAX_ASSOC_BOUND} triples)")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n = 1 << bound
    # Intermediates of universe pairs stay below 2**(bound+1); a square
    # table that size lets both association orders run on lookups alone.
    op = _op_table(1 << (bound + 1))
    if workers == 1:
        results = [_scan_rows(range(n), n, op)]
    else:
        step = max(1, -(-n // (4 * workers)))
        chunks = [range(s, min(s + step, n)) for s in range(0, n, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda ch: _scan_rows(ch, n, op), chunks))
    failing = sum(r[0] for r in results)
    first = next((r[1] for r in results if r[1] is not None), None)
    witness = None
    if first is not None:
        witness = assoc_witness(FinSet(first[0]), FinSet(first[1]),
                                FinSet(first[2]))
    return AssocScan(n ** 3, failing, witness)


def _classify(members: tuple[int, ...], n: int, op: list[list[int]],
              inv: list[int]) -> SubsetReport:
    """Classify one candidate, scanning pairs in encoding order.

    Escape wins over every in-universe failure, then oplus closure,
    then inverse closure, then associativity; the first offending pair
    or triple in scan order becomes the witness.
    """
    fins = tuple(FinSet(m) for m in members)
    member_set = set(members)

    def failure(status, operation, operands, result):
        blame = ClosureFailure(operation, tuple(FinSet(m) for m in operands),
                               FinSet(result))
        return SubsetReport(fins, status, blame)

    for i, x in enumerate(members):
        for y in members[i:]:
            if op[x][y] >= n:
                return failure("escaping", "oplus", (x, y), op[x][y])
    for x in members:
        if inv[x] >= n:
            return failure("escaping", "invert", (x,), inv[x])
    for i, x in enumerate(members):
        for y in members[i:]:
            if op[x][y] not in member_set:
                return failure("not_closed", "oplus", (x, y), op[x][y])
    for x in members:
        if inv[x] not in member_set:
            return failure("not_inverse_closed", "invert", (x,), inv[x])
    for x in members:
        for y in members:
            xy = op[x][y]
            for z in members:
                if op[xy][z] != op[x][op[y][z]]:
                    witness = assoc_witness(FinSet(x), FinSet(y), FinSet(z))
                    return SubsetReport(fins, "non_associative", witness)
    return SubsetReport(fins, "subgroup")


def _candidates(n: int, max_size: int) -> Iterator[tuple[int, ...]]:
    """Candidate member tuples: {} plus up to max_size-1 other universe
    sets, by size then lexicographic on the encoding tuple."""
    for size in range(1, max_size + 1):
        for combo in combinations(range(1, n), size - 1):
            yield (0,) + combo


def _chunked(items: Iterable, size: int) -> Iterator[list]:
    iterator = iter(items)
    while chunk := list(islice(iterator, size)):
        yield chunk


def search_closed_subsets(bound: int, max_size: int,
                          workers: int = 1) -> list[SubsetReport]:
    """Classify every subset of the universe that contains {}.

    Enumerates all S with {} in S and |S| <= max_size over the universe
    of subsets of [0, bound), in deterministic order (size, then
    lexicographic on the sorted encodings), and classifies each.  The
    candidate count, the sum of C(2**bound - 1, k - 1) over sizes k up
    to max_size, grows as 2**(2**bound - 1) for full sweeps, so it is
    capped at MAX_SUBSET_CANDIDATES.  Worker partitioning merges chunks
    in order, keeping the report list identical for any worker count.
    """
    if not 0 <= bound <= MAX_SUBSET_BOUND:
        raise RangeError(f"bound {bound} out of range: the subset search is "
                         f"capped at bound {MAX_SUBSET_BOUND}")
    n = 1 << bound
    if not 0 <= max_size <= n:
        raise RangeError(f"max_size {max_size} out of range: a universe of "
                         f"{n} sets admits at most {n} members")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    count = sum(comb(n - 1, k - 1) for k in range(1, max_size + 1))
    if count > MAX_SUBSET_CANDIDATES:
        raise RangeError(f"{count} candidates > limit "
                         f"{MAX_SUBSET_CANDIDATES}: lower the bound or "
                         "max_size")
    op = _op_table(n)
    inv = [invert(FinSet(x)).bits for x in range(n)]
    candidates = _candidates(n, max_size)
    if workers == 1:
        return [_classify(m, n, op, inv) for m in candidates]

    def classify_chunk(chunk: list[tuple[int, ...]]) -> list[SubsetReport]:
        return [_classify(m, n, op, inv) for m in chunk]

    reports: list[SubsetReport] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(classify_chunk, _chunked(candidates, _CHUNK)):
            reports.extend(part)
    return reports


def orbit(a: FinSet, k: int) -> list[FinSet]:
    """First k left-iterates of a under oplus: a, a⊕a, (a⊕a)⊕a, ..."""
    if k < 0:
        raise ValueError(f"iteration count must be non-negative, got {k}")
    out = []
    current = a
    for _ in range(k):
        out.append(current)
        current = oplus(current, a)
    return out


def witness_as_dict(w: Witness) -> dict:
    return {"a": format(w.a), "b": format(w.b), "c": format(w.c),
            "left": format(w.left), "right": format(w.right)}


def failure_as_dict(f: ClosureFailure) -> dict:
    return {"operation": f.operation,
            "operands": [format(x) for x in f.operands],
            "result": format(f.result)}


def report_as_dict(r: SubsetReport) -> dict:
    if isinstance(r.witness, Witness):
        blame = witness_as_dict(r.witness)
    elif isinstance(r.witness, ClosureFailure):
        blame = failure_as_dict(r.witness)
    else:
        blame = None
    return {"size": len(r.members),
            "members": [format(m) for m in r.members],
            "status": r.status,
            "witness": blame}


def search_summary(reports: list[SubsetReport]) -> dict:
    """Totals line for a search run, with a fixed key order."""
    counts = {"subgroup": 0, "escaping": 0, "not_closed": 0,
              "not_inverse_closed": 0, "non_associative": 0}
    for r in reports:
        counts[r.status] += 1
    return {"candidates": len(reports), **counts}
