"""Carry-approximation algebra on finite subsets of the naturals.

A finite set of naturals is a binary number written as the set of its
1-bit positions.  One round of carry propagation turns pairwise
addition into the commutative, non-associative operation

    oplus(A, B) = (A △ B) △ ((A ∩ B) + 1)

(△ symmetric difference, ∩ intersection, + 1 adding one to each
element) with the empty set as neutral element and an explicit inverse
for every set.  The package exposes that algebra, the word-level view
on plain integers, and desk-scale structure probes.
"""

from .adder import (AddResult, WordStats, approx_add, approx_stats, exactness,
                    iterated_add)
from .bitset import EMPTY, FinSet, decode, encode, format, parse
from .errors import RangeError, SetLiteralError
from .explorer import (AssocScan, ClosureFailure, SubsetReport, Witness,
                       assoc_witness, orbit, scan_associativity,
                       search_closed_subsets)
from .magma import invert, oplus, solve, stretch

__all__ = [
    "AddResult",
    "AssocScan",
    "ClosureFailure",
    "EMPTY",
    "FinSet",
    "RangeError",
    "SetLiteralError",
    "SubsetReport",
    "Witness",
    "WordStats",
    "approx_add",
    "approx_stats",
    "assoc_witness",
    "decode",
    "encode",
    "exactness",
    "format",
    "invert",
    "iterated_add",
    "oplus",
    "orbit",
    "parse",
    "scan_associativity",
    "search_closed_subsets",
    "solve",
    "stretch",
]
