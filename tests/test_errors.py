"""The cost policy: how a refusal names a number, and the byte budget
the size caps derive from."""

from math import comb

import pytest

from carrymagma import (FinSet, RangeError, SetLiteralError, approx_stats,
                        orbit, scan_associativity, search_closed_subsets)
from carrymagma.bitset import MAX_ELEMENT
from carrymagma.cli import run
from carrymagma.errors import (DIGIT_LIMIT, MAX_BYTES, MAX_DIGITS,
                               RECORD_BYTES, shown)
from carrymagma.explorer import (MAX_ORBIT_BITS, MAX_SUBSET_BOUND,
                                 MAX_SUBSET_CANDIDATES, _MIN_ITERATE_BITS)

# 10**4300 has 14,285 bits, one more than MAX_BITS
HUGE = 10**4300


class TestShown:
    def test_numbers_that_print_are_written_out(self):
        assert DIGIT_LIMIT == HUGE
        assert shown(HUGE - 1) == "9" * MAX_DIGITS
        assert shown(1 - HUGE) == "-" + "9" * MAX_DIGITS
        assert shown(0) == "0"

    def test_longer_numbers_are_named_by_bit_length(self):
        assert shown(HUGE) == "<14285-bit integer>"
        assert shown(-HUGE) == "-<14285-bit integer>"
        assert shown(1 << 16777215) == "<16777216-bit integer>"


# each refusal names its unprintable number by bit length, and the cap
@pytest.mark.parametrize("call, message", [
    (lambda: approx_stats(HUGE),
     "width <14285-bit integer> out of range: 4**width pairs must print "
     "within 4300 digits, so width <= 7142"),
    (lambda: approx_stats(-HUGE),
     "width -<14285-bit integer> out of range: 4**width pairs must print "
     "within 4300 digits, so width <= 7142"),
    (lambda: scan_associativity(HUGE),
     "bound <14285-bit integer> out of range: 8**bound triples must print "
     "within 4300 digits, so bound <= 4761"),
    (lambda: search_closed_subsets(HUGE),
     "bound <14285-bit integer> out of range: the subset search is capped "
     "at bound 5"),
    (lambda: search_closed_subsets(3, HUGE),
     "max_size <14285-bit integer> out of range: a universe of 8 sets "
     "admits at most 8 members"),
    (lambda: orbit(FinSet.of(0), HUGE // 10),
     f"{HUGE // 10} iterations cost <14292-bit integer> bits > limit "
     "134217728: ask for fewer iterations"),
], ids=["stats", "stats-negative", "scan", "search-bound", "search-max-size",
        "orbit"])
def test_unprintable_request_is_refused_by_bit_length(call, message):
    with pytest.raises(RangeError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_unprintable_element_is_refused_by_bit_length():
    with pytest.raises(SetLiteralError) as excinfo:
        FinSet.of(HUGE)
    assert str(excinfo.value) == ("element <14285-bit integer> is too large: "
                                  "elements must be below MAX_ELEMENT = "
                                  "16777216")


class TestByteBudget:
    def test_caps_derive_from_the_budget(self):
        assert (MAX_BYTES, RECORD_BYTES) == (2**24, 256)
        assert MAX_ELEMENT == MAX_BYTES == 2**24
        assert MAX_ORBIT_BITS == 8 * MAX_BYTES == 2**27
        assert _MIN_ITERATE_BITS == 8 * RECORD_BYTES == 2048
        assert MAX_SUBSET_CANDIDATES == MAX_BYTES // RECORD_BYTES == 2**16

    @pytest.mark.parametrize("bound", range(MAX_SUBSET_BOUND + 1))
    def test_search_output_fits_its_records(self, capsys, bound):
        # at the largest max_size the candidate cap admits, the report
        # lines and the totals line take at most RECORD_BYTES a candidate
        n = 1 << bound
        counts = [sum(comb(n - 1, k) for k in range(m)) for m in range(n + 1)]
        max_size = max(m for m, c in enumerate(counts)
                       if c <= MAX_SUBSET_CANDIDATES)
        assert run(["search-subgroups", "--bound", str(bound),
                    "--max-size", str(max_size)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == counts[max_size] + 1
        assert len(out.encode()) <= counts[max_size] * RECORD_BYTES
