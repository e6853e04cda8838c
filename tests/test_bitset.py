"""Set representation, literals, and the primitive operations."""

import sys
import time
import tracemalloc
from itertools import starmap, zip_longest
from operator import eq

import pytest

from carrymagma import (EMPTY, FinSet, SetLiteralError, decode, encode,
                        format, parse)
from carrymagma.bitset import _SHOWN_DIGITS, MAX_ELEMENT, _mask

import oracles


def members(universe: int, bits: int) -> set[int]:
    """Elementwise oracle view of a mask: membership checked per position."""
    return {x for x in range(universe) if bits >> x & 1}


class TestParse:
    def test_empty_literal(self):
        assert parse("{}") == EMPTY

    def test_direct_listing(self):
        assert parse("3,4,5") == FinSet.of(3, 4, 5)

    def test_order_insensitive(self):
        assert parse("5,3,4") == parse("3,4,5")
        # a large literal top first, on each path that builds a mask:
        # the JSON scanner, the token loop (one zero-led token) and
        # FinSet.of
        descending = range(19999, -1, -3)
        bits = sum(1 << n for n in descending)
        tokens = list(map(str, descending))
        assert parse(",".join(tokens)).bits == bits
        tokens[-1] = "0" + tokens[-1]
        assert parse(",".join(tokens)).bits == bits
        assert FinSet.of(*descending).bits == bits

    def test_braces_and_whitespace_optional(self):
        assert parse(" { 3 , 4 ,5 } ") == FinSet.of(3, 4, 5)
        assert parse("") == EMPTY
        assert parse("   ") == EMPTY
        # plain bodies the JSON scanner refuses take the token loop:
        # leading zeros, and whitespace other than JSON's four
        assert parse("{007,00000008}") == FinSet.of(7, 8)
        assert (parse("\x0b1,\x0c2 ,\x1c3\x1d,\x1e4\x1f")
                == FinSet.of(1, 2, 3, 4))

    @pytest.mark.parametrize("text, offender", [
        ("3,x,5", "'x'"),
        ("{3,-4}", "'-4'"),
        ("3,,5", "''"),
        ("{3, 4.5}", "'4.5'"),
        ("oops", "'oops'"),
        # encode("ascii", "replace") reads a lone surrogate as "?"
        ("{1,\ud8005}", "'\\ud8005'"),
        # spellings JSON reads as numbers or values never reach its scanner
        ("{-0}", "'-0'"),
        ("{1,1e2}", "'1e2'"),
        ("null", "'null'"),
        ("{[1]}", "'[1]'"),
    ])
    def test_malformed_token_named(self, text, offender):
        with pytest.raises(SetLiteralError) as excinfo:
            parse(text)
        assert offender in str(excinfo.value)

    def test_duplicate_rejected(self):
        # the fast path sees a repeat as a mask with fewer bits than
        # tokens; the loop then names the first repeated token
        for text, token in [("3,4,3", "3"), ("0,0", "0"),
                            ("16777215,16777215", "16777215"),
                            ("5,16777215,5", "5"), ("{3, 1, 3}", "3"),
                            ("{07,7}", "7")]:
            with pytest.raises(SetLiteralError) as excinfo:
                parse(text)
            assert f"duplicate element {token!r}" in str(excinfo.value)

    @pytest.mark.parametrize("text", ["{3,4", "3,4}"])
    def test_mismatched_braces(self, text):
        with pytest.raises(SetLiteralError):
            parse(text)

    def test_element_cap(self):
        assert MAX_ELEMENT == 2**24
        assert parse(f"{{0,{2**24 - 1}}}") == FinSet.of(0, 2**24 - 1)
        assert parse("{0016777215}") == FinSet.of(2**24 - 1)
        for text in ("{16777216}", "{1,0016777216}", "{99999999999}"):
            with pytest.raises(SetLiteralError) as excinfo:
                parse(text)
            assert text.strip("{}").split(",")[-1] in str(excinfo.value)
            assert str(MAX_ELEMENT) in str(excinfo.value)

    def test_element_beyond_int_digit_limit(self):
        with pytest.raises(SetLiteralError, match="too large"):
            parse("{" + "9" * 5000 + "}")

    def test_long_token_named_by_digit_count(self):
        assert _SHOWN_DIGITS == 32
        with pytest.raises(SetLiteralError) as excinfo:
            parse("{" + "9" * 32 + "}")
        assert "element " + "9" * 32 + " is too large" in str(excinfo.value)
        for digits in (33, 100_000):
            with pytest.raises(SetLiteralError) as excinfo:
                parse("{1, " + "9" * digits + "}")
            message = str(excinfo.value)
            assert message == (f"element <{digits}-digit number> is too "
                               "large: elements must be below MAX_ELEMENT "
                               "= 16777216")
            assert len(message) < 200

    def test_peak_memory_is_a_few_times_the_literal(self):
        # the scanner builds the elements with no str per token; a list
        # of one str per token would take the peak to about 16 times
        literal = "{" + ",".join(map(str, range(2**18))) + "}"
        tracemalloc.start()
        try:
            assert len(parse(literal)) == 2**18
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * len(literal)

    def test_long_token_cheap_without_int_digit_limit(self):
        # int() is quadratic in the digits once the limit is lifted, so a
        # long token must be refused before any conversion
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int/str digit limit")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            start = time.perf_counter()
            with pytest.raises(SetLiteralError, match="too large"):
                parse("{" + "9" * 1_000_000 + "}")
            assert time.perf_counter() - start < 1.0
        finally:
            sys.set_int_max_str_digits(limit)


class TestFormat:
    def test_empty(self):
        assert format(EMPTY) == "{}"

    def test_ascending(self):
        assert format(FinSet.of(6, 3, 5)) == "{3,5,6}"

    def test_round_trip_exhaustive_small(self):
        for bits in range(1 << 8):
            a = FinSet(bits)
            assert parse(format(a)) == a

    def test_one_member_per_block_up_to_the_cap(self):
        # each 1000-position block holds one member, at an offset that
        # cycles through the one-, two- and three-digit edges of the tables
        offsets = (0, 1, 9, 10, 99, 100, 999)
        members = [n for q in range(MAX_ELEMENT // 1000 + 1)
                   if (n := q * 1000 + offsets[q % 7]) < MAX_ELEMENT]
        assert members[-1] == 16777100
        a = FinSet.of(*members)
        assert a.bits == mask_by_gaps(members)
        assert format(a) == literal(members)
        assert list(a) == members
        assert repr(a) == "FinSet.of(" + ", ".join(map(str, members)) + ")"
        assert parse(format(a)) == a


def literal(members) -> str:
    return "{" + ",".join(map(str, members)) + "}"


def mask_by_gaps(members) -> int:
    """The mask of ascending members from its binary digits, written low
    first as each member's run of zeros and its 1: linear in the top."""
    digits, last = [], -1
    for n in members:
        digits.append("0" * (n - last - 1) + "1")
        last = n
    return int("".join(digits)[::-1], 2)


def every_fourth(stop: int) -> int:
    """The mask of 3, 7, 11, ... below stop: (16**k - 1) // 15 sets every
    fourth bit from 0, k times."""
    k = len(range(3, stop, 4))
    return (16**k - 1) // 15 << 3


class TestDenseView:
    """The dense view of a set, one byte per position up to its top
    member: _mask builds every set from such a buffer of digits, and
    every set is written and iterated through _view."""

    @pytest.mark.parametrize("count", [1, 2, 3, 250, 1000])
    @pytest.mark.parametrize("excess", [-1, 0, 1])
    def test_both_sides_of_the_density_rule(self, count, excess):
        # count members with the top at count * spacing - excess: from
        # about half the positions down to one member after a run of zeros
        spacing = 4
        top = count * spacing - excess
        members = [*range(count - 1), top]
        bits = sum(1 << n for n in members)
        a = FinSet(bits)
        assert list(a) == oracles.positions(bits) == members
        assert format(a) == literal(members)
        assert parse(format(a)) == a
        assert _mask(members, max(members, default=0)) == bits

    def test_every_fourth_is_the_sum_of_its_bits(self):
        for stop in range(40):
            assert every_fourth(stop) == sum(1 << n for n in range(3, stop, 4))

    @pytest.mark.parametrize("edge", [999, 1000, 1001, 9999, 10000, 999999,
                                      1000000])
    def test_block_edges(self, edge):
        # every fourth position, then a run from edge - 3 to edge + 1
        members = [*range(3, edge - 3, 4), *range(edge - 3, edge + 2)]
        bits = every_fourth(edge - 3) | (1 << edge + 2) - (1 << edge - 3)
        a = FinSet(bits)
        assert list(a) == members
        assert format(a) == literal(members)
        assert parse(format(a)) == a
        assert _mask(members, max(members, default=0)) == bits

    def test_block_edge_at_the_cap(self):
        # one member per four positions with its top at the cap, checked
        # without a list of its 4,194,304 members
        members = range(3, MAX_ELEMENT, 4)
        assert members[-1] == MAX_ELEMENT - 1
        bits = every_fourth(MAX_ELEMENT)
        assert _mask(members, max(members, default=0)) == bits
        a = FinSet(bits)
        assert all(starmap(eq, zip_longest(a, members)))
        # literal(members) a slice of members at a time: each slice's text
        # in place, and a comma between slices
        text, pos = format(a), 1
        for i in range(0, len(members), 1 << 16):
            piece = literal(members[i:i + (1 << 16)])[1:-1]
            assert text.startswith(piece, pos)
            pos += len(piece) + 1
        assert (text[0], pos) == ("{", len(text))
        assert text.count(",") == len(members) - 1 and text[-1] == "}"


class TestFinSet:
    def test_extensional_equality_is_structural(self):
        assert FinSet.of(1, 2) == decode(6)
        assert hash(FinSet.of(0, 3)) == hash(decode(9))

    def test_membership_iteration_len(self):
        a = FinSet.of(0, 2, 7)
        assert list(a) == [0, 2, 7]
        assert len(a) == 3
        assert 2 in a and 3 not in a and -1 not in a

    @pytest.mark.parametrize("members", [[], [0], [2**24 - 1],
                                         [0, 2**24 - 1]])
    def test_iteration_and_format_at_the_cap(self, members):
        a = FinSet.of(*members)
        assert (a.bits == _mask(members, max(members, default=0))
                == sum(1 << n for n in members))
        assert list(a) == members
        assert format(a) == "{" + ",".join(map(str, members)) + "}"
        assert repr(a) == "FinSet.of(" + ", ".join(map(str, members)) + ")"
        assert parse(format(a)) == a

    def test_one_byte_per_position_at_the_cap(self):
        # one digit per position, 16 MiB, and the 2 MiB int; a str copy
        # of the digits or a list per position would pass 20 MiB
        for build, arg in ((parse, "{16777215}"), (FinSet.of, 16777215)):
            tracemalloc.start()
            try:
                a = build(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert a.bits == 1 << 16777215
            assert peak < 20 * 2**20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FinSet.of(-1)
        with pytest.raises(ValueError):
            FinSet(-5)

    def test_element_cap(self):
        assert FinSet.of(2**24 - 1).bits == 1 << 2**24 - 1
        with pytest.raises(SetLiteralError, match="16777216"):
            FinSet.of(2**24)

    def test_ordering_follows_encoding(self):
        assert sorted([FinSet.of(2), EMPTY, FinSet.of(0, 1)]) == [
            EMPTY, FinSet.of(0, 1), FinSet.of(2)]


class TestPrimitiveOps:
    """The pieces of (A △ B) △ ((A ∩ B) + 1) are bit operations on the
    encodings, checked against Python sets of members."""

    def test_sym_diff_hand_example(self):
        a, b = FinSet.of(3, 4, 5), FinSet.of(3, 5, 6)
        expected = members(8, a.bits) ^ members(8, b.bits)
        assert expected == {4, 6}
        assert decode(encode(a) ^ encode(b)) == FinSet.of(*expected)

    def test_intersect_examples(self):
        a, b = FinSet.of(3, 4, 5), FinSet.of(3, 5, 6)
        expected = members(8, a.bits) & members(8, b.bits)
        assert expected == {3, 5}
        assert decode(encode(a) & encode(b)) == FinSet.of(*expected)

    def test_shift_up(self):
        for a, k in [(EMPTY, 1), (FinSet.of(0, 2), 1), (FinSet.of(1, 4), 0),
                     (FinSet.of(0), 3)]:
            assert decode(encode(a) << k) == FinSet.of(*(n + k for n in a))


class TestEncodeDecode:
    def test_examples(self):
        assert encode(EMPTY) == 0
        assert encode(FinSet.of(0, 2)) == 5
        assert decode(0) == EMPTY
        assert decode(5) == FinSet.of(0, 2)
        assert decode(6) == FinSet.of(1, 2)

    def test_bijection_over_12_bit_universe(self):
        seen = set()
        for bits in range(1 << 12):
            a = FinSet(bits)
            assert decode(encode(a)) == a
            seen.add(encode(a))
        assert len(seen) == 1 << 12

    def test_encode_homomorphisms(self):
        for a_bits in range(1 << 6):
            for b_bits in range(1 << 6):
                a, b = FinSet(a_bits), FinSet(b_bits)
                assert (set(decode(encode(a) ^ encode(b)))
                        == members(6, a_bits) ^ members(6, b_bits))
            assert (set(decode(2 * a_bits))
                    == {n + 1 for n in members(6, a_bits)})

    def test_decode_negative_rejected(self):
        with pytest.raises(ValueError):
            decode(-1)


def test_fact_one_exhaustive():
    # X △ Y = {} exactly when X = Y, over all pairs from [0,8)
    universe = [(FinSet(bits), members(8, bits)) for bits in range(1 << 8)]
    for x, x_members in universe:
        for y, y_members in universe:
            assert (x_members ^ y_members == set()) == (x == y)
