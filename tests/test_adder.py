"""Word-level adder operations and exhaustive statistics."""

import pytest

from carrymagma import (RangeError, WordStats, approx_add, approx_stats,
                        exactness, iterated_add)
from carrymagma.adder import MAX_STATS_WIDTH
from carrymagma.errors import MAX_DIGITS

import oracles

# large widths, up to the cap
LARGE_WIDTHS = [64, 1000, MAX_STATS_WIDTH]


def stats_oracle(width: int) -> WordStats:
    """Definitional per-pair enumeration, independent of the per-bit pass."""
    n = 1 << width
    total = exact = max_err = iters_max = 0
    for a in range(n):
        for b in range(n):
            total += 1
            approx = approx_add(a, b)
            if approx == a + b:
                exact += 1
            max_err = max(max_err, abs(approx - (a + b)))
            iters_max = max(iters_max, iterated_add(a, b).rounds)
    return WordStats(width, total, exact, max_err, iters_max)


class TestApproxAdd:
    def test_single_carry_lands_clean(self):
        assert approx_add(1, 1) == 2

    def test_lost_carry_example(self):
        # 101 + 011: xor 110, carry 010; one round gives 100 = 4, not 8
        assert approx_add(5, 3) == 4
        assert 5 + 3 == 8

    def test_disjoint_bits(self):
        assert approx_add(4, 2) == 6

    def test_commutative_with_zero_identity(self):
        for a in range(1 << 6):
            assert approx_add(a, 0) == a
            for b in range(1 << 6):
                assert approx_add(a, b) == approx_add(b, a)


class TestKnuthSum:
    """Knuth's decomposition, the identity approx_add cuts to one round."""

    def test_hand_value(self):
        assert oracles.knuth_sum(5, 3) == 8

    def test_zero(self):
        for b in range(100):
            assert oracles.knuth_sum(0, b) == b

    def test_doubling_diagonal(self):
        for a in range(1 << 10):
            assert oracles.knuth_sum(a, a) == 2 * a

    def test_matches_addition_small_exhaustive(self):
        for a in range(1 << 7):
            for b in range(1 << 7):
                assert oracles.knuth_sum(a, b) == a + b


class TestIteratedAdd:
    def test_no_carry_costs_zero_rounds(self):
        assert iterated_add(4, 2) == (6, 0)

    def test_three_round_trace(self):
        # (6,2) -> (4,4) -> (0,8) -> (8,0)
        assert iterated_add(5, 3) == (8, 3)

    def test_single_update_convention(self):
        # initial decomposition (0, 2) needs exactly one update to settle
        assert iterated_add(1, 1) == (2, 1)

    def test_exact_with_bounded_rounds(self):
        for a in range(1 << 7):
            for b in range(1 << 7):
                total, rounds = iterated_add(a, b)
                assert total == a + b
                assert rounds <= 8


class TestExactness:
    @pytest.mark.parametrize("a, b, expected", [
        (4, 2, True),
        (5, 3, False),
        (1, 3, False),
        (0, 0, True),
    ])
    def test_examples(self, a, b, expected):
        assert exactness(a, b) is expected

    def test_matches_definition_exhaustive(self):
        assert all(exactness(a, b) == (approx_add(a, b) == a + b)
                   for a in range(1 << 10) for b in range(1 << 10))


class TestApproxStats:
    def test_width_zero(self):
        assert approx_stats(0) == WordStats(0, 1, 1, 0, 0)

    def test_width_one_all_exact(self):
        stats = approx_stats(1)
        assert (stats.total_pairs, stats.exact_pairs) == (4, 4)

    def test_width_two(self):
        stats = approx_stats(2)
        assert (stats.total_pairs, stats.exact_pairs) == (16, 14)
        failures = {(a, b) for a in range(4) for b in range(4)
                    if approx_add(a, b) != a + b}
        assert failures == {(1, 3), (3, 1)}

    @pytest.mark.parametrize("width", range(9))
    def test_matches_definitional_oracle(self, width):
        want = stats_oracle(width)
        assert approx_stats(width) == want
        assert oracles.exact_pairs_by_automaton(width)[width] \
            == want.exact_pairs

    def test_width_twelve_pinned(self):
        # the figures the earlier full-grid enumeration gave
        assert approx_stats(12) == WordStats(12, 16777216, 3028544, 5460, 12)

    def test_exact_pairs_recurrence_matches_automaton(self):
        # The automaton's count at width w is u M^w f for its 4x4
        # transfer matrix M, so by Cayley-Hamilton it satisfies a linear
        # recurrence of order 4; the library's satisfies one of order 2.
        # Their difference satisfies the product recurrence, of order 6,
        # so 6 equal consecutive terms make every term equal.  Widths
        # 0-70 give 71.
        assert [approx_stats(w).exact_pairs for w in range(71)] \
            == oracles.exact_pairs_by_automaton(70)

    @pytest.mark.parametrize("width", [*range(1, 13), *LARGE_WIDTHS])
    def test_max_abs_error_attained(self, width):
        # all ones against bits w - 2, w - 4, ...: collisions at
        # w - 1, w - 3, ..., the largest loss the closed form gives
        a = (1 << width) - 1
        b = sum(1 << i for i in range(width - 2, -1, -2))
        assert a + b - approx_add(a, b) == approx_stats(width).max_abs_error

    @pytest.mark.parametrize("width", [*range(1, 13), *LARGE_WIDTHS])
    def test_iterations_max_reached(self, width):
        assert iterated_add((1 << width) - 1, 1).rounds == width
        assert approx_stats(width).iterations_max == width

    @pytest.mark.parametrize("width", range(7))
    def test_round_bound_invariant(self, width):
        stats = approx_stats(width)
        assert stats.exact_pairs <= stats.total_pairs
        assert stats.iterations_max <= width + 1

    def test_cap_is_the_widest_whose_pairs_print(self):
        # compared with 10**MAX_DIGITS: str() of a longer int raises
        assert MAX_STATS_WIDTH == 7142
        assert len(str(4 ** MAX_STATS_WIDTH)) == MAX_DIGITS
        assert 4 ** (MAX_STATS_WIDTH + 1) >= 10 ** MAX_DIGITS
        assert approx_stats(MAX_STATS_WIDTH).total_pairs \
            == 4 ** MAX_STATS_WIDTH

    # a 4300-digit width is refused before 4**width is built
    @pytest.mark.parametrize("width", [
        MAX_STATS_WIDTH + 1, pytest.param(10**4299, id="10**4299"), -1])
    def test_out_of_range_width(self, width):
        with pytest.raises(RangeError, match="4300 digits, so width <= 7142"):
            approx_stats(width)
