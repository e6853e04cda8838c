"""The core algebra: oplus, stretch, the inverse construction, the solver."""

import pytest

from carrymagma import EMPTY, FinSet, invert, oplus, parse, solve, stretch
from oracles import solve_by_sweep, stretch_by_steps

FIGURE_SET = FinSet.of(3, 4, 5, 10, 12)
FIGURE_INVERSE = FinSet.of(3, 5, 6, 10, 11, 12, 13)


class TestOplus:
    def test_neutral_element(self):
        assert oplus(FinSet.of(0), EMPTY) == FinSet.of(0)
        for bits in range(1 << 12):
            a = FinSet(bits)
            assert oplus(a, EMPTY) == a
            assert oplus(EMPTY, a) == a

    def test_single_collision_carries(self):
        assert oplus(FinSet.of(1), FinSet.of(1)) == FinSet.of(2)

    def test_annihilating_pair(self):
        assert oplus(FinSet.of(0), FinSet.of(0, 1)) == EMPTY
        assert oplus(FinSet.of(3, 4, 5), FinSet.of(3, 5, 6)) == EMPTY

    def test_non_associativity_witness(self):
        a, c = FinSet.of(0), FinSet.of(1)
        assert oplus(oplus(a, a), c) == FinSet.of(2)
        assert oplus(a, oplus(a, c)) == EMPTY

    def test_commutative_small_exhaustive(self):
        for a_bits in range(1 << 6):
            for b_bits in range(a_bits, 1 << 6):
                a, b = FinSet(a_bits), FinSet(b_bits)
                assert oplus(a, b) == oplus(b, a)

    def test_self_application_shifts(self):
        for bits in range(1 << 12):
            a = FinSet(bits)
            assert oplus(a, a).bits == bits << 1

    def test_result_stays_near_operands(self):
        for a_bits in range(1, 1 << 6):
            for b_bits in range(1, 1 << 6):
                a, b = FinSet(a_bits), FinSet(b_bits)
                r = oplus(a, b)
                if r:
                    assert max(r) <= max(*a, *b) + 1


class TestStretch:
    @pytest.mark.parametrize("a, n, expected", [
        (FIGURE_SET, 5, 3),
        (FIGURE_SET, 12, 1),
        (FIGURE_INVERSE, 11, 2),
        (FIGURE_INVERSE, 4, 0),
    ])
    def test_figure_values(self, a, n, expected):
        assert stretch(a, n) == expected

    def test_absent_position_is_zero(self):
        assert stretch(EMPTY, 0) == 0
        assert stretch(FinSet.of(1, 2), 5) == 0

    def test_run_touching_zero(self):
        # the run cannot extend below position 0
        assert stretch(FinSet.of(0, 1, 2), 2) == 3
        assert stretch(FinSet.of(0), 0) == 1

    def test_counts_run_length(self):
        a = FinSet.of(2, 3, 4, 5)
        assert [stretch(a, n) for n in range(8)] == [0, 0, 1, 2, 3, 4, 0, 0]

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            stretch(FinSet.of(0), -1)

    def test_matches_stepping_oracle_exhaustive(self):
        for bits in range(1 << 10):
            a = FinSet(bits)
            for n in range(12):
                assert stretch(a, n) == stretch_by_steps(bits, n)

    def test_huge_position(self):
        assert stretch(FinSet.of(1), 99_999_999_999) == 0
        run = FinSet((1 << 10**6) - 1)
        assert stretch(run, 10**6 - 1) == 10**6


class TestInvert:
    @pytest.mark.parametrize("a, expected", [
        (FinSet.of(0), FinSet.of(0, 1)),
        (FinSet.of(7), FinSet.of(7, 8)),
        (FinSet.of(3, 4, 5), FinSet.of(3, 5, 6)),
        (FIGURE_SET, FIGURE_INVERSE),
        (EMPTY, EMPTY),
    ])
    def test_known_inverses(self, a, expected):
        assert invert(a) == expected

    def test_singletons(self):
        for n in range(16):
            assert invert(FinSet.of(n)) == FinSet.of(n, n + 1)

    def test_even_stretch_member_dropped(self):
        # in {0,1} the element 1 has stretch 2, so only 0 survives
        assert invert(FinSet.of(0, 1)) == FinSet.of(0)
        assert oplus(FinSet.of(0, 1), FinSet.of(0)) == EMPTY

    def test_inverse_law_exhaustive(self):
        for bits in range(1 << 10):
            a = FinSet(bits)
            b = invert(a)
            assert oplus(a, b) == EMPTY
            # cancellation restated: the two halves of oplus coincide
            assert a.bits ^ b.bits == (a.bits & b.bits) << 1

    def test_minimum_preserved(self):
        for bits in range(1, 1 << 10):
            a = FinSet(bits)
            assert min(invert(a)) == min(a)

    def test_million_bit_run(self):
        # members 0..10**6-1 each have stretch n+1: the evens survive
        evens = ((1 << 10**6) - 1) // 3
        assert invert(FinSet((1 << 10**6) - 1)) == FinSet(evens)


class TestSolve:
    def test_neutral_left_operand(self):
        for bits in range(1 << 6):
            b = FinSet(bits)
            assert solve(EMPTY, b) == b

    def test_empty_target_gives_inverse(self):
        for bits in range(1 << 10):
            a = FinSet(bits)
            assert solve(a, EMPTY) == invert(a)

    def test_brute_force_example(self):
        a, b = FinSet.of(0), FinSet.of(2)
        scan_hits = [FinSet(x) for x in range(1 << 4)
                     if oplus(a, FinSet(x)) == b]
        assert scan_hits == [parse("{0,1,2}")]
        assert solve(a, b) == scan_hits[0]

    def test_matches_bit_sweep_exhaustive(self):
        for a_bits in range(1 << 8):
            for b_bits in range(1 << 8):
                assert solve(FinSet(a_bits), FinSet(b_bits)).bits == \
                    solve_by_sweep(a_bits, b_bits)

    def test_round_trips_exhaustive(self):
        for a_bits in range(1 << 8):
            a = FinSet(a_bits)
            for other_bits in range(1 << 8):
                b = FinSet(other_bits)
                assert oplus(a, solve(a, b)) == b
                assert solve(a, oplus(a, b)) == b
