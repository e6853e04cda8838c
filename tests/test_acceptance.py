"""Acceptance suite: exact-example regression plus exhaustive law checks.

Each criterion prints one PASS/FAIL line (run with -s to see them all);
every assertion is exact, with no tolerances anywhere.
"""

import json
import time
from contextlib import contextmanager

from carrymagma import (EMPTY, FinSet, approx_add, approx_stats, encode,
                        invert, iterated_add, oplus, scan_associativity,
                        search_closed_subsets, solve, stretch)
from carrymagma.explorer import report_as_dict, search_summary
from oracles import (inverse_by_stretch_parity, knuth_sum, oplus_on_sets,
                     positions)


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL "
              f"[{time.perf_counter() - start:.2f}s]")
        raise
    print(f"criterion {number} ({name}): PASS "
          f"[{time.perf_counter() - start:.2f}s]")


def test_criterion_1_worked_example_regression():
    with criterion(1, "worked-example regression"):
        a, c = FinSet.of(0), FinSet.of(1)
        assert oplus(oplus(a, a), c) == FinSet.of(2)
        assert oplus(a, oplus(a, c)) == EMPTY

        assert invert(FinSet.of(0)) == FinSet.of(0, 1)
        for n in range(16):
            assert invert(FinSet.of(n)) == FinSet.of(n, n + 1)
        assert invert(FinSet.of(3, 4, 5)) == FinSet.of(3, 5, 6)
        assert invert(FinSet.of(3, 4, 5, 10, 12)) == \
            FinSet.of(3, 5, 6, 10, 11, 12, 13)

        run_set = FinSet.of(3, 4, 5, 10, 12)
        its_inverse = FinSet.of(3, 5, 6, 10, 11, 12, 13)
        assert stretch(run_set, 5) == 3
        assert stretch(run_set, 12) == 1
        assert stretch(its_inverse, 11) == 2
        assert stretch(its_inverse, 4) == 0


def test_criterion_2_inverse_construction_exhaustive():
    with criterion(2, "inverse construction over all 12-bit sets"):
        for bits in range(1 << 12):
            a = FinSet(bits)
            inverse = invert(a)
            assert inverse.bits == inverse_by_stretch_parity(bits)
            assert oplus(a, inverse) == EMPTY
            if bits:
                assert min(inverse) == min(a)


def test_criterion_3_unique_solutions_at_desk_scale():
    with criterion(3, "solver uniqueness over 8-bit pairs"):
        for a_bits in range(1 << 8):
            a = FinSet(a_bits)
            # scan every X over [0,10) once, bucketing by oplus(a, X)
            hits: dict[int, list[int]] = {}
            for x_bits in range(1 << 10):
                hits.setdefault(oplus(a, FinSet(x_bits)).bits,
                                []).append(x_bits)
            for b_bits in range(1 << 8):
                xs = hits.get(b_bits, [])
                assert len(xs) == 1
                assert solve(a, FinSet(b_bits)).bits == xs[0]
            assert hits[0] == [invert(a).bits]


def test_criterion_4_carry_decomposition_identity():
    with criterion(4, "carry decomposition equals addition"):
        assert all(knuth_sum(a, b) == a + b
                   for a in range(1 << 10) for b in range(1 << 10))


def test_criterion_5_one_round_correspondence():
    with criterion(5, "set operation matches word approximation"):
        members = [set(positions(bits)) for bits in range(1 << 8)]
        for a_bits in range(1 << 8):
            a = FinSet(a_bits)
            for b_bits in range(1 << 8):
                b = FinSet(b_bits)
                c = oplus(a, b)
                assert encode(c) == approx_add(a_bits, b_bits)
                # the paper's set formula, on Python sets of positions
                assert set(c) == oplus_on_sets(members[a_bits],
                                               members[b_bits])


def test_criterion_6_carry_iteration_convergence():
    with criterion(6, "iterated carries converge within width+1"):
        for a in range(1 << 10):
            for b in range(1 << 10):
                total, rounds = iterated_add(a, b)
                assert total == a + b
                assert rounds <= 11


def test_criterion_7_algebraic_laws():
    with criterion(7, "algebraic laws over 9-bit sets"):
        universe = [FinSet(bits) for bits in range(1 << 9)]
        for i, a in enumerate(universe):
            assert oplus(a, EMPTY) == a
            assert oplus(a, a).bits == a.bits << 1
            for b in universe[i:]:
                assert oplus(a, b) == oplus(b, a)
        members = [set(positions(a.bits)) for a in universe]
        for a, a_members in zip(universe, members):
            for b, b_members in zip(universe, members):
                assert (a_members ^ b_members == set()) == (a == b)


def test_criterion_8_explorer_theorems():
    with criterion(8, "explorer theorems and determinism"):
        scan = scan_associativity(2)
        w = scan.first_witness
        assert (w.a, w.b, w.c) == (FinSet.of(0), FinSet.of(0), FinSet.of(1))
        assert w.left == FinSet.of(2)
        assert w.right == EMPTY

        def render(reports):
            lines = [json.dumps(report_as_dict(r)) for r in reports]
            lines.append(json.dumps(search_summary(reports)))
            return "\n".join(lines)

        baseline = search_closed_subsets(4, 16)
        subgroups = [r for r in baseline if r.status == "subgroup"]
        assert [r.members for r in subgroups] == [(EMPTY,)]

        base_bytes = render(baseline)
        assert render(search_closed_subsets(4, 16)) == base_bytes

        for bound in range(6):
            reports = search_closed_subsets(bound, min(2, 1 << bound))
            assert not any(r.status == "subgroup" and len(r.members) == 2
                           for r in reports)


def test_criterion_9_stats_against_definitional_oracle():
    with criterion(9, "adder statistics match the definitional oracle"):
        one = approx_stats(1)
        assert (one.total_pairs, one.exact_pairs) == (4, 4)
        two = approx_stats(2)
        assert (two.total_pairs, two.exact_pairs) == (16, 14)

        failures = {(a, b) for a in range(4) for b in range(4)
                    if approx_add(a, b) != a + b}
        assert failures == {(1, 3), (3, 1)}
        for width, stats in ((1, one), (2, two)):
            n = 1 << width
            exact = sum(1 for a in range(n) for b in range(n)
                        if approx_add(a, b) == a + b)
            assert stats.exact_pairs == exact
            assert stats.total_pairs == n * n
