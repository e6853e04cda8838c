"""Associativity scans, the closed-subset search, and orbits."""

import json

import pytest

from carrymagma import (EMPTY, FinSet, RangeError, assoc_witness, format,
                        invert, oplus, orbit, scan_associativity,
                        search_closed_subsets)
from carrymagma import explorer
from carrymagma.errors import MAX_DIGITS
from carrymagma.explorer import (MAX_ASSOC_BOUND, MAX_ORBIT_BITS,
                                 MAX_SUBSET_BOUND, MAX_SUBSET_CANDIDATES,
                                 ClosureFailure, SubsetReport,
                                 failure_as_dict, report_as_dict,
                                 search_summary, witness_as_dict)

import oracles


class TestAssocWitness:
    def test_core_failing_triple(self):
        w = assoc_witness(FinSet.of(0), FinSet.of(0), FinSet.of(1))
        assert w is not None
        assert w.left == FinSet.of(2)
        assert w.right == EMPTY

    def test_neutral_middle_never_fails(self):
        for a_bits in range(1 << 6):
            for c_bits in range(1 << 6):
                assert assoc_witness(FinSet(a_bits), EMPTY,
                                     FinSet(c_bits)) is None

    def test_all_empty(self):
        assert assoc_witness(EMPTY, EMPTY, EMPTY) is None

    def test_witness_reproduces_both_orders(self):
        w = assoc_witness(FinSet.of(0, 2), FinSet.of(1, 2), FinSet.of(0))
        if w is not None:
            assert w.left == oplus(oplus(w.a, w.b), w.c)
            assert w.right == oplus(w.a, oplus(w.b, w.c))
            assert w.left != w.right


class TestScanAssociativity:
    # failing-triple counts verified against a standalone set-based
    # enumeration written directly from the operation's definition
    @pytest.mark.parametrize("bound, total, failing", [
        (0, 1, 0),
        (1, 8, 0),
        (2, 64, 12),
        (3, 512, 168),
        (4, 4096, 1824),
        (5, 32768, 17760),
        (6, 262144, 163008),
    ])
    def test_counts(self, bound, total, failing):
        scan = scan_associativity(bound)
        assert scan.total_triples == total
        assert scan.failing_triples == failing

    def test_bound_one_is_associative_despite_escapes(self):
        # {0} oplus {0} = {1} leaves the bound-1 universe, yet both
        # association orders still agree on all 8 triples
        scan = scan_associativity(1)
        assert scan.failing_triples == 0
        assert scan.first_witness is None

    def test_first_witness_at_bound_two(self):
        scan = scan_associativity(2)
        w = scan.first_witness
        assert (w.a, w.b, w.c) == (FinSet.of(0), FinSet.of(0), FinSet.of(1))
        assert w.left == FinSet.of(2)
        assert w.right == EMPTY

    def test_witness_is_least_in_encoding_order(self):
        scan = scan_associativity(3)
        w = scan.first_witness
        key = (w.a.bits, w.b.bits, w.c.bits)
        for a in range(1 << 3):
            for b in range(1 << 3):
                for c in range(1 << 3):
                    if (a, b, c) >= key:
                        return
                    assert assoc_witness(FinSet(a), FinSet(b),
                                         FinSet(c)) is None

    @pytest.mark.parametrize("bound", range(7))
    def test_matches_triple_enumeration(self, bound):
        scan = scan_associativity(bound)
        total, failing, first = oracles.scan_by_triples(bound)
        assert (scan.total_triples, scan.failing_triples) == (total, failing)
        w = scan.first_witness
        assert (None if w is None else (w.a.bits, w.b.bits, w.c.bits)) \
            == first

    def test_recurrence_matches_automaton(self):
        # The automaton's count at bound b is u M^b f for its 64x64
        # transfer matrix M, so by Cayley-Hamilton it satisfies a linear
        # recurrence of order 64; the library's closed form satisfies one
        # of order 2.  Their difference satisfies the product recurrence,
        # of order 66, so 66 equal consecutive terms make every term
        # equal.  Bounds 0-70 give 71.
        assert [explorer._associative_triples(b) for b in range(71)] \
            == oracles.associative_by_automaton(70)

    @pytest.mark.parametrize("bound", range(7))
    def test_automaton_matches_triple_enumeration(self, bound):
        total, failing, _ = oracles.scan_by_triples(bound)
        assert oracles.associative_by_automaton(bound)[bound] \
            == total - failing

    def test_cap_is_the_largest_bound_whose_triples_print(self):
        # compared with 10**MAX_DIGITS: str() of a longer int raises
        assert MAX_ASSOC_BOUND == 4761
        assert len(str(8 ** MAX_ASSOC_BOUND)) == MAX_DIGITS
        assert 8 ** (MAX_ASSOC_BOUND + 1) >= 10 ** MAX_DIGITS
        scan = scan_associativity(MAX_ASSOC_BOUND)
        assert scan.total_triples == 8 ** MAX_ASSOC_BOUND
        assert witness_as_dict(scan.first_witness) == {
            "a": "{0}", "b": "{0}", "c": "{1}", "left": "{2}", "right": "{}"}

    @pytest.mark.parametrize("bound", [MAX_ASSOC_BOUND + 1, -1])
    def test_out_of_range_bound(self, bound):
        with pytest.raises(RangeError, match="4300 digits, so bound <= 4761"):
            scan_associativity(bound)


def recheck_subgroup(report) -> bool:
    """Re-verify a subgroup claim with direct library calls, no tables."""
    members = set(report.members)
    if EMPTY not in members:
        return False
    for a in members:
        if invert(a) not in members:
            return False
        for b in members:
            if oplus(a, b) not in members:
                return False
            for c in members:
                if assoc_witness(a, b, c) is not None:
                    return False
    return True


class TestSearchClosedSubsets:
    def test_singleton_neutral_is_subgroup(self):
        reports = search_closed_subsets(3, 1)
        assert len(reports) == 1
        assert reports[0].members == (EMPTY,)
        assert reports[0].status == "subgroup"
        assert reports[0].witness is None

    def test_no_two_element_subgroups(self):
        for bound in range(6):
            max_size = min(2, 1 << bound)
            reports = search_closed_subsets(bound, max_size)
            assert all(r.status != "subgroup"
                       for r in reports if len(r.members) == 2)

    def test_only_trivial_subgroup_at_bound_four(self):
        reports = search_closed_subsets(4, 4)
        subgroups = [r for r in reports if r.status == "subgroup"]
        assert [r.members for r in subgroups] == [(EMPTY,)]
        for r in reports:
            if r.status != "subgroup":
                assert r.status in {"escaping", "not_closed"}

    def test_escaping_witness_leaves_universe(self):
        for r in search_closed_subsets(3, 3):
            if r.status == "escaping":
                assert max(r.witness.result) >= 3
                for operand in r.witness.operands:
                    assert operand in r.members

    def test_not_closed_witness_stays_inside(self):
        seen = False
        for r in search_closed_subsets(4, 3):
            if r.status == "not_closed":
                seen = True
                assert max(r.witness.result) < 4
                assert r.witness.result not in r.members
        assert seen

    def test_subgroup_reports_survive_recheck(self):
        for r in search_closed_subsets(4, 4):
            if r.status == "subgroup":
                assert recheck_subgroup(r)

    def test_enumeration_order(self):
        reports = search_closed_subsets(3, 2)
        keys = [(len(r.members), tuple(m.bits for m in r.members))
                for r in reports]
        assert keys == sorted(keys)
        assert len(reports) == 1 + 7  # singleton plus the 7 pairs with {}

    def test_summary_counts(self):
        reports = search_closed_subsets(3, 8)
        summary = search_summary(reports)
        assert summary["candidates"] == len(reports) == 1 << 7
        assert summary["subgroup"] == 1
        assert sum(v for k, v in summary.items() if k != "candidates") \
            == summary["candidates"]

    @pytest.mark.parametrize("bound, max_size", [(6, 1), (-1, 1), (4, 17),
                                                 (3, 9)])
    def test_out_of_range(self, bound, max_size):
        with pytest.raises(RangeError):
            search_closed_subsets(bound, max_size)

    def test_candidate_cap(self):
        assert MAX_SUBSET_CANDIDATES == 2**16
        with pytest.raises(RangeError,
                           match="2147483648 candidates > limit 65536"):
            search_closed_subsets(5, 32)
        # the cap is on the count, not the bound: 1 + 31 + C(31, 2) fit
        assert len(search_closed_subsets(5, 3)) == 497
        with pytest.raises(RangeError, match="206368 candidates"):
            search_closed_subsets(5, 6)


class TestSearchAgainstOracle:
    @staticmethod
    def plain(report):
        """A report as ints: members, status and the oracle's witness form."""
        w = report.witness
        blame = None if w is None else (
            w.operation, tuple(x.bits for x in w.operands), w.result.bits)
        return tuple(m.bits for m in report.members), report.status, blame

    # (4, 16) is the benchmark's own search; the max_size 0 sweeps are empty
    @pytest.mark.parametrize("bound, max_size", [(0, 0), (3, 0), (5, 0),
                                                 (3, 8), (4, 4), (4, 16),
                                                 (5, 3), (5, 5)])
    def test_sweep_matches_plain_int_classifier(self, bound, max_size):
        got = [self.plain(r) for r in search_closed_subsets(bound, max_size)]
        want = [(c, *oracles.classify(c, bound))
                for c in oracles.candidates(bound, max_size)]
        assert got == want

    @pytest.mark.parametrize("bound", range(MAX_SUBSET_BOUND + 1))
    def test_totals_match_closed_form(self, bound):
        # every max_size the candidate cap admits; past it, a RangeError
        for max_size in range((1 << bound) + 1):
            want = oracles.search_totals(bound, max_size)
            if want["candidates"] > MAX_SUBSET_CANDIDATES:
                with pytest.raises(RangeError):
                    search_closed_subsets(bound, max_size)
            else:
                assert search_summary(
                    search_closed_subsets(bound, max_size)) == want

    # the theorem the search's two checks rest on: a ⊕ a = a << 1, so the
    # largest non-empty member's double escapes or is missing, and the
    # five-check oracle never reaches its inverse or associativity checks
    @pytest.mark.parametrize("bound, max_size", [(0, 1), (1, 2), (2, 4),
                                                 (3, 8), (4, 4), (5, 3)])
    def test_only_escape_closure_or_trivial_subgroup(self, bound, max_size):
        for c in oracles.candidates(bound, max_size):
            status, blame = oracles.classify(c, bound)
            if c == (0,):
                assert (status, blame) == ("subgroup", None)
            else:
                assert status in {"escaping", "not_closed"}
                assert blame[0] == "oplus"

    def test_inverse_and_orbit_stay_within_one_bit(self):
        # every 14-bit set: no inverse or iterate passes max(a) + 1
        for bits in range(1 << 14):
            a = FinSet(bits)
            top = 1 << (bits.bit_length() + 1)
            assert invert(a).bits < top
            assert all(c.bits < top for c in orbit(a, 6))

    @pytest.mark.parametrize("bound", range(MAX_SUBSET_BOUND + 1))
    def test_results_stay_below_twice_the_universe(self, bound):
        # the search's shared FinSets and the literal table cover 2 << bound
        universe = [FinSet(x) for x in range(1 << bound)]
        for a in universe:
            assert invert(a).bits < 2 << bound
            for b in universe:
                assert oplus(a, b).bits < 2 << bound

    @pytest.mark.parametrize("bound", range(7))
    def test_top_bit_escape_rule(self, bound):
        # x ⊕ y leaves [0, 2**bound) iff both hold bit bound - 1
        n = 1 << bound
        for x in range(n):
            for y in range(n):
                assert (oplus(FinSet(x), FinSet(y)).bits >= n) \
                    == bool(x & y & n >> 1)

    @pytest.mark.parametrize("bound, max_size", [(0, 1), (1, 2), (2, 4),
                                                 (3, 8), (4, 4), (5, 3)])
    def test_escape_witness_is_least_top_member_doubled(self, bound,
                                                         max_size):
        top = (1 << bound) >> 1
        for r in search_closed_subsets(bound, max_size):
            high = [m for m in r.members if m.bits & top]
            if high:
                h = high[0]
                assert r.status == "escaping"
                assert r.witness.operands == (h, h)
                assert r.witness.result == FinSet(h.bits << 1)
            else:
                assert r.status != "escaping"

    def test_reports_share_their_sets(self):
        reports = search_closed_subsets(3, 3)
        assert all(r.members[0] is reports[0].members[0] for r in reports)
        assert reports[2].witness is not None
        assert reports[2].members[1] is reports[2].witness.operands[0]


class TestLiterals:
    def test_table_equals_format(self):
        table = explorer._LITERALS
        assert len(table) == 2 << MAX_SUBSET_BOUND
        assert table == [format(FinSet(x)) for x in range(len(table))]

    def test_report_renderers_fall_back_to_format(self):
        # operands beyond the table, and operands in it with the result
        # {6} = {5} ⊕ {5} one bit past it
        big, five = FinSet.of(1000), FinSet.of(5)
        for members, x in [((big, FinSet.of(1002)), big),
                           ((EMPTY, five), five)]:
            f = ClosureFailure("oplus", (x, x), oplus(x, x))
            want = {"operation": "oplus", "operands": [format(x)] * 2,
                    "result": format(f.result)}
            assert failure_as_dict(f) == want
            r = SubsetReport(members, "not_closed", f)
            assert report_as_dict(r) == {
                "size": 2, "members": [format(m) for m in members],
                "status": "not_closed", "witness": want}

    def test_sets_beyond_the_table_use_format(self):
        w = assoc_witness(FinSet.of(1000), FinSet.of(1000), FinSet.of(1001))
        assert witness_as_dict(w) == {"a": "{1000}", "b": "{1000}",
                                      "c": "{1001}", "left": "{1002}",
                                      "right": "{}"}


class TestOrbit:
    def test_empty_set_fixed(self):
        assert orbit(EMPTY, 3) == [EMPTY, EMPTY, EMPTY]

    def test_singleton_zero_cycle(self):
        assert orbit(FinSet.of(0), 4) == [FinSet.of(0), FinSet.of(1),
                                          FinSet.of(0, 1), EMPTY]

    def test_period_four(self):
        steps = orbit(FinSet.of(0), 8)
        assert steps[4:] == steps[:4]

    def test_zero_iterations(self):
        assert orbit(FinSet.of(3), 0) == []

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            orbit(FinSet.of(0), -1)

    def test_iteration_cap(self):
        assert MAX_ORBIT_BITS == 2**27
        # a small set costs 2048 bits per iterate
        assert len(orbit(FinSet.of(0), 2**16)) == 2**16
        with pytest.raises(RangeError, match="65537 iterations cost "
                                             "134219776 bits"):
            orbit(FinSet.of(0), 2**16 + 1)
        # iterates of {2**24 - 1} have up to 2**24 + 1 bits
        top = FinSet.of(2**24 - 1)
        assert len(orbit(top, 7)) == 7
        with pytest.raises(RangeError, match="8 iterations cost 134217736 "
                                             "bits > limit 134217728"):
            orbit(top, 8)


class TestJsonShapes:
    def test_witness_dict_round_trips_through_json(self):
        w = assoc_witness(FinSet.of(0), FinSet.of(0), FinSet.of(1))
        payload = json.loads(json.dumps(witness_as_dict(w)))
        assert payload == {"a": "{0}", "b": "{0}", "c": "{1}",
                           "left": "{2}", "right": "{}"}

    def test_report_dict_fields(self):
        reports = search_closed_subsets(2, 2)
        for r in reports:
            payload = json.loads(json.dumps(report_as_dict(r)))
            assert list(payload) == ["size", "members", "status", "witness"]
            assert payload["size"] == len(payload["members"])
