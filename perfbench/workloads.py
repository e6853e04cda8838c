"""The three workloads: seeded inputs, one operation, and its checks.

A workload builds its inputs from the seed alone.  ``ROUND`` is the
number of operations in one whole round; the loop only ever runs whole
rounds, so every run attempts the same mix.  ``run(api, i)`` does
operation number i and returns its raw outputs; ``check(output)``
verifies them with the oracles and raises CheckError on the first
disagreement.
"""

import json
import random
import subprocess
import sys
from dataclasses import asdict

import oracles as o
from oracles import expect


class AlgebraBigint:
    """Exact algebra sessions on large set literals.

    Each operand has exactly BITS bits: random bits overlaid with one
    run of each length in RUN_LENGTHS, the k-th centred in the k-th of
    equal slots, each run fenced by non-members so its length is exact.
    Lengths and places are fixed because today's invert costs about
    length**2 * (BITS - position) per run, which would otherwise vary
    with the seed and between the pairs of one seed.
    """

    name = "algebra-bigint"
    BITS = 20_000
    RUN_LENGTHS = (100, 125, 150, 175, 200, 225, 250, 275)
    PAIRS = 4
    ROUND = PAIRS  # one session per pair, so per-op averages repeat

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.pairs = []
        for _ in range(self.PAIRS):
            a, tops = self._operand(rng)
            b, _ = self._operand(rng)
            self.pairs.append((a, b, tops, o.literal(a), o.literal(b)))

    def _operand(self, rng):
        x = rng.getrandbits(self.BITS)
        slot = self.BITS // len(self.RUN_LENGTHS)
        tops = []
        for k, length in enumerate(self.RUN_LENGTHS):
            start = k * slot + (slot - length) // 2
            x |= ((1 << length) - 1) << start
            x &= ~(1 << (start - 1)) & ~(1 << (start + length))
            tops.append(start + length - 1)
        return x | 1 << (self.BITS - 1), tops

    def run(self, api, i):
        pair = self.pairs[i % self.PAIRS]
        _, _, tops, lit_a, lit_b = pair
        a = api.parse(lit_a)
        b = api.parse(lit_b)
        results = (api.oplus(a, b), api.solve(a, b), api.invert(a))
        texts = [api.format(r) for r in results]
        runs = [api.stretch(a, n) for n in tops]
        return pair, a, b, results, texts, runs

    def check(self, output):
        (ia, ib, tops, _, _), a, b, (c, x, y), texts, runs = output
        expect(a.bits == ia and b.bits == ib, "parse: wrong bits")
        expect(c.bits == o.oplus(ia, ib), "oplus: wrong result")
        expect(o.oplus(ia, x.bits) == ib, "solve: a (+) x != b")
        expect(o.oplus(ia, y.bits) == 0, "invert: a (+) y != {}")
        for what, r, text in zip(("oplus", "solve", "invert"), (c, x, y),
                                 texts):
            o.check_literal(text, r.bits, f"format of {what}")
        expect(runs == [o.stretch(ia, n) for n in tops], "stretch: wrong run")


class ProbeExhaustive:
    """One probe suite per operation at today's caps.

    The probes have no free input at fixed caps, so the seed changes
    nothing: every run does the same work.
    """

    name = "probe-exhaustive"
    SCAN_BOUND = 6
    STATS_WIDTH = 12
    SEARCH_BOUND = 4
    SEARCH_SIZE = 16
    BRUTE_WIDTH = 6  # the automaton oracle is checked by brute force up to here
    ROUND = 1

    def __init__(self, seed: int):
        self._expected = None

    def run(self, api, i):
        scan = api.scan_associativity(self.SCAN_BOUND)
        stats = api.approx_stats(self.STATS_WIDTH)
        reports = api.search_closed_subsets(self.SEARCH_BOUND,
                                            self.SEARCH_SIZE)
        rendered = api.render(reports)
        return scan, stats, reports, rendered

    def expected(self):
        if self._expected is None:
            for width in range(self.BRUTE_WIDTH + 1):
                expect(o.word_stats_automaton(width)
                       == o.word_stats_brute(width),
                       f"oracle: automaton disagrees with brute force at "
                       f"width {width}")
            self._expected = (
                o.assoc_count(self.SCAN_BOUND),
                o.word_stats_automaton(self.STATS_WIDTH),
                o.subset_candidates(self.SEARCH_BOUND, self.SEARCH_SIZE))
        return self._expected

    def check(self, output):
        scan, stats, reports, (_, summary) = output
        (total, failing, first), want_stats, candidates = self.expected()
        expect(scan.total_triples == total, "scan: wrong triple count")
        expect(scan.failing_triples == failing, "scan: wrong failing count")
        w = scan.first_witness
        expect((w.a.bits, w.b.bits, w.c.bits) == first,
               "scan: wrong first witness")
        expect(w.left.bits == o.oplus(o.oplus(*first[:2]), first[2])
               and w.right.bits == o.oplus(first[0], o.oplus(*first[1:])),
               "scan: wrong witness sides")
        expect(asdict(stats) == want_stats,
               "approx_stats: wrong statistics")
        expect(len(reports) == candidates, "search: wrong candidate count")
        tally = {"subgroup": 0, "escaping": 0, "not_closed": 0,
                 "not_inverse_closed": 0, "non_associative": 0}
        n = 1 << self.SEARCH_BOUND
        for report in reports:
            self._check_report(report, n)
            tally[report.status] += 1
        expect(tally["subgroup"] == 1, "search: not exactly one subgroup")
        expect(json.loads(summary) == {"candidates": candidates, **tally},
               "render: wrong totals line")

    @staticmethod
    def _check_report(report, n):
        members = [m.bits for m in report.members]
        inside = set(members)
        status, w = report.status, report.witness
        expect(members[0] == 0 and len(inside) == len(members),
               "search: candidate without {} or with repeats")
        if status == "subgroup":
            # a (+) a = a << 1, so only {{}} can be closed.
            expect(members == [0] and w is None, "search: false subgroup")
        elif status == "non_associative":
            a, b, c = w.a.bits, w.b.bits, w.c.bits
            expect({a, b, c} <= inside, "search: witness outside members")
            left, right = o.oplus(o.oplus(a, b), c), o.oplus(a, o.oplus(b, c))
            expect(left != right and (w.left.bits, w.right.bits)
                   == (left, right), "search: wrong associativity witness")
        else:
            operands = [x.bits for x in w.operands]
            result = w.result.bits
            expect(set(operands) <= inside, "search: operand outside members")
            if w.operation == "oplus":
                expect(len(operands) == 2
                       and result == o.oplus(*operands),
                       "search: wrong oplus in closure witness")
            else:
                expect(w.operation == "invert" and len(operands) == 1
                       and o.oplus(operands[0], result) == 0,
                       "search: wrong inverse in closure witness")
            if status == "escaping":
                expect(result >= n, "search: escaping result inside universe")
            elif status == "not_closed":
                expect(w.operation == "oplus" and result < n
                       and result not in inside, "search: bad not_closed")
            else:
                expect(status == "not_inverse_closed"
                       and w.operation == "invert" and result < n
                       and result not in inside,
                       f"search: bad status {status!r}")


class CliOneshot:
    """A closed loop of one-shot CLI processes, one at a time.

    A round is nine calls on small seeded literals: eight verbs that
    never use numpy and one ``adder-stats``, which does.
    """

    name = "cli-oneshot"
    UNIVERSE = 24
    ROUNDS = 8
    STATS_WIDTH = 6
    ORBIT = 5
    ROUND = 9

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.calls = []
        for _ in range(self.ROUNDS):
            a, b, c = (rng.getrandbits(self.UNIVERSE) | 1 for _ in range(3))
            n = rng.choice([i for i in range(self.UNIVERSE) if a >> i & 1])
            la, lb, lc = o.literal(a), o.literal(b), o.literal(c)
            self.calls += [
                ["oplus", la, lb],
                ["invert", la, "--json"],
                ["solve", la, lb],
                ["stretch", la, str(n)],
                ["encode", la, "--json"],
                ["decode", str(rng.getrandbits(self.UNIVERSE))],
                ["assoc", la, lb, lc],
                ["orbit", la, "--iterations", str(self.ORBIT), "--json"],
                ["adder-stats", str(self.STATS_WIDTH)],
            ]
        self._stats = None

    def run(self, api, i):
        argv = self.calls[i % len(self.calls)]
        proc = subprocess.run(
            [sys.executable, "-m", "carrymagma.cli", *argv],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"cli {argv[0]}: exit code {proc.returncode}: "
                               f"{proc.stderr[-500:]}")
        return argv, proc.stdout, proc.stderr

    def check(self, output):
        argv, out, err = output
        expect(err == "", f"cli {argv[0]}: unexpected stderr {err[:200]!r}")
        expect(out.endswith("\n") and out.count("\n") == 1,
               f"cli {argv[0]}: stdout is not one line")
        self.check_stdout(argv, out[:-1])

    def check_stdout(self, argv, out):
        verb = argv[0]
        sets = [o.bits_of(t) for t in argv[1:] if t.startswith("{")]
        if verb == "oplus":
            expect(out == o.literal(o.oplus(*sets)), "cli oplus: wrong")
        elif verb == "invert":
            text = json.loads(out)["result"]
            expect(o.oplus(sets[0], o.bits_of(text)) == 0
                   and text == o.literal(o.bits_of(text)), "cli invert: wrong")
        elif verb == "solve":
            x = o.bits_of(out)
            expect(o.oplus(sets[0], x) == sets[1] and out == o.literal(x),
                   "cli solve: wrong")
        elif verb == "stretch":
            expect(out == str(o.stretch(sets[0], int(argv[2]))),
                   "cli stretch: wrong")
        elif verb == "encode":
            expect(json.loads(out) == {"result": sets[0]}, "cli encode: wrong")
        elif verb == "decode":
            expect(out == o.literal(int(argv[1])), "cli decode: wrong")
        elif verb == "assoc":
            a, b, c = sets
            left, right = o.oplus(o.oplus(a, b), c), o.oplus(a, o.oplus(b, c))
            want = ("associative" if left == right else
                    f"non-associative left={o.literal(left)} "
                    f"right={o.literal(right)}")
            expect(out == want, "cli assoc: wrong")
        elif verb == "orbit":
            want, x = [], sets[0]
            for _ in range(self.ORBIT):
                want.append(o.literal(x))
                x = o.oplus(x, sets[0])
            expect(json.loads(out) == {"result": want}, "cli orbit: wrong")
        elif verb == "adder-stats":
            if self._stats is None:
                self._stats = o.word_stats_brute(self.STATS_WIDTH)
            expect(json.loads(out) == self._stats, "cli adder-stats: wrong")
        else:
            raise o.CheckError(f"cli: no check for verb {verb!r}")


WORKLOADS = {w.name: w for w in (AlgebraBigint, ProbeExhaustive, CliOneshot)}
