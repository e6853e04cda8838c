"""The calls the workloads make into carrymagma, timed from outside.

Every workload reaches the library only through an ``Api``.  The plain
Api holds the library's own functions; the traced Api wraps each one in
a span that records its layer (the carrymagma module it belongs to),
start and end times, the operation it ran under, a few work counts and
the gen-2 garbage collections that ran during the call.
Spans stay in memory until the run writes them out.
"""

import gc
import json
import time
from types import SimpleNamespace


def render(explorer, reports) -> tuple[int, str]:
    """Render search reports as the CLI's JSON lines into a byte counter.

    Returns the byte count and the totals line (the last line emitted).
    """
    size = 0
    for report in reports:
        size += len(json.dumps(explorer.report_as_dict(report))) + 1
    summary = json.dumps(explorer.search_summary(reports))
    return size + len(summary) + 1, summary


def plain_api(cm, explorer, cli) -> SimpleNamespace:
    return SimpleNamespace(
        parse=cm.parse, format=cm.format, oplus=cm.oplus, solve=cm.solve,
        invert=cm.invert, stretch=cm.stretch, approx_stats=cm.approx_stats,
        scan_associativity=cm.scan_associativity,
        search_closed_subsets=cm.search_closed_subsets,
        render=lambda reports: render(explorer, reports),
        cli_run=cli.run)


def _bits(s) -> int:
    return s.bits.bit_length()


# api attribute -> (span name, work counts taken from (args, result)).
_SPANS = {
    "parse": ("bitset.parse", lambda args, r: {"bits": _bits(r)}),
    "format": ("bitset.format", lambda args, r: {"bytes": len(r)}),
    "oplus": ("magma.oplus", None),
    "solve": ("magma.solve",
              lambda args, r: {"bits": max(_bits(args[0]), _bits(args[1]))}),
    "invert": ("magma.invert", lambda args, r: {"bits": _bits(args[0])}),
    "stretch": ("magma.stretch", None),
    "approx_stats": ("adder.stats", lambda args, r: {"pairs": r.total_pairs}),
    "scan_associativity": ("explorer.scan",
                           lambda args, r: {"triples": r.total_triples}),
    "search_closed_subsets": ("explorer.search",
                              lambda args, r: {"candidates": len(r)}),
    "render": ("explorer.render", lambda args, r: {"bytes": r[0]}),
    "cli_run": ("cli.run", None),
}


def _gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


class Tracer:
    """In-memory spans: one per operation, one per layer call inside it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._op_span = None

    def begin_op(self, index: int, group: str) -> None:
        self._op_span = {"id": len(self.spans), "parent": None, "name": "op",
                         "op": index, "group": group,
                         "start_ns": time.perf_counter_ns()}
        self.spans.append(self._op_span)

    def end_op(self) -> None:
        self._op_span["end_ns"] = time.perf_counter_ns()
        self._op_span = None

    def _record(self, name, start, end, counts) -> None:
        op = self._op_span
        self.spans.append({"id": len(self.spans), "parent": op["id"],
                           "name": name, "op": op["op"], "group": op["group"],
                           "start_ns": start, "end_ns": end, **counts})

    def wrap(self, fn, name, counter):
        def traced(*args):
            before = _gen2_collections()
            start = time.perf_counter_ns()
            result = fn(*args)
            end = time.perf_counter_ns()
            counts = counter(args, result) if counter else {}
            counts["gc_gen2"] = _gen2_collections() - before
            self._record(name, start, end, counts)
            return result
        return traced

    def api(self, plain: SimpleNamespace) -> SimpleNamespace:
        return SimpleNamespace(**{
            attr: self.wrap(getattr(plain, attr), *_SPANS[attr])
            for attr in vars(plain)})

    def layer_metrics(self, group: str, ops: int) -> dict[str, float]:
        """Per-operation time (``<span>_ms``) and work counts
        (``<span>_<count>``) of every layer span in one group."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span["group"] != group or span["parent"] is None:
                continue
            name = span["name"]
            ms = (span["end_ns"] - span["start_ns"]) / 1e6
            totals[name + "_ms"] = totals.get(name + "_ms", 0.0) + ms
            for key, value in span.items():
                if key not in _SPAN_KEYS:
                    metric = f"{name}_{key}"
                    totals[metric] = totals.get(metric, 0) + value
        return {k: v / ops for k, v in totals.items()}

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


_SPAN_KEYS = {"id", "parent", "name", "op", "group", "start_ns", "end_ns"}
