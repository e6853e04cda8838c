"""The workload process: set up, say "ready", run whole rounds, check.

    python worker.py --workload NAME --seed N --seconds S --trace 0|1
                     [--setup-only]

run.py starts it and takes set-up time as the time from spawning it to
its "ready" line.  The last stdout line is one JSON object with the
counts and the metrics of the mode; a traced run also writes its spans
to .perfbench/NAME-seedN-trace1.spans.jsonl.  All library load runs in
this one thread, or in one CLI child at a time.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

from layers import Tracer, plain_api
from oracles import CheckError
from workloads import WORKLOADS, AlgebraBigint, CliOneshot, ProbeExhaustive

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STARTUP_PROBES = 5
CLI_RUN_ROUNDS = 2


def import_carrymagma():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "carrymagma" / "__init__.py").is_file():
        sys.exit(f"perfbench: no carrymagma package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)  # for the CLI children
    import carrymagma
    import carrymagma.cli
    import carrymagma.explorer
    return carrymagma, carrymagma.explorer, carrymagma.cli


class Loop:
    """Runs whole rounds of one workload and keeps per-operation times."""

    def __init__(self, workload):
        self.workload = workload
        self.times = {False: [], True: []}  # keyed by "was traced"
        self.round_rates: list[float] = []  # untraced rounds only
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, api, tracer=None, group="loop") -> None:
        i = self.attempted
        self.attempted += 1
        gc.collect()
        if tracer:
            tracer.begin_op(i, group)
        try:
            start = time.perf_counter()
            output = self.workload.run(api, i)
            elapsed = time.perf_counter() - start
        except Exception:
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc()
            return
        finally:
            if tracer:
                tracer.end_op()
        try:
            self.workload.check(output)
        except CheckError as exc:
            self.errors.append(str(exc))
        self.times[tracer is not None].append(elapsed)

    def rounds(self, seconds, plain, traced=None, tracer=None) -> None:
        """Whole rounds until ``seconds`` have passed; with a tracer,
        every other round runs traced, and at least one of each runs."""
        start = time.perf_counter()
        k = 0
        least = 1 if tracer is None else 2
        while k < least or time.perf_counter() - start < seconds:
            on = tracer is not None and k % 2 == 1
            before = len(self.times[on])
            for _ in range(self.workload.ROUND):
                self.one(traced if on else plain, tracer if on else None)
            done = self.times[on][before:]
            if not on and done:
                self.round_rates.append(len(done) / sum(done))
            k += 1


def median_ms(samples) -> float:
    return statistics.median(samples) * 1e3


def startup_probes() -> dict[str, float]:
    """Bare interpreter start, and import times from -X importtime."""
    interp, cli, numpy = [], [], []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        interp.append(time.perf_counter() - start)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import carrymagma.cli"],
            check=True, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        cli.append(cumulative["carrymagma.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return {"cli.interp_ms": median_ms(interp), "cli.import_ms": median_ms(cli),
            "cli.import_numpy_ms": median_ms(numpy)}


def cli_in_process(api, tracer, seed) -> int:
    """Runs the CLI workload's argv mix through cli.run in this process,
    checking every output; returns the number of calls."""
    mix = CliOneshot(seed)
    calls = mix.calls[:CLI_RUN_ROUNDS * mix.ROUND]
    for i, argv in enumerate(calls):
        out, err = io.StringIO(), io.StringIO()
        tracer.begin_op(i, "cli")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli_run(argv)
        tracer.end_op()
        mix.check((argv, out.getvalue(), err.getvalue()) if code == 0 else
                  (argv, "", f"exit code {code}"))
    return len(calls)


def search_alloc_mb(cm) -> float:
    """tracemalloc peak of one search call, in MiB."""
    w = ProbeExhaustive
    gc.collect()
    tracemalloc.start()
    try:
        cm.search_closed_subsets(w.SEARCH_BOUND, w.SEARCH_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_run(loop, args, cm, plain, tracer) -> dict[str, float]:
    traced = tracer.api(plain)
    loop.rounds(args.seconds, plain, traced, tracer)
    untraced, with_spans = loop.times[False], loop.times[True]
    metrics = {"trace.overhead_pct":
               (statistics.median(with_spans) / statistics.median(untraced)
                - 1) * 100}
    metrics.update(tracer.layer_metrics("loop", len(with_spans)))
    # Layers this workload never calls are measured on one operation of
    # the in-process workload that does call them.
    for other in (AlgebraBigint, ProbeExhaustive):
        if other is not type(loop.workload):
            side = Loop(other(args.seed))
            side.one(traced, tracer, "pass")
            loop.attempted += side.attempted
            loop.failed += side.failed
            loop.errors += side.errors
    for name, value in tracer.layer_metrics("pass", 1).items():
        metrics.setdefault(name, value)
    try:
        calls = cli_in_process(traced, tracer, args.seed)
    except CheckError as exc:
        loop.errors.append(str(exc))
        calls = 1
    metrics.update(tracer.layer_metrics("cli", calls))
    metrics["explorer.search_alloc_mb"] = search_alloc_mb(cm)
    metrics.update(startup_probes())
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cm, explorer, cli = import_carrymagma()
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    plain = plain_api(cm, explorer, cli)
    loop = Loop(workload)
    if args.trace:
        tracer = Tracer()
        metrics = traced_run(loop, args, cm, plain, tracer)
        tracer.write(ROOT / ".perfbench"
                     / f"{args.workload}-seed{args.seed}-trace1.spans.jsonl")
    else:
        loop.rounds(args.seconds, plain)
        times = loop.times[False]
        who = (resource.RUSAGE_CHILDREN if isinstance(workload, CliOneshot)
               else resource.RUSAGE_SELF)
        metrics = {"ops_per_s": statistics.median(loop.round_rates),
                   "op_p50_ms": median_ms(times),
                   "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    for error in loop.errors[:5]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not loop.errors, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
