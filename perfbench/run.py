"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones.  Set-up time is taken SETUP_RUNS times,
each from spawning a fresh workload process to its "ready" line, and
reported as the median; a traced run skips that, as it reports no
set-up time.  The last stdout line is the JSON result; a copy of it, and
the spans of a traced run, go to .perfbench/ in the checkout.  Workers
still running DEADLINE_FACTOR * S + DEADLINE_SLACK_S seconds after the
start are killed and the run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 7
DEADLINE_FACTOR = 3
DEADLINE_SLACK_S = 60


def spawn(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start the worker; return (seconds to its "ready" line, rest of its
    stdout).  The worker is killed if it is still running at deadline."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if ready != "ready\n" or code != 0:
        sys.exit(f"perfbench: worker {' '.join(argv)} failed with code {code}")
    return setup, rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = (time.monotonic() + DEADLINE_FACTOR * args.seconds
                + DEADLINE_SLACK_S)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]

    if args.trace:
        out = spawn(common + ["--trace", "1"], deadline)[1]
    else:
        setups = [spawn(common + ["--setup-only"], deadline)[0]
                  for _ in range(SETUP_RUNS - 1)]
        setup, out = spawn(common, deadline)
        setups.append(setup)
    result = json.loads(out.splitlines()[-1])
    measured = result["metrics"]
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {', '.join(missing)}")
    result["metrics"] = {m["name"]: {"value": measured[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    for name, metric in result["metrics"].items():
        print(f"{name:28} {metric['value']:14.6g} {metric['unit']}")
    line = json.dumps(result)
    (OUT / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
