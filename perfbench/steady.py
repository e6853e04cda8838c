"""Check that a workload's end-to-end metrics repeat between two sets of runs.

    python3 perfbench/steady.py --workload NAME

Runs run.py 2 x RUNS times for run_seconds each, alternating set A and
set B, with seeds 1..RUNS in each set.  For every end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance
over median), and the gap between the two medians, both as shares next
to the metric's bound from BENCHMARK.json.  A spread should stay below
a third of its bound (setup_s is exempt), and the gap within the bound.
The summary is also written to .perfbench/steady-NAME.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEADLINE_FACTOR, DEADLINE_SLACK_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
        timeout=DEADLINE_FACTOR * seconds + DEADLINE_SLACK_S + 30)
    if proc.returncode != 0:
        sys.exit(f"run.py failed on seed {seed}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def describe(values) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    sets = {"A": [], "B": []}
    for seed in range(1, RUNS + 1):
        for name in ("A", "B") if seed % 2 else ("B", "A"):
            result = run_once(args.workload, seed, seconds)
            sets[name].append(result)
            values = " ".join(f"{k}={v['value']:.5g}"
                              for k, v in result["metrics"].items())
            print(f"set {name} seed {seed}: {values}", flush=True)

    summary = {"workload": args.workload, "runs": RUNS,
               "seconds": seconds, "metrics": {}}
    steady = True
    print(f"\n{'metric':12} {'bound':>5}  {'median A':>10} {'q1..q3 A':>21} "
          f"{'spread':>6}  {'median B':>10} {'spread':>6}  {'gap':>6}  ok")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = describe([r["metrics"][name]["value"] for r in sets["A"]])
        b = describe([r["metrics"][name]["value"] for r in sets["B"]])
        gap = abs(b[0] - a[0]) / a[0]
        ok = gap <= bound and (name == "setup_s"
                               or max(a[3], b[3]) < bound / 3)
        steady &= ok
        summary["metrics"][name] = {"bound": bound, "A": a, "B": b,
                                    "gap": gap, "ok": ok}
        print(f"{name:12} {bound:5.2f}  {a[0]:10.5g} {a[1]:10.5g}..{a[2]:<10.5g}"
              f" {a[3]:6.3f}  {b[0]:10.5g} {b[3]:6.3f}  {gap:6.3f}  "
              f"{'yes' if ok else 'NO'}")
    shares = {name: sorted({r["failed"] / r["attempted"] for r in runs})
              for name, runs in sets.items()}
    print(f"failed shares: A {shares['A']} B {shares['B']}")
    steady &= shares["A"] == shares["B"] and len(shares["A"]) == 1
    summary["failed_shares"] = shares
    summary["steady"] = steady
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / f"steady-{args.workload}.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
