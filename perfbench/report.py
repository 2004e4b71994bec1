"""Print every benchmark metric, with its unit, for every workload.

    python3 perfbench/report.py [--seed 0] [--seconds 20]

Runs perfbench/run.py for each workload twice, each time in a fresh
process: with --trace 0 for the end-to-end metrics and fail_frac, and with
--trace 1 for the per-layer metrics and the tracing overhead.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    for w in spec["workloads"]:
        print(f"== {w['name']}: {w['why']}")
        for trace in (0, 1):
            notes, result = run(w["name"], args.seed, seconds, trace)
            if trace == 0:
                print("\n".join(n for n in notes if n.startswith(("env", "workload"))))
                print(f"  fail_frac {result['failed'] / result['attempted']:.4f} ratio"
                      f"  ({result['failed']} of {result['attempted']} items,"
                      f" correct={result['correct']})")
            for name, m in result["metrics"].items():
                print(f"  {name} {m['value']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
