"""Quick self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Not part of the test suite (it takes about a minute).  It checks the tail
percentile rule, the calibrated per-item latencies and the tracer's self time
on a toy call tree, runs two items of every workload with --trace 0 and
--trace 1 and checks the result line against BENCHMARK.json, and checks
that run.py fails without printing a result where there are no segrecusp
sources.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from run import (CAL_REF_S, OUT, Record, pass_latencies,  # noqa: E402
                 tail_percentile)
from tracing import Tracer  # noqa: E402


def check_tail():
    assert tail_percentile([1.0] * 5 + [9.0]) == (100, 9.0)
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values) == (90, 90.0)
    assert tail_percentile(values[:20]) == (50, 10.0)


def check_pass_latencies():
    # runs at full, half and full speed, their calibration loops too
    runs = [(1, 1), (3, 1), (2, 2), (6, 2), (1, 1), (3, 1)]
    records = [Record(str(i), float(dt), [], False, CAL_REF_S * slow,
                      CAL_REF_S * slow)
               for i, (dt, slow) in enumerate(runs)]
    got = pass_latencies(records, 2)
    assert all(abs(g - w) < 1e-9 for g, w in zip(got, [1.0, 3.0])), got


def check_self_time():
    tracer = Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.03), "inner", None)

    def outer_body():
        time.sleep(0.02)
        inner()
    tracer._wrap(outer_body, "outer", None)()
    assert abs(tracer.total["outer"] - 0.05) < 0.02, tracer.total
    assert abs(tracer.self_time["outer"] - 0.02) < 0.01, tracer.self_time
    (_, outer_id, _, name, _, _), = [s for s in tracer.spans if s[3] == "inner"]
    assert tracer.spans[outer_id][3] == "outer" and name == "inner"


def check_runs(spec):
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
                   "--items", "2"]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                 timeout=180, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted[trace]}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            print(f"ok {w['name']} --trace {trace}: {result['attempted']} items")


def check_bare_directory():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "census",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok bare directory: exit", done.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tail()
    check_pass_latencies()
    check_self_time()
    check_runs(spec)
    check_bare_directory()
    print("selfcheck passed")


if __name__ == "__main__":
    main()
