#!/usr/bin/env python3
"""segrecusp benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload census --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.  One
process, no threads, numpy's BLAS pinned to one thread.  Items run one at a
time (a closed loop, one client) in whole passes over the workload's items:
at least one pass, and as many as end nearest to ``--seconds``.  Every
item's output is checked against its reference.

Item times are reported in reference seconds.  The host is shared, and its
speed changes within seconds and for minutes at a time.  Between items a
fixed calibration loop (standard-library Fraction and dict work, no
segrecusp code) runs for a few percent of an item's time.  An item's wall
time is scaled by CAL_REF_S over the loop's mean time just before and just
after it: its time on a host where the loop takes CAL_REF_S.  The
wall-clock figures are printed above the result line.

--trace 0 prints the end-to-end metrics; --trace 1 patches spans around
segrecusp's public functions (tracing.py), prints the per-layer metrics and
the tracing overhead, and writes the spans to perfbench/out/.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# before numpy loads anywhere, including in the setup probes
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import namedtuple  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 4          # extra cold set-ups, each in a fresh process
CAL_REF_S = 0.003         # one calibration loop at reference speed
CAL_SHARE = 0.05          # calibration after an item, as a share of its time
CAL_FIRST_S = 0.05        # calibration before the first item

# One item of a run: its label, its wall time, its disagreements with the
# reference, whether they are all the known census defect, and the mean
# time of a calibration loop just before and just after it.
Record = namedtuple("Record", "label seconds problems known loop_before loop_after")


def calibration_loop():
    """Fixed standard-library work of the program's own kind: Fraction
    arithmetic and dict updates.  It calls nothing in segrecusp, so a change
    to the program cannot change its time, while other load on the host
    slows it much as it slows the program (README.md, Steadiness)."""
    acc, counts = Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return acc, counts


def calibrate(budget):
    """Run calibration loops until ``budget`` seconds have passed, at
    least one.  Returns the mean time of a loop."""
    loops, start = 0, time.perf_counter()
    while True:
        calibration_loop()
        loops += 1
        spent = time.perf_counter() - start
        if spent >= budget:
            return spent / loops


def tail_percentile(values):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, which is the 11th largest sample.  Below 20 samples that
    would not reach the median, and the maximum is returned instead."""
    n = len(values)
    ordered = sorted(values)
    if n >= 20:
        return 100 * (n - 10) / n, ordered[n - 11]
    return 100, ordered[-1]


def scaled_seconds(record):
    """The item's wall time in reference seconds: scaled by CAL_REF_S over
    the mean loop time of the calibrations just before and just after it,
    which bracket the host's speed while the item ran."""
    return record.seconds * CAL_REF_S * 2 / (record.loop_before + record.loop_after)


def pass_latencies(records, pass_size):
    """The latency of each item of a pass: the mean of its runs over the
    passes of the run, in reference seconds.  The sample count is the pass
    size, however many passes a run completes."""
    by_position = {}
    for i, r in enumerate(records):
        by_position.setdefault(i % pass_size, []).append(scaled_seconds(r))
    return [statistics.fmean(v) for v in by_position.values()]


def environment():
    import numpy
    import sympy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "nproc": os.cpu_count(),
            "pins": THREAD_PINS}


def setup_workload(name, seed, tracer=None):
    """Import segrecusp and build the workload's inputs.  Returns the
    workload and the seconds taken, imports included."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    return wl, time.perf_counter() - t0


def probe_setup(args):
    """Cold set-up time in a fresh process (lazy imports included)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_items(wl, seconds, tracer=None, count=None):
    """Closed loop over whole passes: stops at the end of a pass, at least
    one, once the next pass would end farther from ``seconds`` than this
    one; or after exactly ``count`` items.  Calibration loops sample the
    host's speed before the first item and after each item, for CAL_SHARE
    of the item's time.  Returns a list of Record."""
    records = []
    start = time.perf_counter()
    loop_before = calibrate(CAL_FIRST_S)
    i = 0
    while True:
        label, fn = wl.item(i)
        t = time.perf_counter()
        try:
            with tracer.item_span(i) if tracer else nullcontext():
                problems, known = fn()
        except Exception as exc:  # an item that raises is a failed item
            traceback.print_exc(file=sys.stderr)
            problems, known = [f"raised {type(exc).__name__}: {exc}"], False
        dt = time.perf_counter() - t
        loop_after = calibrate(CAL_SHARE * dt)
        records.append(Record(label, dt, problems, known, loop_before, loop_after))
        loop_before = loop_after
        i += 1
        if count is not None:
            if i == count:
                return records
        elif i % wl.pass_size == 0:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / (i // wl.pass_size) / 2 >= seconds:
                return records


def end_to_end(records, elapsed, setup_times, pass_size):
    durations = pass_latencies(records, pass_size)
    pct, tail = tail_percentile(durations)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (len(durations) / sum(durations), "1/ref_s"),
        "item_p50_s": (statistics.median(durations), "ref_s"),
        "item_tail_s": (tail, "ref_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = sorted(r.seconds for r in records)
    loop_ms = 1000 * statistics.median(r.loop_after for r in records)
    notes = [
        f"items_per_s, item_p50_s and item_tail_s (p{pct:.1f}) over "
        f"{len(durations)} items of a pass, each the mean of "
        f"{len(records) / pass_size:g} passes"
        + (" (fewer than 20 items: the maximum)" if pct == 100 else ""),
        f"wall clock: {len(records) / elapsed:.4g} items/s with calibration, "
        f"item p50 {statistics.median(wall):.4g} s, max {wall[-1]:.4g} s; "
        f"calibration loop median {loop_ms:.4g} ms (reference "
        f"{1000 * CAL_REF_S:g} ms)",
    ]
    return metrics, notes


def per_layer(tracer, wl):
    """Per-layer metrics from the spans and the workload's own counters."""
    metrics = tracer.metrics()
    c = wl.counters
    metrics["lines.recall"] = (
        c["lines_recalled"] / c["lines_wanted"] if c["lines_wanted"] else 0.0, "ratio")
    metrics["lines.spurious"] = (c["lines_spurious"], "count")
    attempts = tracer.calls["cusplocus.point_case"]
    metrics["cusplocus.point_case_yield"] = (
        c["points_accepted"] / attempts if attempts else 0.0, "ratio")
    return metrics


def tracing_overhead(wl, records, seconds):
    """Traced over untraced time of the items that filled the first half of
    the traced run, replayed without tracing; minus one."""
    k, traced = 0, 0.0
    for r in records:
        if k and traced + r.seconds > seconds / 2:
            break
        k, traced = k + 1, traced + r.seconds
    untraced = sum(r.seconds for r in run_items(wl, 0, count=k))
    return traced / untraced - 1, k


def write_spans(tracer, args):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, item, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "item": item,
                                 "name": name, "start": start, "end": end}) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "singular_lines", "trichotomy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the cold set-up time and exit")
    parser.add_argument("--items", type=int, default=None,
                        help="run exactly this many items, not whole passes "
                             "(for the harness self-check)")
    args = parser.parse_args(argv)

    if not (SRC / "segrecusp" / "__init__.py").is_file():
        print(f"error: no segrecusp sources under {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    wl, setup_time = setup_workload(args.workload, args.seed, tracer)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_time}))
        return 0

    start = time.perf_counter()
    records = run_items(wl, args.seconds, tracer, args.items)
    elapsed = time.perf_counter() - start

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(records)} items "
          f"in {elapsed:.2f} s (closed loop, one client)")
    if tracer is None:
        setup_times = [setup_time] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics, notes = end_to_end(records, elapsed, setup_times, wl.pass_size)
        print("\n".join(notes))
        print("setup_s samples: " + ", ".join(f"{t:.3f}" for t in setup_times))
    else:
        tracer.uninstall()
        metrics = per_layer(tracer, wl)
        overhead, k = tracing_overhead(wl, records, args.seconds)
        metrics["trace.overhead"] = (overhead, "ratio")
        print(f"trace.overhead from {k} items replayed untraced; "
              f"{len(tracer.spans)} spans written to "
              f"{write_spans(tracer, args).relative_to(HERE.parent)}")

    failed = [r for r in records if r.problems]
    for r in failed:
        print(f"FAIL {r.label}: {'; '.join(r.problems)}"
              + (" (known census defect)" if r.known else ""))
    print(f"fail_frac {len(failed) / len(records):.4f} "
          f"({len(failed)} of {len(records)} items failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": all(r.known for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
