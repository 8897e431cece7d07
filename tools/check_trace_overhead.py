#!/usr/bin/env python3
"""Gate the cost of compiled-in-but-disabled span tracing.

Compares a google-benchmark JSON run of bench/micro_simcore against a
baseline and fails when the geometric-mean time ratio across shared
benchmarks exceeds the tolerance (default 2%). The instrumentation
contract (DESIGN.md "Observability contract") is that a disabled
SpanLog site costs one predictable branch, so the tracing-enabled
build must sit on top of the tracing-free numbers to within noise.

Two baseline formats are accepted:

  * another google-benchmark JSON file -- the same-host A/B CI uses:
    one micro_simcore built normally (tracing compiled in, disabled at
    runtime) against one built with -DAFA_OBS_COMPILED_CATEGORIES=0;

  * BENCH_simcore.json, the repo's tracked medians (the `new` value
    per benchmark). Only meaningful on the machine that recorded them;
    use it locally, not on shared CI runners.

Shared hosts drift by tens of percent between back-to-back runs of
the *same* binary (memory-bound benches especially), so both sides
accept several interleaved rounds and compare per-benchmark medians
across rounds -- the BENCH_simcore.json methodology.

Benchmarks that *actively* record (the telemetry A/B pair
BM_SpanLogRecordTelemetry / BM_TelemetryWindowedRun) are excluded
from the cross-build ratio with --exclude: in the compiled-out
baseline their instrumentation sites no-op, so their ratio would
measure tracing itself rather than its disabled cost. The disabled
telemetry path is gated instead by --require-ing the benchmark that
exercises the always-on simulator self-profiling counters
(BM_Fig06Throughput): a silent drop of it from the comparison fails
the gate.

Usage:
    micro_simcore --benchmark_out=run.json --benchmark_out_format=json
    tools/check_trace_overhead.py a1.json a2.json \
        --baseline b1.json --baseline b2.json \
        --exclude 'BM_SpanLogRecordTelemetry|BM_TelemetryWindowedRun' \
        --require BM_Fig06Throughput
"""

import argparse
import json
import math
import re
import statistics
import sys


def load_times(path):
    """Return {benchmark name: ns/op} from either supported format."""
    with open(path) as f:
        doc = json.load(f)

    if "micro_simcore" in doc:  # BENCH_simcore.json
        return {name: rec["new"]
                for name, rec in doc["micro_simcore"]["benchmarks"].items()}

    # google-benchmark: prefer the median aggregate when repetitions
    # were requested, else the plain iteration entries.
    times = {}
    medians = {}
    for b in doc.get("benchmarks", []):
        name = b["name"]
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b.get("run_name", name)] = b["real_time"]
        else:
            times[name] = b["real_time"]
    return medians or times


def median_times(paths):
    """Per-benchmark median ns/op across several rounds."""
    rounds = [load_times(p) for p in paths]
    names = set.intersection(*(set(r) for r in rounds))
    return {name: statistics.median(r[name] for r in rounds)
            for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("measured", nargs="+",
                        help="google-benchmark JSON run(s)")
    parser.add_argument("--baseline", action="append",
                        help="baseline JSON (google-benchmark or "
                             "BENCH_simcore.json format); repeat for "
                             "several rounds [default: "
                             "BENCH_simcore.json]")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="max geomean slowdown, percent (default 2)")
    parser.add_argument("--exclude", default=None,
                        help="regex of benchmark names to drop from "
                             "the comparison (benchmarks that "
                             "actively record)")
    parser.add_argument("--require", action="append", default=[],
                        help="benchmark name that must be present in "
                             "the comparison; repeatable. Guards "
                             "against a gated code path silently "
                             "disappearing from the A/B.")
    args = parser.parse_args()

    measured = median_times(args.measured)
    baseline = median_times(args.baseline or ["BENCH_simcore.json"])
    shared = sorted(set(measured) & set(baseline))
    if args.exclude:
        pattern = re.compile(args.exclude)
        dropped = [n for n in shared if pattern.search(n)]
        if dropped:
            print("excluded from the ratio: %s" % ", ".join(dropped))
        shared = [n for n in shared if not pattern.search(n)]
    missing = [name for name in args.require if name not in shared]
    if missing:
        print("FAIL: required benchmark(s) missing from the "
              "comparison: %s" % ", ".join(missing))
        return 1
    if not shared:
        print("check_trace_overhead: no common benchmarks between "
              "%s and %s" % (args.measured, args.baseline))
        return 1

    log_sum = 0.0
    print("%-36s %12s %12s %8s" % ("benchmark", "measured", "baseline",
                                   "ratio"))
    for name in shared:
        ratio = measured[name] / baseline[name]
        log_sum += math.log(ratio)
        print("%-36s %12.2f %12.2f %8.3f"
              % (name, measured[name], baseline[name], ratio))
    geomean = math.exp(log_sum / len(shared))
    limit = 1.0 + args.tolerance / 100.0
    print("geomean time ratio: %.4f (limit %.4f, %d benchmarks)"
          % (geomean, limit, len(shared)))

    if geomean > limit:
        print("FAIL: tracing overhead %.1f%% exceeds %.1f%%"
              % ((geomean - 1.0) * 100.0, args.tolerance))
        return 1
    print("OK: tracing overhead %.1f%% within %.1f%%"
          % ((geomean - 1.0) * 100.0, args.tolerance))
    return 0


if __name__ == "__main__":
    sys.exit(main())
