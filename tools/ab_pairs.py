#!/usr/bin/env python3
"""Interleaved A/B pairs of two afabench builds.

Runs N pairs of `afabench --mode run` per workload, one process at a
time. Each pair runs the base and the change back to back and the
order flips every pair; the workloads take turns, so host drift lands
on all of them alike. Per pair it prints the change's delta against
the base in normalized `wall_s`, `raw_wall_s` and `ref_burst_ns`; per
workload the win count, both sides' medians and quartiles, the median
`peak_rss_mb` and `setup_s` deltas, and whether the gain resolves: at
least ten pairs, wins in at least nine tenths of them, and a median
gap wider than the base's interquartile range. The last block on
stdout is JSON for BENCH_simcore.json.

Exits 1 when the two sides disagree on `digest`, `total_ios` or
`sim_events` in any pair: an A/B only means something between two
builds that simulate the same events.

    tools/ab_pairs.py BASE_AFABENCH CHANGE_AFABENCH [--pairs 10]
    tools/ab_pairs.py --base HEAD~1 [CHANGE_AFABENCH] [--pairs 10]

`--base REV` extracts REV with `git archive` into build/ab/ (kept,
keyed by commit, so a rerun reuses it) and builds its afabench with
REV's own benchmark/run.py; without CHANGE_AFABENCH the change is this
checkout's build/afabench/afabench, built by benchmark/run.py. The
workloads are the ones BENCHMARK.json declares.
"""

import argparse
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run_py(tree, name):
    """Import @p tree's benchmark/run.py: its build() builds that
    tree's afabench and its harness() runs one afabench process."""
    spec = importlib.util.spec_from_file_location(
        name, tree / "benchmark" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_run_py(ROOT, "run")
# Outputs that are pure functions of the model: both sides must agree.
EXACT = ("digest", "total_ios", "sim_events")


def build_base(rev):
    """afabench built from commit @p rev, extracted under build/ab/."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    tree = ROOT / "build" / "ab" / sha[:12]
    if not tree.is_dir():
        # Extract into a temporary name first, so an interrupted
        # extraction is never mistaken for a whole tree.
        partial = tree.with_name(tree.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(partial)],
                       input=archive, check=True)
        partial.rename(tree)
    run.log(f"ab_pairs: building base {rev} ({sha[:12]}) in {tree}")
    base = load_run_py(tree, "base_run")
    base.build()
    return base.HARNESS


def run_once(binary, workload, seed, sim_ms):
    """One `afabench --mode run` through run.py's harness(), which runs
    the binary that run.HARNESS names."""
    run.HARNESS = binary
    flags = {"sim_ms": sim_ms} if sim_ms else {}
    return run.harness(workload, seed, "run", **flags)


def pct(change, base):
    return 100.0 * (change / base - 1.0)


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def rounded(values, digits):
    return [round(v, digits) for v in values]


def summarize(pairs):
    """Per-workload statistics over its list of (base, change) runs."""
    base_wall = [b["wall_s"] for b, _ in pairs]
    change_wall = [c["wall_s"] for _, c in pairs]
    wall_delta = [pct(c["wall_s"], b["wall_s"]) for b, c in pairs]
    raw_delta = [pct(c["raw_wall_s"], b["raw_wall_s"]) for b, c in pairs]
    ref_delta = [pct(c["ref_burst_ns"], b["ref_burst_ns"])
                 for b, c in pairs]
    rss_delta = [pct(c["peak_rss_mb"], b["peak_rss_mb"]) for b, c in pairs]
    # setup_s is a list of set-up cycles per run; compare their medians.
    setup_delta = [pct(statistics.median(c["setup_s"]),
                       statistics.median(b["setup_s"])) for b, c in pairs]
    wins = sum(c["wall_s"] < b["wall_s"] for b, c in pairs)
    base_q = quartiles(base_wall)
    change_q = quartiles(change_wall)
    gap = base_q[1] - change_q[1]
    return {
        "pairs": len(pairs),
        "wall_s_base_q1_median_q3": rounded(base_q, 5),
        "wall_s_change_q1_median_q3": rounded(change_q, 5),
        "wall_pair_delta_pct_q1_median_q3": rounded(quartiles(wall_delta), 1),
        "change_lower_wall_pairs": wins,
        "raw_wall_pair_delta_pct_q1_median_q3":
            rounded(quartiles(raw_delta), 1),
        "change_lower_raw_wall_pairs":
            sum(c["raw_wall_s"] < b["raw_wall_s"] for b, c in pairs),
        "ref_burst_pair_delta_pct_median":
            round(statistics.median(ref_delta), 1),
        "peak_rss_pair_delta_pct_median":
            round(statistics.median(rss_delta), 1),
        "setup_s_pair_delta_pct_median":
            round(statistics.median(setup_delta), 1),
        "gain_resolves": len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and gap > base_q[2] - base_q[0],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("binaries", nargs="*", metavar="AFABENCH",
                    help="base and change binaries (or only the change "
                         "binary with --base)")
    ap.add_argument("--base", metavar="REV",
                    help="build the base from this git revision")
    ap.add_argument("--pairs", type=int, default=10)
    declared = [w["name"] for w in run.load_spec()["workloads"]]
    ap.add_argument("--workloads", default=",".join(declared))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sim-ms", type=int, default=0,
                    help="simulated ms per run (0: the workload default)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in workloads if w not in declared]
    if unknown or not workloads:
        ap.error("unknown workload(s): %s" % ", ".join(unknown or ["none"]))
    if args.base:
        if len(args.binaries) > 1:
            ap.error("--base takes at most one binary (the change)")
        base = build_base(args.base)
        if args.binaries:
            change = Path(args.binaries[0])
        else:
            run.build()
            change = run.HARNESS
    elif len(args.binaries) == 2:
        base, change = (Path(b) for b in args.binaries)
    else:
        ap.error("give BASE and CHANGE binaries, or --base REV")
    for binary in (base, change):
        if not binary.is_file():
            ap.error(f"no afabench binary at {binary}")

    results = {w: [] for w in workloads}
    mismatches = []
    print("workload pair first wall_delta_pct raw_delta_pct "
          "ref_burst_delta_pct")
    for i in range(args.pairs):
        for w in workloads:
            change_first = i % 2 == 1
            order = (change, base) if change_first else (base, change)
            first, second = (run_once(b, w, args.seed, args.sim_ms)
                             for b in order)
            b, c = (second, first) if change_first else (first, second)
            results[w].append((b, c))
            for key in EXACT:
                if b[key] != c[key]:
                    mismatches.append(f"{w} pair {i + 1}: {key} base "
                                      f"{b[key]} change {c[key]}")
            print(f"{w} {i + 1} {'change' if change_first else 'base'} "
                  f"{pct(c['wall_s'], b['wall_s']):+.1f} "
                  f"{pct(c['raw_wall_s'], b['raw_wall_s']):+.1f} "
                  f"{pct(c['ref_burst_ns'], b['ref_burst_ns']):+.1f}",
                  flush=True)

    summary = {}
    print()
    for w in workloads:
        s = summarize(results[w])
        s.update({key: results[w][0][0][key] for key in EXACT})
        summary[w] = s
        print(f"{w}: change faster in {s['change_lower_wall_pairs']}/"
              f"{s['pairs']} pairs; wall_s median base "
              f"{s['wall_s_base_q1_median_q3'][1]} change "
              f"{s['wall_s_change_q1_median_q3'][1]}; pair delta median "
              f"{s['wall_pair_delta_pct_q1_median_q3'][1]:+.1f}% "
              f"(raw {s['raw_wall_pair_delta_pct_q1_median_q3'][1]:+.1f}%, "
              f"ref_burst {s['ref_burst_pair_delta_pct_median']:+.1f}%); "
              f"gain resolves: {'yes' if s['gain_resolves'] else 'no'}")
    command = " ".join(["tools/ab_pairs.py"] + sys.argv[1:])
    print()
    print(json.dumps({"command": command, "seed": args.seed,
                      "sim_ms": args.sim_ms or "workload default",
                      "pair_delta_pct": "100 * (change / base - 1)",
                      "workloads": summary}, indent=1))
    if mismatches:
        for m in mismatches:
            print("FAIL " + m, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
