#!/usr/bin/env python3
"""Fixture & parity tests for detlint_ast.py (requires libclang).

Two suites:

  1. fixtures_ast/: each AST-only rule must fire exactly the expected
     number of times, and clean_ast.cc (the sanctioned idioms plus the
     allow escape hatch) must lint clean.

  2. parity: for every shared regex fixture under fixtures/, the SET
     of rules the AST analyzer fires must equal the set the regex
     linter fires. Counts may legitimately differ (e.g. the most
     vexing parse hides one regex hit from the AST), rule coverage
     must not.

Exits 77 (the ctest skip code) when libclang is unavailable, so the
suite degrades gracefully on toolchain-less hosts; CI installs
python3-clang and runs it for real.
"""

import collections
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DETLINT = os.path.join(HERE, "detlint.py")
DETLINT_AST = os.path.join(HERE, "detlint_ast.py")
FIXTURES = os.path.join(HERE, "fixtures")
FIXTURES_AST = os.path.join(HERE, "fixtures_ast")

EXIT_SKIP = 77

DIAG_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): (?P<rule>[\w-]+): ")

# fixture -> {rule: exact diagnostic count}
AST_EXPECTATIONS = {
    "bad_tick_units.cc": {"tick-units": 3},
    "bad_unordered_accumulate.cc": {"unordered-accumulate": 1,
                                    "unordered-iteration": 2},
    "bad_span_pairing.cc": {"span-pairing": 2},
    "clean_ast.cc": {},
}


def run_linter(script, root, fixture, extra_args=()):
    cmd = [sys.executable, script, "--root", root]
    for a in extra_args:
        cmd += ["--extra-arg", a]
    cmd.append(fixture)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    counts = collections.Counter()
    for line in proc.stdout.splitlines():
        m = DIAG_RE.match(line)
        if m:
            counts[m.group("rule")] += 1
    return proc.returncode, dict(counts), proc.stderr


def main():
    probe = subprocess.run(
        [sys.executable, DETLINT_AST, "--probe"],
        capture_output=True, text=True)
    if probe.returncode == EXIT_SKIP:
        print("detlint_ast_test: SKIP — %s"
              % probe.stderr.strip().splitlines()[-1])
        return EXIT_SKIP
    if probe.returncode != 0:
        print("FAIL: probe exited %d: %s"
              % (probe.returncode, probe.stderr))
        return 1

    failures = []
    include_src = "-I" + os.path.join(ROOT, "src")

    # --- suite 1: AST-only rule fixtures -----------------------------
    present = {f for f in os.listdir(FIXTURES_AST) if f.endswith(".cc")}
    missing = present.symmetric_difference(AST_EXPECTATIONS)
    if missing:
        failures.append("fixtures_ast and expectations out of sync: %s"
                        % sorted(missing))

    for fixture, expected in sorted(AST_EXPECTATIONS.items()):
        rc, counts, err = run_linter(DETLINT_AST, FIXTURES_AST, fixture,
                                     [include_src])
        expected_rc = 1 if expected else 0
        if rc != expected_rc:
            failures.append("%s: exit %d, expected %d (diags: %s; "
                            "stderr: %s)"
                            % (fixture, rc, expected_rc, counts,
                               err.strip()))
        if counts != expected:
            failures.append("%s: diagnostics %s, expected %s"
                            % (fixture, counts, expected))

    # --- suite 2: regex/AST parity over the shared fixtures ----------
    sys.path.insert(0, HERE)
    import detlint_test
    for fixture, expected in sorted(detlint_test.EXPECTATIONS.items()):
        rx_rc, rx_counts = detlint_test.run_detlint(fixture)
        ast_rc, ast_counts, err = run_linter(
            DETLINT_AST, FIXTURES, fixture, [include_src])
        if ast_rc not in (0, 1):
            failures.append("parity %s: analyzer exited %d (%s)"
                            % (fixture, ast_rc, err.strip()))
            continue
        if set(rx_counts) != set(ast_counts):
            failures.append("parity %s: regex rules %s != AST rules %s"
                            % (fixture, sorted(rx_counts),
                               sorted(ast_counts)))
        if rx_rc in (0, 1) and (ast_rc == 1) != (rx_rc == 1):
            failures.append("parity %s: regex exit %d vs AST exit %d"
                            % (fixture, rx_rc, ast_rc))

    # --- every AST-only rule is both documented and proven -----------
    list_rules = subprocess.run(
        [sys.executable, DETLINT_AST, "--list-rules"],
        capture_output=True, text=True)
    documented = {line.split()[0]
                  for line in list_rules.stdout.splitlines() if line}
    fired = set()
    for expected in AST_EXPECTATIONS.values():
        fired.update(expected)
    for expected in detlint_test.EXPECTATIONS.values():
        fired.update(expected)
    unproven = documented - fired
    if unproven:
        failures.append("rules with no firing fixture: %s"
                        % sorted(unproven))

    if failures:
        for f in failures:
            print("FAIL: %s" % f)
        return 1
    print("detlint_ast_test: %d AST fixtures ok, %d parity fixtures "
          "ok, %d rules proven"
          % (len(AST_EXPECTATIONS), len(detlint_test.EXPECTATIONS),
             len(documented)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
