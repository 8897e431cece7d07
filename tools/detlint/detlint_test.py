#!/usr/bin/env python3
"""Regression tests for detlint.

Each fixture file under fixtures/ either must trigger an exact set of
rules (proving every rule fires) or must lint clean (proving the
escape hatch and the non-triggering idioms are respected). Run
directly or through ctest; exits non-zero on any mismatch.
"""

import collections
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DETLINT = os.path.join(HERE, "detlint.py")
FIXTURES = os.path.join(HERE, "fixtures")

DIAG_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): (?P<rule>[\w-]+): ")

# fixture -> {rule: exact diagnostic count}
EXPECTATIONS = {
    "bad_rand.cc": {"rand": 3},
    "bad_wall_clock.cc": {"wall-clock": 6},
    "bad_wall_clock_span.cc": {"wall-clock": 2},
    "bad_random_device.cc": {"random-device": 1},
    "bad_unseeded_rng.cc": {"unseeded-rng": 4},
    "bad_unordered_iteration.cc": {"unordered-iteration": 3},
    "bad_mutable_static.cc": {"mutable-static": 4},
    "bad_fault_rng.cc": {"fault-rng": 2},
    "bad_arrival_rng.cc": {"arrival-rng": 2},
    "bad_telemetry_event.cc": {"telemetry-internal": 4},
    "allowed.cc": {},
    "clean.cc": {},
    "clean_arrival.cc": {},
    "clean_separators.cc": {},
    "clean_telemetry.cc": {},
}


def run_detlint(fixture):
    proc = subprocess.run(
        [sys.executable, DETLINT, "--root", FIXTURES, fixture],
        capture_output=True, text=True)
    counts = collections.Counter()
    for line in proc.stdout.splitlines():
        m = DIAG_RE.match(line)
        if m:
            counts[m.group("rule")] += 1
    return proc.returncode, dict(counts)


def main():
    failures = []

    present = {f for f in os.listdir(FIXTURES) if f.endswith(".cc")}
    missing = present.symmetric_difference(EXPECTATIONS)
    if missing:
        failures.append("fixtures and expectations out of sync: %s"
                        % sorted(missing))

    for fixture, expected in sorted(EXPECTATIONS.items()):
        rc, counts = run_detlint(fixture)
        expected_rc = 1 if expected else 0
        if rc != expected_rc:
            failures.append("%s: exit %d, expected %d (diagnostics: %s)"
                            % (fixture, rc, expected_rc, counts))
        if counts != expected:
            failures.append("%s: diagnostics %s, expected %s"
                            % (fixture, counts, expected))

    # Every documented rule must be proven to fire by some fixture.
    list_rules = subprocess.run(
        [sys.executable, DETLINT, "--list-rules"],
        capture_output=True, text=True)
    documented = {line.split()[0]
                  for line in list_rules.stdout.splitlines() if line}
    fired = set()
    for expected in EXPECTATIONS.values():
        fired.update(expected)
    unproven = documented - fired
    if unproven:
        failures.append("rules with no firing fixture: %s"
                        % sorted(unproven))

    if failures:
        for f in failures:
            print("FAIL: %s" % f)
        return 1
    print("detlint_test: %d fixtures ok, %d rules proven"
          % (len(EXPECTATIONS), len(documented)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
