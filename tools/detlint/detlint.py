#!/usr/bin/env python3
"""detlint — determinism linter for the AFASim simulator tree.

The reproduction's headline claim is bit-identical figures for a given
--seed at any --jobs count. That only holds while simulator code draws
every random number from the seeded afa::sim::Rng tree, never reads
wall-clock time into simulation state, and keeps no hidden mutable
globals. detlint statically bans the constructs that break that
contract:

  rand                 C PRNG (std::rand/srand/rand()) — unseeded,
                       process-global, not reproducible.
  wall-clock           std::chrono::*_clock::now, time(), gettimeofday,
                       clock_gettime, clock() — host time must never
                       reach simulation state; sim time is Tick.
  random-device        std::random_device — hardware entropy defeats
                       --seed by design.
  unseeded-rng         std::mt19937 & friends default-constructed —
                       fixed seed by accident, and a parallel stream
                       that ignores the experiment seed. Use
                       afa::sim::Rng::fork().
  unordered-iteration  iterating a std::unordered_{map,set}: iteration
                       order depends on libstdc++ version, hasher seed
                       and insertion history, so anything order-
                       sensitive becomes build-dependent. Use std::map
                       or a vector, or iterate a sorted key copy.
  mutable-static       mutable namespace-scope state: shared across
                       concurrently running simulations, so one run
                       can leak into another.
  fault-rng            (fault sources only) constructing a fresh
                       afa::sim::Rng in fault code: all fault
                       randomness must flow from the FaultEngine's
                       per-object stream ("afa.faults") or faulted
                       replays stop being replayable.
  arrival-rng          (arrival/open-loop workload sources only)
                       constructing a fresh afa::sim::Rng in the
                       open-loop traffic engine: every arrival-clock,
                       device, LBA and mix draw must flow from the
                       engine's named per-stream forks or the offered
                       load stops being byte-identical across
                       --jobs.
  telemetry-internal   (telemetry sources only) posting any event:
                       the telemetry contract (DESIGN.md §13) is that
                       canonical reports are byte-identical with
                       --telemetry on and off, which holds because
                       samples are taken between ticks by the
                       Simulator's sampler (Simulator::sampleEvery()),
                       not in events. scheduleAt()/scheduleAfter() and
                       a raw EventQueue schedule() post make a sample
                       a counted, model-visible event, and
                       scheduleInternal() moves the plumbing count and
                       the sample's place in its tick.

Escape hatch: a trailing or immediately preceding comment
`// detlint:allow(<rule>[,<rule>...])` suppresses a diagnostic; every
allow is expected to carry a justification nearby (logging.cc's
audited globals are the template).

Usage:
  detlint.py [--root DIR] [--list-rules] [paths...]

Paths default to the whole simulator tree: every library directory
under src/ plus bench/ (the figure drivers feed published results, so
they obey the same determinism contract). Diagnostics are
`file:line: rule: message`; exit status is 1 if any fire.

detlint is the fast no-toolchain fallback; detlint_ast.py (same rules
plus semantic-only ones, same allow grammar) is the authoritative
analyzer when libclang is available. See DESIGN.md "Static-analysis
contract".
"""

import argparse
import os
import re
import sys

DEFAULT_PATHS = [
    "src/sim",
    "src/core",
    "src/fault",
    "src/nvme",
    "src/pcie",
    "src/host",
    "src/obs",
    "src/raid",
    "src/stats",
    "src/workload",
    "src/nand",
    "bench",
]

SOURCE_EXTENSIONS = (".cc", ".hh", ".cpp", ".hpp", ".h")

ALLOW_RE = re.compile(r"detlint:allow\(([\w\-, ]+)\)")

RULES = {
    "rand": "C PRNG is process-global and unseeded; draw from the "
            "experiment's afa::sim::Rng instead",
    "wall-clock": "host wall-clock must not reach simulation state; "
                  "simulated time is afa::sim::Tick",
    "random-device": "hardware entropy defeats --seed reproducibility",
    "unseeded-rng": "default-constructed engine ignores the experiment "
                    "seed; use afa::sim::Rng::fork()",
    "unordered-iteration": "unordered container iteration order is "
                           "implementation-defined; iterate a sorted "
                           "copy or use an ordered container",
    "mutable-static": "mutable namespace-scope state is shared across "
                      "concurrent simulations; move it into a "
                      "simulation-owned object or justify with "
                      "detlint:allow",
    "fault-rng": "fault code must draw randomness from the "
                 "FaultEngine's seeded per-object stream, not a "
                 "freshly constructed Rng",
    "arrival-rng": "open-loop arrival code must draw randomness from "
                   "the engine's named per-stream Rng forks, not a "
                   "freshly constructed Rng",
    "telemetry-internal": "telemetry posts no event: it samples through "
                          "the simulator's sampler hook "
                          "(Simulator::sampleEvery()), between ticks; "
                          "any scheduleAt/scheduleAfter/"
                          "scheduleInternal or raw EventQueue post "
                          "moves event counts or same-tick order",
}

SIMPLE_PATTERNS = [
    ("rand", re.compile(
        r"std\s*::\s*s?rand\b|(?<![\w:.>])s?rand\s*\(")),
    ("wall-clock", re.compile(
        r"(?:system|steady|high_resolution)_clock\s*::\s*now"
        r"|std\s*::\s*(?:time|clock)\s*\("
        r"|(?<![\w:.>])time\s*\("
        r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
        r"|(?<![\w:.>])clock\s*\(\s*\)"
        r"|\blocaltime\s*\(|\bgmtime\s*\(")),
    ("random-device", re.compile(r"std\s*::\s*random_device\b")),
    ("unseeded-rng", re.compile(
        r"std\s*::\s*(?:mt19937(?:_64)?|default_random_engine"
        r"|minstd_rand0?|ranlux(?:24|48)(?:_base)?)"
        r"\s+\w+\s*(?:;|\{\s*\}|\(\s*\))")),
]

# Fresh-Rng construction, reported as fault-rng in paths containing
# "fault" and as arrival-rng in the open-loop workload sources
# ("arrival"/"openloop" paths): either way it is a second randomness
# stream outside the object's seeded fork.
FRESH_RNG_RE = re.compile(
    r"\bRng\s+\w+\s*[({=;]"
    r"|\bnew\s+(?:afa\s*::\s*sim\s*::\s*)?Rng\b")


def fresh_rng_rule_for(display_path):
    """The fresh-Rng rule a path is scoped under, or None."""
    if "fault" in display_path:
        return "fault-rng"
    if "arrival" in display_path or "openloop" in display_path:
        return "arrival-rng"
    return None

# Scoped to paths containing "telemetry": every event scheduler (the
# Simulator's scheduleAt/scheduleAfter/scheduleInternal and a raw
# EventQueue::schedule), none of which sampling code may use.
EVENT_SCHEDULE_RE = re.compile(
    r"\bschedule(?:At|After|Internal)\s*\(|(?:\.|->)\s*schedule\s*\(")

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s*&?\s*"
    r"(\w+)\s*[;={(,)]")

RANGE_FOR_RE = re.compile(r"for\s*\([^;()]*?:\s*&?([\w.>\-]+)\s*\)")

BEGIN_CALL_RE = re.compile(r"(\w+)\s*\.\s*(?:begin|cbegin)\s*\(\s*\)")


RAW_STRING_OPEN_RE = re.compile(r'R"([^ ()\\\t\v\f\n]{0,16})\(')


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving the
    character count and line structure so offsets keep mapping to the
    original file.

    Two constructs need care beyond the classic four-state scanner:

      - C++14 digit separators: the apostrophe in 1'000'000 is part
        of the number, not a char literal. Treating it as one flips
        the scanner into char-literal state mid-number; the state
        desync then blanks real code and un-blanks real comments,
        producing both false negatives and false positives (a comment
        mentioning std::rand() after such a literal used to fire the
        rand rule -- see fixtures/clean_separators.cc).

      - Raw string literals: R"(...)" contents follow no escape rules
        and may span lines; a backslash before the closing quote must
        not be treated as an escape, and the terminator is )delim",
        not a bare quote.
    """
    out = []
    i, n = 0, len(text)
    state = "code"
    raw_term = ""  # the )delim" terminator of the open raw string
    prev_code = ""  # last non-blanked character emitted in code state
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
            elif c == "R" and nxt == '"' and \
                    not (prev_code.isalnum() or prev_code == "_"):
                m = RAW_STRING_OPEN_RE.match(text, i)
                if m:
                    state = "raw-string"
                    raw_term = ')%s"' % m.group(1)
                    out.append(" " * len(m.group(0)))
                    i = m.end()
                else:
                    out.append(c)
                    prev_code = c
                    i += 1
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                # A digit separator (1'000'000, 0xff'ff) continues the
                # preceding pp-number: it can only follow a digit (or
                # hex digit). Any other preceding character -- incl.
                # the L/u/U encoding prefixes, which are why plain
                # isalnum() would be wrong -- opens a char literal.
                if prev_code in "0123456789abcdefABCDEF":
                    out.append(" ")
                    i += 1
                else:
                    state = "char"
                    out.append(" ")
                    i += 1
            else:
                out.append(c)
                if not c.isspace():
                    prev_code = c
                i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "raw-string":
            # No escapes inside a raw string; it ends only at its
            # )delim" terminator.
            if text.startswith(raw_term, i):
                state = "code"
                out.append(" " * len(raw_term))
                i += len(raw_term)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            if c == "\\":
                out.append(" ")
                out.append(nxt if nxt == "\n" else " ")
                i += 2
            elif (state == "string" and c == '"') or \
                 (state == "char" and c == "'"):
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def strip_preprocessor(text):
    """Blank out preprocessor directives (including continuation
    lines) so #includes and macros don't bleed into namespace-scope
    statement tracking. Run after comment/string stripping."""
    out = []
    continuation = False
    for line in text.split("\n"):
        if continuation or line.lstrip().startswith("#"):
            continuation = line.rstrip().endswith("\\")
            out.append(" " * len(line))
        else:
            continuation = False
            out.append(line)
    return "\n".join(out)


def collect_allows(text):
    """Map 1-based line number -> set of rule names allowed there."""
    allows = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            allows[lineno] = rules
    return allows


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


class Diagnostic:
    def __init__(self, path, line, rule, detail=""):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail or RULES[rule]

    def __str__(self):
        return "%s:%d: %s: %s" % (self.path, self.line, self.rule,
                                  self.detail)


def classify_block(prefix):
    """Classify the block opened by '{' from the statement text that
    precedes it."""
    p = prefix.strip()
    if re.search(r"\bnamespace\b", p):
        return "namespace"
    if re.search(r"\b(class|struct|union|enum)\b", p):
        return "type"
    if p.endswith(")") or re.search(r"\)\s*(const|noexcept|->.*)?$", p):
        return "function"
    if p.endswith("=") or not p:
        return "init"
    # `Foo bar{...}` brace-initialiser of a declaration.
    if re.search(r"[\w>\]]$", p):
        return "init"
    return "other"


STATIC_SKIP_RE = re.compile(
    r"\b(const|constexpr|constinit|using|typedef|extern|template|"
    r"operator|friend|static_assert|return)\b")


def is_mutable_static_stmt(stmt):
    """True when a namespace-scope statement defines a mutable
    variable (flag regardless of the `static` keyword: a non-const
    namespace-scope definition has static storage either way)."""
    s = " ".join(stmt.split())
    if not s or s.endswith(")"):
        return False
    if STATIC_SKIP_RE.search(s):
        return False
    # `class Foo;` / `struct Foo;` is a forward declaration, not state.
    if re.match(r"(class|struct|union|enum(\s+(class|struct))?)\s+"
                r"[\w:]+$", s):
        return False
    # A '(' before any '=' means a function declaration/definition
    # (variable ctor-call initialisers are rare here and a miss is
    # cheaper than flagging every function).
    paren = s.find("(")
    eq = s.find("=")
    if paren != -1 and (eq == -1 or paren < eq):
        return False
    # Must look like "Type name ...;" — at least two identifier-ish
    # tokens before the initialiser/semicolon.
    head = re.split(r"[={]", s, 1)[0].strip()
    if not re.search(r"[\w>&*\]]\s+[\w:]+(\s*\[\s*\d*\s*\])?$", head):
        return False
    return True


def check_mutable_static(path, text, diags):
    """Scan namespace-scope statements for mutable static state."""
    stack = []  # classifications of open blocks
    stmt_start = 0
    stmt = []
    i, n = 0, len(text)
    in_init_depth = 0

    def at_namespace_scope():
        return all(b == "namespace" for b in stack)

    while i < n:
        c = text[i]
        if c == "{":
            if at_namespace_scope():
                kind = classify_block("".join(stmt))
                if kind == "init":
                    in_init_depth += 1
                    stack.append("init-group")
                    stmt.append("{")
                else:
                    stack.append(kind)
                    if kind != "namespace":
                        pass  # keep stmt; discarded at close
                    else:
                        stmt = []
                        stmt_start = i + 1
            else:
                stack.append("inner")
            i += 1
            continue
        if c == "}":
            if stack:
                kind = stack.pop()
                if kind == "init-group":
                    in_init_depth -= 1
                    stmt.append("}")
                elif at_namespace_scope():
                    # Closed a function/type/namespace at namespace
                    # scope: statement text was its head, drop it.
                    stmt = []
                    stmt_start = i + 1
            i += 1
            continue
        if c == ";" and at_namespace_scope() and in_init_depth == 0:
            statement = "".join(stmt)
            if is_mutable_static_stmt(statement):
                # Report at the first non-blank line of the statement.
                first = statement.lstrip()
                off = stmt_start + (len(statement) - len(first))
                diags.append(Diagnostic(path, line_of(text, off),
                                        "mutable-static"))
            stmt = []
            stmt_start = i + 1
            i += 1
            continue
        if at_namespace_scope():
            stmt.append(c)
        i += 1


def check_telemetry_internal(path, text, diags):
    """Telemetry posts no event: every event scheduler is banned in
    telemetry sources."""
    for m in EVENT_SCHEDULE_RE.finditer(text):
        diags.append(Diagnostic(
            path, line_of(text, m.start()), "telemetry-internal",
            "scheduleAt/scheduleAfter/scheduleInternal/schedule post "
            "an event; take samples with the simulator's sampler "
            "hook, Simulator::sampleEvery()"))


def check_unordered_iteration(path, text, diags):
    names = set(UNORDERED_DECL_RE.findall(text))
    if not names:
        return
    for regex in (RANGE_FOR_RE, BEGIN_CALL_RE):
        for m in regex.finditer(text):
            target = m.group(1)
            leaf = re.split(r"[.>]|->", target)[-1]
            if leaf in names:
                diags.append(Diagnostic(path, line_of(text, m.start()),
                                        "unordered-iteration"))


def check_file(path, display_path):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    allows = collect_allows(raw)
    text = strip_preprocessor(strip_comments_and_strings(raw))

    diags = []
    for rule, regex in SIMPLE_PATTERNS:
        for m in regex.finditer(text):
            diags.append(Diagnostic(display_path,
                                    line_of(text, m.start()), rule))
    fresh_rng_rule = fresh_rng_rule_for(display_path)
    if fresh_rng_rule:
        for m in FRESH_RNG_RE.finditer(text):
            diags.append(Diagnostic(display_path,
                                    line_of(text, m.start()),
                                    fresh_rng_rule))
    if "telemetry" in display_path:
        check_telemetry_internal(display_path, text, diags)
    check_unordered_iteration(display_path, text, diags)
    check_mutable_static(display_path, text, diags)

    kept = []
    for d in diags:
        allowed = allows.get(d.line, set()) | allows.get(d.line - 1,
                                                        set())
        if d.rule in allowed:
            continue
        kept.append(d)
    return kept


def iter_sources(root, paths):
    for path in paths:
        full = os.path.join(root, path)
        if os.path.isfile(full):
            yield full, path
            continue
        for dirpath, _, filenames in os.walk(full):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    fp = os.path.join(dirpath, name)
                    yield fp, os.path.relpath(fp, root)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="determinism linter for simulator sources")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and rationale, then exit")
    parser.add_argument("paths", nargs="*",
                        help="files or directories relative to --root "
                             "(default: the simulator dirs)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-20s %s" % (rule, RULES[rule]))
        return 0

    paths = args.paths or DEFAULT_PATHS
    total = 0
    files = 0
    for full, display in iter_sources(args.root, paths):
        files += 1
        for diag in check_file(full, display):
            print(diag)
            total += 1
    if total:
        print("detlint: %d issue(s) in %d file(s) scanned"
              % (total, files), file=sys.stderr)
        return 1
    print("detlint: clean (%d files scanned)" % files, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
