#!/usr/bin/env python3
"""detlint-ast — semantic determinism & units analyzer for AFASim.

The regex linter (detlint.py) token-matches; this analyzer parses real
clang ASTs through the libclang python bindings, driven by the
compile_commands.json that CMake exports (CMAKE_EXPORT_COMPILE_COMMANDS
is always on for this tree). Working on the AST fixes the regex
linter's structural blind spots — type aliases hiding unordered
containers, macro-expanded rand() calls, qualified-name lookalikes —
and admits rules that tokens cannot express at all.

Ported rules (same names, same rationale as detlint.py):
  rand, wall-clock, random-device, unseeded-rng, unordered-iteration,
  mutable-static, fault-rng, arrival-rng, telemetry-internal

AST-only rules:
  tick-units           arithmetic mixing a Tick-typed expression with
                       a floating-point operand, or initialising a
                       floating variable straight from a Tick, outside
                       the sanctioned conversion helpers in
                       src/sim/types.hh (nsec/usec/msec/sec, toUsec/
                       toMsec/toSec, transferTicks). An
                       explicit cast is an opt-out: it states the
                       author crossed the unit domain on purpose.
  unordered-accumulate floating-point reduction (compound assignment)
                       inside a range-for over an unordered container:
                       float addition is not associative, so the
                       result depends on hash-order.
  span-pairing         a span-begin tick (a local initialised from
                       now()) that reaches a SpanLog::record() call on
                       some control-flow path but not on all of them:
                       the uncovered paths silently drop the span.
                       Branches conditioned on the span log itself
                       (if (spanLog ...), ...wants(...)) are the
                       tracing-enabled idiom and count as covered.

Shares the `// detlint:allow(<rule>[, <rule>...])` escape hatch (same
line or the line above) and the fixture harness with the regex linter,
which remains the fast no-toolchain fallback.

Usage:
  detlint_ast.py [--root DIR] [-p BUILD_DIR] [--sarif OUT]
                 [--extra-arg ARG]... [--list-rules] [--probe]
                 [paths...]

With -p, paths select compile_commands.json entries (default: the
regex linter's scan roots). Without -p, paths are parsed standalone
with --extra-arg flags (the fixture harness mode). Diagnostics are
`file:line: rule: message`; exit status is 1 if any fire, 0 when
clean, 77 when libclang is unavailable, 2 on usage errors.
"""

import argparse
import json
import os
import re
import shlex
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import detlint as rxlint  # noqa: E402  (allow grammar + scan roots)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_NO_TOOLCHAIN = 77  # ctest SKIP_RETURN_CODE

RULES = dict(rxlint.RULES)
RULES.update({
    "tick-units": "Tick arithmetic mixed with floating-point outside "
                  "the src/sim/types.hh conversion helpers; use "
                  "nsec()/toUsec()/transferTicks() or an explicit "
                  "cast",
    "unordered-accumulate": "floating-point accumulation over an "
                            "unordered container is hash-order "
                            "dependent; accumulate over a sorted copy "
                            "or an ordered container",
    "span-pairing": "span begin tick reaches SpanLog::record() on "
                    "some paths but not all: the other paths drop the "
                    "span; record on every path or guard on the span "
                    "log",
})

RAND_QNAMES = {"rand", "srand", "std::rand", "std::srand"}

WALL_CLOCK_QNAMES = {
    "std::chrono::system_clock::now",
    "std::chrono::steady_clock::now",
    "std::chrono::high_resolution_clock::now",
    "time", "std::time",
    "clock", "std::clock",
    "gettimeofday", "clock_gettime",
    "localtime", "std::localtime",
    "gmtime", "std::gmtime",
    "timespec_get", "std::timespec_get",
}

ENGINE_QNAMES = {
    "std::mersenne_twister_engine",
    "std::linear_congruential_engine",
    "std::subtract_with_carry_engine",
    "std::discard_block_engine",
    "std::independent_bits_engine",
    "std::shuffle_order_engine",
}

# Event schedulers, by the class declaring them; banned in telemetry
# sources (the telemetry-internal rule), which take samples with the
# simulator's sampler hook, Simulator::sampleEvery(), and post no
# event.
EVENT_SCHEDULERS = {("Simulator", "scheduleAt"),
                    ("Simulator", "scheduleAfter"),
                    ("Simulator", "scheduleInternal"),
                    ("EventQueue", "schedule")}

# Functions allowed to cross the Tick <-> floating unit boundary: the
# conversion helpers defined in src/sim/types.hh, plus the horizon
# helpers whose whole job is converting floating latency draws into
# busy-horizon claims (NandArray::readAt, Controller::sampleHiccup).
TICK_HELPER_FNS = {"nsec", "usec", "msec", "sec",
                   "toUsec", "toMsec", "toSec", "transferTicks",
                   "readAt", "sampleHiccup"}
TICK_HELPER_FILE = os.path.join("src", "sim", "types.hh")

TICK_RE = re.compile(r"(?<![\w:])(?:afa::sim::)?Tick(?![\w])")

FLOAT_KINDS = {"FLOAT", "DOUBLE", "LONGDOUBLE", "FLOAT128", "HALF"}

CAST_KINDS = {"CXX_STATIC_CAST_EXPR", "CXX_FUNCTIONAL_CAST_EXPR",
              "CSTYLE_CAST_EXPR", "CXX_REINTERPRET_CAST_EXPR",
              "CXX_CONST_CAST_EXPR"}

FUNCTION_KINDS = {"FUNCTION_DECL", "CXX_METHOD", "CONSTRUCTOR",
                  "DESTRUCTOR", "FUNCTION_TEMPLATE",
                  "CONVERSION_FUNCTION"}

LOOP_KINDS = {"FOR_STMT", "WHILE_STMT", "DO_STMT", "CXX_FOR_RANGE_STMT"}

WRAPPER_KINDS = {"UNEXPOSED_EXPR", "PAREN_EXPR"}


# ---------------------------------------------------------------------
# Small cursor helpers. Everything goes through kind *names* so the
# unit tests can exercise the rule logic with duck-typed fakes and the
# code stays independent of cindex enum identity across LLVM versions.
# ---------------------------------------------------------------------

def kname(cursor):
    try:
        return cursor.kind.name
    except ValueError:
        return "UNKNOWN"


def children(cursor):
    return list(cursor.get_children())


def qualified_name(decl):
    """Fully qualified name of a declaration, with implementation
    namespaces (std::chrono::_V2, std::__1, __cxx11) dropped so
    matching works across standard libraries."""
    parts = []
    c = decl
    while c is not None:
        k = kname(c)
        if k in ("TRANSLATION_UNIT", "UNKNOWN", "INVALID_FILE"):
            break
        spelling = c.spelling
        if spelling and not spelling.startswith("_"):
            parts.append(spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def strip_refs(type_obj):
    """Peel references and pointers off a canonical type."""
    t = type_obj
    for _ in range(8):
        k = t.kind.name
        if k in ("LVALUEREFERENCE", "RVALUEREFERENCE", "POINTER"):
            t = t.get_pointee()
        else:
            break
    return t


def unwrap(expr):
    """Descend through implicit-cast / parenthesis wrappers to the
    expression that carries the interesting sugar."""
    c = expr
    for _ in range(16):
        if kname(c) in WRAPPER_KINDS:
            kids = children(c)
            if len(kids) == 1:
                c = kids[0]
                continue
        break
    return c


def canonical_record_qname(type_obj):
    """Qualified name of the canonical declaration behind a type,
    looking through aliases, references and pointers ('' if none)."""
    try:
        t = strip_refs(type_obj.get_canonical())
        d = t.get_declaration()
    except (AttributeError, ValueError):
        return ""
    if d is None:
        return ""
    return qualified_name(d)


def is_unordered_type(type_obj):
    qn = canonical_record_qname(type_obj)
    return qn.startswith("std::unordered_")


def is_floating(expr):
    e = unwrap(expr)
    if kname(e) == "FLOATING_LITERAL":
        return True
    try:
        return e.type.get_canonical().kind.name in FLOAT_KINDS
    except (AttributeError, ValueError):
        return False


def is_tickish(expr):
    """True when the expression's *sugared* type is the Tick alias
    and the author has not explicitly cast the units away."""
    e = unwrap(expr)
    if kname(e) in CAST_KINDS:
        return False
    try:
        spelling = e.type.spelling
    except (AttributeError, ValueError):
        return False
    return bool(TICK_RE.search(spelling))


def location_of(cursor):
    loc = cursor.location
    f = getattr(loc, "file", None)
    return (f.name if f else None, getattr(loc, "line", 0))


def subtree(cursor):
    stack = [cursor]
    while stack:
        c = stack.pop()
        yield c
        stack.extend(children(c))


class Diagnostic:
    def __init__(self, path, line, rule, detail=""):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail or RULES[rule]

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return "%s:%d: %s: %s" % (self.path, self.line, self.rule,
                                  self.detail)


# ---------------------------------------------------------------------
# span-pairing path analysis (pure statement-tree logic; unit-tested
# with fake cursors).
# ---------------------------------------------------------------------

def _mentions_span_log(expr):
    for c in subtree(expr):
        k = kname(c)
        if k in ("DECL_REF_EXPR", "MEMBER_REF_EXPR", "CALL_EXPR"):
            try:
                t = strip_refs(c.type.get_canonical())
                d = t.get_declaration()
            except (AttributeError, ValueError):
                continue
            if d is not None and d.spelling == "SpanLog":
                return True
    return False


def _is_record_call(cursor):
    if kname(cursor) != "CALL_EXPR":
        return False
    ref = cursor.referenced
    if ref is None or ref.spelling != "record":
        return False
    parent = ref.semantic_parent
    return parent is not None and parent.spelling == "SpanLog"


def _record_uses_in(stmt, begin_vars):
    """Hashes of begin vars referenced inside record() calls in the
    subtree of @p stmt."""
    used = set()
    for c in subtree(stmt):
        if not _is_record_call(c):
            continue
        for d in subtree(c):
            if kname(d) == "DECL_REF_EXPR":
                ref = d.referenced
                if ref is not None and ref.hash in begin_vars:
                    used.add(ref.hash)
    return used


class SpanPathChecker:
    """Checks that every begin-var that reaches a record() does so on
    every path. Conservative: loops and switches are treated
    optimistically (assumed to execute), so only the unambiguous
    "early return drops the span" and "only one branch records"
    shapes fire."""

    def __init__(self, begin_vars, recorded_vars):
        self.begin_vars = begin_vars      # hash -> (name, file, line)
        self.recorded_vars = recorded_vars
        self.flagged = set()
        self.diags = []

    def _flag(self, var_hash, where):
        if var_hash in self.flagged:
            return
        self.flagged.add(var_hash)
        name, _, _ = self.begin_vars[var_hash]
        path, line = location_of(where)
        self.diags.append((path, line, (
            "begin tick '%s' reaches SpanLog::record() on some paths "
            "but not this one" % name)))

    def _check_exit(self, declared, state, where):
        for v in self.recorded_vars:
            if v in declared and v not in state:
                self._flag(v, where)

    def run_body(self, body):
        declared, state = set(), set()
        self._stmt_seq(children(body), declared, state)
        # Implicit end-of-function exit.
        self._check_exit(declared, state, body)

    def _stmt_seq(self, stmts, declared, state):
        """Process a statement sequence; returns True when the
        sequence definitely terminated (returned)."""
        for stmt in stmts:
            if self._stmt(stmt, declared, state):
                return True
        return False

    def _stmt(self, stmt, declared, state):
        k = kname(stmt)
        if k == "DECL_STMT":
            for c in children(stmt):
                if kname(c) == "VAR_DECL" and c.hash in self.begin_vars:
                    declared.add(c.hash)
            # An initializer can itself contain a record call.
            state |= _record_uses_in(stmt, self.begin_vars)
            return False
        if k == "COMPOUND_STMT":
            return self._stmt_seq(children(stmt), declared, state)
        if k == "RETURN_STMT":
            state |= _record_uses_in(stmt, self.begin_vars)
            self._check_exit(declared, state, stmt)
            return True
        if k == "IF_STMT":
            kids = children(stmt)
            if not kids:
                return False
            cond, branches = kids[0], kids[1:]
            exempt = _mentions_span_log(cond)
            state |= _record_uses_in(cond, self.begin_vars)
            branch_states = []
            terminated_all = bool(branches)
            for br in branches:
                bs = set(state)
                bd = set(declared)
                term = self._stmt(br, bd, bs)
                if not term:
                    branch_states.append(bs)
                    terminated_all = False
            if exempt:
                # Tracing-enabled guard: the untraced path is meant to
                # skip the record; count the traced branch's records.
                for bs in branch_states:
                    state |= bs
            else:
                if branch_states and len(branches) > 1:
                    merged = set.intersection(*branch_states)
                    state |= merged
                # A lone if (no else) leaves the fall-through path
                # unrecorded: no state update.
            return terminated_all and len(branches) > 1
        if k in LOOP_KINDS or k == "SWITCH_STMT":
            # Optimistic: assume the body runs and its records count,
            # but still surface early returns inside.
            bd = set(declared)
            bs = set(state)
            self._stmt_seq(children(stmt), bd, bs)
            state |= bs
            return False
        # Plain statement (expression stmt, etc.): records inside are
        # unconditional at this nesting level.
        state |= _record_uses_in(stmt, self.begin_vars)
        return False


# ---------------------------------------------------------------------
# The analyzer.
# ---------------------------------------------------------------------

class Analyzer:
    def __init__(self, root):
        self.root = os.path.realpath(root)
        self.diags = {}
        self._allow_cache = {}
        self._scan_files = None  # realpath set or None = root filter

    def set_scan_files(self, files):
        self._scan_files = {os.path.realpath(f) for f in files}

    # -- reporting ----------------------------------------------------

    def _display_path(self, path):
        rp = os.path.realpath(path)
        if rp.startswith(self.root + os.sep):
            return os.path.relpath(rp, self.root)
        return path

    def _in_scope(self, path):
        if path is None:
            return False
        rp = os.path.realpath(path)
        if self._scan_files is not None:
            return rp in self._scan_files
        return rp.startswith(self.root + os.sep)

    def _allows(self, path):
        rp = os.path.realpath(path)
        if rp not in self._allow_cache:
            try:
                with open(rp, encoding="utf-8", errors="replace") as f:
                    self._allow_cache[rp] = rxlint.collect_allows(
                        f.read())
            except OSError:
                self._allow_cache[rp] = {}
        return self._allow_cache[rp]

    def report(self, cursor_or_loc, rule, detail=""):
        if isinstance(cursor_or_loc, tuple):
            path, line = cursor_or_loc
        else:
            path, line = location_of(cursor_or_loc)
        if not self._in_scope(path):
            return
        allows = self._allows(path)
        allowed = allows.get(line, set()) | allows.get(line - 1, set())
        if rule in allowed:
            return
        d = Diagnostic(self._display_path(path), line, rule, detail)
        self.diags.setdefault(d.key(), d)

    def results(self):
        return sorted(self.diags.values(),
                      key=lambda d: (d.path, d.line, d.rule))

    # -- per-TU entry -------------------------------------------------

    def analyze_tu(self, tu_cursor):
        ctx = {
            "unordered_loop_depth": 0,
        }
        self._walk(tu_cursor, ctx)

    # -- the walk -----------------------------------------------------

    def _walk(self, cursor, ctx):
        for child in children(cursor):
            self._visit(child, ctx)

    def _visit(self, cursor, ctx):
        k = kname(cursor)
        path, _ = location_of(cursor)
        # fault-rng in fault sources, arrival-rng in the open-loop
        # workload sources, None elsewhere (shared scoping with the
        # regex tier).
        fresh_rng_rule = rxlint.fresh_rng_rule_for(
            self._display_path(path)) if path else None
        telemetry_file = bool(path) and \
            "telemetry" in self._display_path(path)

        if k == "CALL_EXPR":
            self._check_call(cursor, telemetry_file)
        elif k == "VAR_DECL":
            self._check_var_decl(cursor, ctx, fresh_rng_rule)
        elif k == "CXX_NEW_EXPR":
            self._check_new_expr(cursor, fresh_rng_rule)
        elif k == "CXX_FOR_RANGE_STMT":
            if self._check_range_for(cursor, ctx):
                sub = dict(ctx, unordered_loop_depth=(
                    ctx["unordered_loop_depth"] + 1))
                self._walk(cursor, sub)
                return
        elif k in ("BINARY_OPERATOR", "COMPOUND_ASSIGNMENT_OPERATOR"):
            self._check_operator(cursor, ctx)
        if k in FUNCTION_KINDS or k == "LAMBDA_EXPR":
            self._check_span_pairing(cursor)
        self._walk(cursor, ctx)

    # -- ported rules -------------------------------------------------

    def _check_call(self, cursor, telemetry_file=False):
        ref = cursor.referenced
        if ref is None:
            return
        qn = qualified_name(ref)
        spelling = ref.spelling
        if qn in RAND_QNAMES:
            self.report(cursor, "rand")
        elif qn in WALL_CLOCK_QNAMES or \
                (spelling == "now" and qn.endswith("_clock::now")):
            self.report(cursor, "wall-clock")
        elif spelling in ("begin", "cbegin") and \
                kname(ref) == "CXX_METHOD":
            parent = ref.semantic_parent
            if parent is not None and \
                    parent.spelling.startswith("unordered_"):
                self.report(cursor, "unordered-iteration")
        if telemetry_file:
            self._check_telemetry_schedule(cursor, ref)

    def _check_telemetry_schedule(self, cursor, ref):
        """telemetry-internal: in telemetry sources every event
        scheduler is banned; samples are taken by the simulator's
        sampler hook, Simulator::sampleEvery()."""
        parent = ref.semantic_parent
        owner = parent.spelling if parent is not None else ""
        if (owner, ref.spelling) in EVENT_SCHEDULERS:
            self.report(cursor, "telemetry-internal",
                        "%s::%s posts an event; take samples with the "
                        "simulator's sampler hook, "
                        "Simulator::sampleEvery()"
                        % (owner, ref.spelling))

    def _check_var_decl(self, cursor, ctx, fresh_rng_rule):
        try:
            canonical = cursor.type.get_canonical()
        except (AttributeError, ValueError):
            return
        qn = canonical_record_qname(cursor.type)
        if qn == "std::random_device":
            self.report(cursor, "random-device")
            return
        # Engine aliases (std::mt19937 = mersenne_twister_engine<...>)
        # canonicalise to the underlying template.
        base = qn.split("<")[0] if qn else ""
        if base in ENGINE_QNAMES and canonical.kind.name == "RECORD":
            if self._ctor_args(cursor) == 0:
                self.report(cursor, "unseeded-rng")
        if fresh_rng_rule and qn == "afa::sim::Rng" and \
                canonical.kind.name == "RECORD":
            if self._is_fresh_rng_init(cursor):
                self.report(cursor, fresh_rng_rule)
        self._check_mutable_static(cursor)
        self._check_tick_var_init(cursor, ctx)

    def _ctor_args(self, var_decl):
        """Number of constructor/initializer argument expressions of a
        variable declaration (0 = default-constructed)."""
        init = self._var_init(var_decl)
        if init is None:
            return 0
        k = kname(init)
        if k == "CALL_EXPR":
            ref = init.referenced
            if ref is not None and kname(ref) == "CONSTRUCTOR":
                return len(self._call_args(init))
            return 1  # seeded/derived from a factory call
        if k == "INIT_LIST_EXPR":
            return len(children(init))
        return 1

    def _var_init(self, var_decl):
        exprs = [c for c in children(var_decl)
                 if kname(c) not in ("TYPE_REF", "NAMESPACE_REF",
                                     "TEMPLATE_REF", "ANNOTATE_ATTR")]
        return exprs[-1] if exprs else None

    def _call_args(self, call):
        try:
            args = list(call.get_arguments())
        except (AttributeError, ValueError):
            args = []
        if args:
            return args
        return [c for c in children(call)
                if kname(c) not in ("TYPE_REF", "NAMESPACE_REF",
                                    "TEMPLATE_REF", "MEMBER_REF_EXPR",
                                    "DECL_REF_EXPR")]

    def _is_fresh_rng_init(self, var_decl):
        init = self._var_init(var_decl)
        if init is None:
            return True  # default-constructed
        init = unwrap(init)
        if kname(init) == "CALL_EXPR":
            ref = init.referenced
            if ref is not None and kname(ref) == "CONSTRUCTOR":
                args = self._call_args(init)
                for a in args:
                    if canonical_record_qname(
                            unwrap(a).type) == "afa::sim::Rng":
                        return False  # copy/move of an engine stream
                return True
            return False  # derived via fork()/factory
        return False

    def _check_mutable_static(self, cursor):
        lex = cursor.lexical_parent
        if lex is None or kname(lex) not in ("TRANSLATION_UNIT",
                                             "NAMESPACE"):
            return
        if not cursor.is_definition():
            return
        try:
            t = cursor.type.get_canonical()
            for _ in range(4):
                if t.kind.name in ("CONSTANTARRAY", "INCOMPLETEARRAY"):
                    t = t.get_array_element_type()
                else:
                    break
            if t.is_const_qualified():
                return
        except (AttributeError, ValueError):
            return
        self.report(cursor, "mutable-static")

    def _check_new_expr(self, cursor, fresh_rng_rule):
        if not fresh_rng_rule:
            return
        qn = canonical_record_qname(cursor.type)
        if qn == "afa::sim::Rng":
            self.report(cursor, fresh_rng_rule)

    def _check_range_for(self, cursor, ctx):
        """Report unordered-iteration; returns True when the loop
        ranges over an unordered container (for accumulate ctx)."""
        range_expr = None
        for c in children(cursor):
            k = kname(c)
            if k in ("DECL_STMT", "VAR_DECL"):
                continue
            try:
                is_expr = c.kind.is_expression()
            except (AttributeError, ValueError):
                is_expr = False
            if is_expr:
                range_expr = c
                break
        if range_expr is None:
            return False
        if is_unordered_type(unwrap(range_expr).type):
            self.report(cursor, "unordered-iteration")
            return True
        return False

    # -- AST-only rules -----------------------------------------------

    def _tick_units_exempt(self, cursor):
        path, _ = location_of(cursor)
        if path and os.path.realpath(path).endswith(TICK_HELPER_FILE):
            return True
        c = cursor.semantic_parent
        for _ in range(8):
            if c is None:
                break
            if kname(c) in FUNCTION_KINDS and \
                    c.spelling in TICK_HELPER_FNS:
                return True
            c = c.semantic_parent
        return False

    def _check_operator(self, cursor, ctx):
        kids = children(cursor)
        if len(kids) != 2:
            return
        lhs, rhs = kids
        # tick-units: Tick op floating (either side).
        if (is_tickish(lhs) and is_floating(rhs)) or \
                (is_tickish(rhs) and is_floating(lhs)):
            if not self._tick_units_exempt(cursor):
                self.report(cursor, "tick-units")
        # unordered-accumulate: floating compound assignment inside a
        # range-for over an unordered container.
        if kname(cursor) == "COMPOUND_ASSIGNMENT_OPERATOR" and \
                ctx["unordered_loop_depth"] > 0 and is_floating(lhs):
            self.report(cursor, "unordered-accumulate")

    def _check_tick_var_init(self, cursor, ctx):
        """double d = someTick; -- implicit unit erasure."""
        try:
            if cursor.type.get_canonical().kind.name not in FLOAT_KINDS:
                return
        except (AttributeError, ValueError):
            return
        init = self._var_init(cursor)
        if init is None:
            return
        if is_tickish(init):
            if not self._tick_units_exempt(cursor):
                self.report(cursor, "tick-units")

    def _check_span_pairing(self, fn_cursor):
        body = None
        for c in children(fn_cursor):
            if kname(c) == "COMPOUND_STMT":
                body = c
        if body is None:
            return
        begin_vars = {}
        for c in subtree(body):
            if kname(c) != "VAR_DECL":
                continue
            init = self._var_init(c)
            if init is None:
                continue
            for d in subtree(init):
                if kname(d) == "CALL_EXPR":
                    ref = d.referenced
                    if ref is not None and ref.spelling == "now":
                        pathline = location_of(c)
                        begin_vars[c.hash] = (c.spelling,) + pathline
                        break
        if not begin_vars:
            return
        recorded = _record_uses_in(body, begin_vars)
        if not recorded:
            return
        checker = SpanPathChecker(begin_vars, recorded)
        checker.run_body(body)
        for path, line, detail in checker.diags:
            self.report((path, line), "span-pairing", detail)


# ---------------------------------------------------------------------
# Compile database handling.
# ---------------------------------------------------------------------

STRIP_ARGS = {"-c", "-MMD", "-MD", "-MP", "--"}
STRIP_NEXT = {"-o", "-MF", "-MT", "-MQ"}


def extract_args(entry):
    """Compiler flags from one compile_commands.json entry, with the
    compiler, the source file, and output bookkeeping removed and
    relative include paths anchored to the entry's directory."""
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry.get("command", ""))
    directory = entry.get("directory", ".")
    src = entry.get("file", "")
    src_real = os.path.realpath(os.path.join(directory, src))
    out = []
    skip = False
    for a in argv[1:]:
        if skip:
            skip = False
            continue
        if a in STRIP_NEXT:
            skip = True
            continue
        if a in STRIP_ARGS:
            continue
        if os.path.realpath(os.path.join(directory, a)) == src_real:
            continue
        if a.startswith("-I") and len(a) > 2 and \
                not os.path.isabs(a[2:]):
            a = "-I" + os.path.join(directory, a[2:])
        out.append(a)
    return out


def load_compdb(build_dir):
    db_path = os.path.join(build_dir, "compile_commands.json")
    try:
        with open(db_path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise SystemExit("detlint-ast: cannot read %s: %s "
                         "(configure with CMake first; "
                         "CMAKE_EXPORT_COMPILE_COMMANDS is on by "
                         "default for this tree)" % (db_path, e))


def select_entries(entries, root, paths):
    """Compile-db entries whose source file lives under one of the
    scan paths (relative to root)."""
    wanted = [os.path.realpath(os.path.join(root, p)) for p in paths]
    selected = []
    for entry in entries:
        src = os.path.realpath(os.path.join(entry.get("directory", "."),
                                            entry.get("file", "")))
        for w in wanted:
            if src == w or src.startswith(w + os.sep):
                selected.append(entry)
                break
    return selected


# ---------------------------------------------------------------------
# SARIF output.
# ---------------------------------------------------------------------

def to_sarif(diagnostics, root):
    rules = sorted({d.rule for d in diagnostics} | set(RULES))
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "detlint-ast",
                    "informationUri":
                        "https://github.com/afasim/afasim",
                    "rules": [{
                        "id": r,
                        "shortDescription": {"text": RULES.get(r, r)},
                    } for r in rules],
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"uri": "file://%s/" % root},
            },
            "results": [{
                "ruleId": d.rule,
                "level": "error",
                "message": {"text": d.detail},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": d.path.replace(os.sep, "/"),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": d.line},
                    },
                }],
            } for d in diagnostics],
        }],
    }


# ---------------------------------------------------------------------
# libclang loading & driver.
# ---------------------------------------------------------------------

def load_cindex(libclang=None):
    """Returns (cindex module, None) or (None, reason)."""
    try:
        from clang import cindex
    except ImportError as e:
        return None, "python clang bindings unavailable (%s); " \
                     "install python3-clang" % e
    if libclang:
        try:
            cindex.Config.set_library_file(libclang)
        except Exception as e:  # pragma: no cover - config is sticky
            return None, str(e)
    elif os.environ.get("DETLINT_LIBCLANG"):
        try:
            cindex.Config.set_library_file(
                os.environ["DETLINT_LIBCLANG"])
        except Exception:
            pass
    try:
        cindex.Index.create()
    except Exception as e:
        return None, "libclang shared library not loadable: %s" % e
    return cindex, None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="AST-grade determinism & units analyzer")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("-p", "--build-dir",
                        help="build dir containing compile_commands"
                             ".json; paths then select entries")
    parser.add_argument("--extra-arg", action="append", default=[],
                        help="extra compiler arg for standalone "
                             "(no-compdb) parsing; repeatable")
    parser.add_argument("--libclang",
                        help="explicit path to the libclang shared "
                             "library")
    parser.add_argument("--sarif", metavar="OUT",
                        help="also write SARIF 2.1.0 to OUT")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and rationale, then "
                             "exit")
    parser.add_argument("--probe", action="store_true",
                        help="exit 0 if libclang is usable, %d "
                             "otherwise" % EXIT_NO_TOOLCHAIN)
    parser.add_argument("paths", nargs="*",
                        help="files or directories relative to --root "
                             "(default: the detlint scan roots)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-22s %s" % (rule, RULES[rule]))
        return EXIT_CLEAN

    cindex, reason = load_cindex(args.libclang)
    if args.probe:
        if cindex is None:
            print("detlint-ast: %s" % reason, file=sys.stderr)
            return EXIT_NO_TOOLCHAIN
        print("detlint-ast: libclang usable", file=sys.stderr)
        return EXIT_CLEAN
    if cindex is None:
        print("detlint-ast: %s" % reason, file=sys.stderr)
        print("detlint-ast: skipping AST analysis (the regex "
              "detlint.py fallback still applies)", file=sys.stderr)
        return EXIT_NO_TOOLCHAIN

    root = os.path.realpath(args.root)
    analyzer = Analyzer(root)
    index = cindex.Index.create()

    units = []  # (display name, path, args)
    if args.build_dir:
        entries = load_compdb(args.build_dir)
        paths = args.paths or rxlint.DEFAULT_PATHS
        selected = select_entries(entries, root, paths)
        if not selected:
            print("detlint-ast: no compile_commands.json entries "
                  "match %s" % paths, file=sys.stderr)
            return EXIT_USAGE
        for entry in selected:
            src = os.path.realpath(
                os.path.join(entry.get("directory", "."),
                             entry.get("file", "")))
            units.append((src, src, extract_args(entry)))
    else:
        if not args.paths:
            parser.error("without -p/--build-dir, pass explicit files")
        base = ["-x", "c++", "-std=c++20"] + args.extra_arg
        files = []
        for p in args.paths:
            full = p if os.path.isabs(p) else os.path.join(root, p)
            units.append((full, full, list(base)))
            files.append(full)
        analyzer.set_scan_files(files)

    parse_errors = 0
    for display, path, unit_args in units:
        try:
            tu = index.parse(path, args=unit_args)
        except cindex.TranslationUnitLoadError as e:
            print("detlint-ast: failed to parse %s: %s"
                  % (display, e), file=sys.stderr)
            parse_errors += 1
            continue
        hard_errors = [d for d in tu.diagnostics if d.severity >= 3]
        if hard_errors:
            print("detlint-ast: %s: %d parse error(s), first: %s"
                  % (display, len(hard_errors),
                     hard_errors[0].spelling), file=sys.stderr)
            parse_errors += 1
        analyzer.analyze_tu(tu.cursor)

    results = analyzer.results()
    for d in results:
        print(d)
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as f:
            json.dump(to_sarif(results, root), f, indent=2)
            f.write("\n")
    if parse_errors:
        print("detlint-ast: %d translation unit(s) had parse errors"
              % parse_errors, file=sys.stderr)
        return EXIT_USAGE
    if results:
        print("detlint-ast: %d issue(s) in %d translation unit(s)"
              % (len(results), len(units)), file=sys.stderr)
        return EXIT_FINDINGS
    print("detlint-ast: clean (%d translation units)" % len(units),
          file=sys.stderr)
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
