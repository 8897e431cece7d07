#!/usr/bin/env python3
"""Toolchain-free unit tests for detlint_ast.py.

detlint_ast deliberately reaches the clang AST only through
duck-typed cursor attributes (kind.name, get_children(), referenced,
type.get_canonical(), ...), so its rule logic can be exercised with
fake cursors on hosts without libclang — this suite is what ctest
runs everywhere; detlint_ast_test.py adds the real-parser fixtures
when python3-clang is present.
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import detlint_ast as da  # noqa: E402


# ---------------------------------------------------------------------
# Duck-typed stand-ins for cindex objects.
# ---------------------------------------------------------------------

class FakeKind:
    def __init__(self, name, is_expr=False):
        self.name = name
        self._is_expr = is_expr

    def is_expression(self):
        return self._is_expr


class FakeFile:
    def __init__(self, name):
        self.name = name


class FakeLocation:
    def __init__(self, path, line):
        self.file = FakeFile(path) if path else None
        self.line = line


class FakeType:
    def __init__(self, spelling="", kind_name="RECORD", decl=None,
                 pointee=None, const=False, canonical=None,
                 element=None):
        self.spelling = spelling
        self.kind = FakeKind(kind_name)
        self._decl = decl
        self._pointee = pointee
        self._const = const
        self._canonical = canonical
        self._element = element

    def get_canonical(self):
        return self._canonical or self

    def get_declaration(self):
        return self._decl

    def get_pointee(self):
        return self._pointee

    def is_const_qualified(self):
        return self._const

    def get_array_element_type(self):
        return self._element


_next_hash = [0]


class FakeCursor:
    def __init__(self, kind, spelling="", children=(), referenced=None,
                 semantic_parent=None, lexical_parent=None, type=None,
                 path="fake.cc", line=1, tokens=(), definition=True,
                 is_expr=False):
        self.kind = FakeKind(kind, is_expr)
        self.spelling = spelling
        self._children = list(children)
        self.referenced = referenced
        self.semantic_parent = semantic_parent
        self.lexical_parent = lexical_parent
        self.type = type if type is not None else FakeType()
        self.location = FakeLocation(path, line)
        self._tokens = tokens
        self._definition = definition
        _next_hash[0] += 1
        self.hash = _next_hash[0]

    def get_children(self):
        return list(self._children)

    def get_tokens(self):
        class Tok:
            def __init__(self, s):
                self.spelling = s
        return [Tok(s) for s in self._tokens]

    def is_definition(self):
        return self._definition


def decl_ref(var):
    return FakeCursor("DECL_REF_EXPR", spelling=var.spelling,
                      referenced=var, type=var.type, is_expr=True)


def record_call(*begin_refs, path="fake.cc", line=1):
    span_log = FakeCursor("STRUCT_DECL", spelling="SpanLog")
    record_decl = FakeCursor("CXX_METHOD", spelling="record",
                             semantic_parent=span_log)
    return FakeCursor("CALL_EXPR", spelling="record",
                      children=list(begin_refs),
                      referenced=record_decl, path=path, line=line,
                      is_expr=True)


def span_log_guard():
    """An expression whose type resolves to SpanLog (a guard on the
    span log pointer)."""
    decl = FakeCursor("STRUCT_DECL", spelling="SpanLog")
    record_t = FakeType(spelling="SpanLog", decl=decl)
    ptr_t = FakeType(spelling="SpanLog *", kind_name="POINTER",
                     pointee=record_t)
    return FakeCursor("MEMBER_REF_EXPR", spelling="spanLog",
                      type=ptr_t, is_expr=True)


def begin_var(name="begin", line=2):
    t = FakeType(spelling="afa::sim::Tick", kind_name="ULONGLONG")
    return FakeCursor("VAR_DECL", spelling=name, type=t, line=line)


class QualifiedNames(unittest.TestCase):
    def test_skips_inline_version_namespaces(self):
        tu = FakeCursor("TRANSLATION_UNIT")
        std = FakeCursor("NAMESPACE", spelling="std",
                         semantic_parent=tu)
        chrono = FakeCursor("NAMESPACE", spelling="chrono",
                            semantic_parent=std)
        v2 = FakeCursor("NAMESPACE", spelling="_V2",
                        semantic_parent=chrono)
        clock = FakeCursor("CLASS_DECL", spelling="system_clock",
                           semantic_parent=v2)
        now = FakeCursor("CXX_METHOD", spelling="now",
                         semantic_parent=clock)
        self.assertEqual(da.qualified_name(now),
                         "std::chrono::system_clock::now")


class CompileArgs(unittest.TestCase):
    def test_command_form(self):
        entry = {
            "directory": "/b/build",
            "command": "/usr/bin/c++ -Isrc -I/abs/inc -std=gnu++20 "
                       "-O2 -MD -MF dep.d -o obj/x.o -c ../src/x.cc",
            "file": "../src/x.cc",
        }
        args = da.extract_args(entry)
        self.assertEqual(args, ["-I/b/build/src", "-I/abs/inc",
                                "-std=gnu++20", "-O2"])

    def test_arguments_form(self):
        entry = {
            "directory": "/b",
            "arguments": ["c++", "-DX=1", "-c", "a.cc", "-o", "a.o"],
            "file": "a.cc",
        }
        self.assertEqual(da.extract_args(entry), ["-DX=1"])

    def test_select_entries(self):
        entries = [
            {"directory": "/r/build", "file": "../src/sim/a.cc"},
            {"directory": "/r/build", "file": "../tests/t.cc"},
        ]
        chosen = da.select_entries(entries, "/r", ["src/sim"])
        self.assertEqual(len(chosen), 1)
        self.assertIn("a.cc", chosen[0]["file"])


class SarifOutput(unittest.TestCase):
    def test_shape(self):
        diags = [da.Diagnostic("src/sim/a.cc", 12, "rand")]
        doc = da.to_sarif(diags, "/r")
        run = doc["runs"][0]
        self.assertEqual(doc["version"], "2.1.0")
        result = run["results"][0]
        self.assertEqual(result["ruleId"], "rand")
        loc = result["locations"][0]["physicalLocation"]
        self.assertEqual(loc["artifactLocation"]["uri"],
                         "src/sim/a.cc")
        self.assertEqual(loc["region"]["startLine"], 12)
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        self.assertLessEqual(set(da.RULES), rule_ids)
        json.dumps(doc)  # must be serialisable


class TelemetryInternal(unittest.TestCase):
    """Rule logic for telemetry-internal on fake call cursors."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.analyzer = da.Analyzer(self.tmp.name)
        self.path = os.path.join(self.tmp.name, "obs", "telemetry.cc")

    def tearDown(self):
        self.tmp.cleanup()

    def sched_call(self, owner, name, args, line=1):
        cls = FakeCursor("CLASS_DECL", spelling=owner)
        decl = FakeCursor("FUNCTION_TEMPLATE", spelling=name,
                          semantic_parent=cls)
        return FakeCursor("CALL_EXPR", spelling=name, children=args,
                          referenced=decl, path=self.path, line=line,
                          is_expr=True)

    def fired(self):
        return [(d.rule, d.line) for d in self.analyzer.results()]

    def args(self):
        return [FakeCursor("INTEGER_LITERAL", path=self.path,
                           is_expr=True),
                FakeCursor("LAMBDA_EXPR", path=self.path,
                           is_expr=True)]

    def check(self, call):
        self.analyzer._check_telemetry_schedule(call, call.referenced)

    def test_model_schedulers_fire(self):
        for line, (owner, name) in enumerate(
                (("Simulator", "scheduleAt"),
                 ("Simulator", "scheduleAfter"),
                 ("EventQueue", "schedule")), 1):
            self.check(self.sched_call(owner, name, self.args(),
                                       line=line))
        self.assertEqual(self.fired(), [("telemetry-internal", 1),
                                        ("telemetry-internal", 2),
                                        ("telemetry-internal", 3)])

    def test_schedule_internal_fires(self):
        # An internal post is still an event: telemetry posts none.
        self.check(self.sched_call("Simulator", "scheduleInternal",
                                   self.args()))
        self.assertEqual(self.fired(), [("telemetry-internal", 1)])

    def test_sampler_hook_is_clean(self):
        self.check(self.sched_call("Simulator", "sampleEvery",
                                   self.args()))
        self.assertEqual(self.fired(), [])

    def test_unrelated_schedule_is_clean(self):
        # Only the simulator's event queue counts: a same-named method
        # of another class is not an event post.
        self.check(self.sched_call("Planner", "schedule", self.args()))
        self.assertEqual(self.fired(), [])

    def test_non_telemetry_file_not_checked(self):
        # _check_call only consults the rule for telemetry sources.
        call = self.sched_call("Simulator", "scheduleAfter", self.args())
        call.location = FakeLocation(
            os.path.join(self.tmp.name, "obs", "span_log.cc"), 1)
        self.analyzer._check_call(call, telemetry_file=False)
        self.assertEqual(self.fired(), [])


class AllowFiltering(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        self.path = os.path.join(self.root, "x.cc")
        with open(self.path, "w", encoding="utf-8") as f:
            f.write("int a;\n"
                    "int b; // detlint:allow(mutable-static)\n"
                    "// detlint:allow(rand)\n"
                    "int c = bad();\n")

    def tearDown(self):
        self.tmp.cleanup()

    def test_allow_same_line_and_line_above(self):
        an = da.Analyzer(self.root)
        an.report((self.path, 1), "mutable-static")
        an.report((self.path, 2), "mutable-static")  # allowed
        an.report((self.path, 4), "rand")            # allowed above
        an.report((self.path, 1), "mutable-static")  # dedup
        results = an.results()
        self.assertEqual([(d.path, d.line, d.rule) for d in results],
                         [("x.cc", 1, "mutable-static")])

    def test_out_of_scope_paths_ignored(self):
        an = da.Analyzer(self.root)
        an.report(("/usr/include/ctime", 3), "wall-clock")
        self.assertEqual(an.results(), [])


class TickUnitsOperator(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        self.path = os.path.join(self.root, "y.cc")
        with open(self.path, "w", encoding="utf-8") as f:
            f.write("// nothing\n" * 20)
        self.an = da.Analyzer(self.root)
        self.ctx = {"in_sched": False, "in_sched_lambda": False,
                    "unordered_loop_depth": 0}

    def tearDown(self):
        self.tmp.cleanup()

    def tick_ref(self):
        t = FakeType(spelling="afa::sim::Tick",
                     kind_name="ULONGLONG",
                     canonical=FakeType(spelling="unsigned long long",
                                        kind_name="ULONGLONG"))
        return FakeCursor("DECL_REF_EXPR", spelling="t", type=t,
                          path=self.path, line=5, is_expr=True)

    def float_lit(self):
        t = FakeType(spelling="double", kind_name="DOUBLE")
        return FakeCursor("FLOATING_LITERAL", type=t, path=self.path,
                          line=5, is_expr=True)

    def test_tick_times_double_fires(self):
        op = FakeCursor("BINARY_OPERATOR",
                        children=[self.tick_ref(), self.float_lit()],
                        path=self.path, line=5)
        self.an._check_operator(op, self.ctx)
        self.assertEqual([d.rule for d in self.an.results()],
                         ["tick-units"])

    def test_cast_is_exempt(self):
        cast = FakeCursor("CXX_STATIC_CAST_EXPR",
                          children=[self.tick_ref()],
                          type=FakeType(spelling="double",
                                        kind_name="DOUBLE"),
                          path=self.path, line=6, is_expr=True)
        op = FakeCursor("BINARY_OPERATOR",
                        children=[cast, self.float_lit()],
                        path=self.path, line=6)
        self.an._check_operator(op, self.ctx)
        self.assertEqual(self.an.results(), [])

    def test_unordered_accumulate_needs_loop_ctx(self):
        lhs = FakeCursor(
            "DECL_REF_EXPR", spelling="total",
            type=FakeType(spelling="double", kind_name="DOUBLE"),
            path=self.path, line=7, is_expr=True)
        op = FakeCursor("COMPOUND_ASSIGNMENT_OPERATOR",
                        children=[lhs, self.float_lit()],
                        path=self.path, line=7)
        self.an._check_operator(op, self.ctx)
        self.assertEqual(self.an.results(), [])
        self.an._check_operator(
            op, dict(self.ctx, unordered_loop_depth=1))
        self.assertEqual([d.rule for d in self.an.results()],
                         ["unordered-accumulate"])


class SpanPaths(unittest.TestCase):
    """Statement-tree shapes for the span-pairing path checker."""

    def run_checker(self, body, begin):
        begin_vars = {begin.hash: (begin.spelling, "fake.cc", 2)}
        recorded = da._record_uses_in(body, begin_vars)
        checker = da.SpanPathChecker(begin_vars, recorded)
        if not recorded:
            return []
        checker.run_body(body)
        return checker.diags

    def decl_stmt(self, var):
        return FakeCursor("DECL_STMT", children=[var])

    def test_early_return_fires(self):
        begin = begin_var()
        body = FakeCursor("COMPOUND_STMT", children=[
            self.decl_stmt(begin),
            FakeCursor("IF_STMT", children=[
                FakeCursor("DECL_REF_EXPR", spelling="fast",
                           is_expr=True),
                FakeCursor("RETURN_STMT", line=4),
            ]),
            record_call(decl_ref(begin), line=6),
        ])
        diags = self.run_checker(body, begin)
        self.assertEqual(len(diags), 1)
        self.assertEqual(diags[0][1], 4)  # at the early return

    def test_one_branch_records_fires_at_end(self):
        begin = begin_var()
        body = FakeCursor("COMPOUND_STMT", line=1, children=[
            self.decl_stmt(begin),
            FakeCursor("IF_STMT", children=[
                FakeCursor("DECL_REF_EXPR", spelling="hit",
                           is_expr=True),
                record_call(decl_ref(begin), line=5),
            ]),
        ])
        diags = self.run_checker(body, begin)
        self.assertEqual(len(diags), 1)

    def test_guarded_by_span_log_is_exempt(self):
        begin = begin_var()
        body = FakeCursor("COMPOUND_STMT", children=[
            self.decl_stmt(begin),
            FakeCursor("IF_STMT", children=[
                span_log_guard(),
                record_call(decl_ref(begin), line=5),
            ]),
        ])
        self.assertEqual(self.run_checker(body, begin), [])

    def test_both_branches_record_is_clean(self):
        begin = begin_var()
        body = FakeCursor("COMPOUND_STMT", children=[
            self.decl_stmt(begin),
            FakeCursor("IF_STMT", children=[
                FakeCursor("DECL_REF_EXPR", spelling="hit",
                           is_expr=True),
                record_call(decl_ref(begin), line=5),
                record_call(decl_ref(begin), line=7),
            ]),
        ])
        self.assertEqual(self.run_checker(body, begin), [])

    def test_unconditional_record_is_clean(self):
        begin = begin_var()
        body = FakeCursor("COMPOUND_STMT", children=[
            self.decl_stmt(begin),
            record_call(decl_ref(begin), line=3),
            FakeCursor("RETURN_STMT", line=4),
        ])
        self.assertEqual(self.run_checker(body, begin), [])

    def test_never_recorded_var_is_ignored(self):
        begin = begin_var()
        body = FakeCursor("COMPOUND_STMT", children=[
            self.decl_stmt(begin),
            FakeCursor("RETURN_STMT", line=3),
        ])
        self.assertEqual(self.run_checker(body, begin), [])

    def test_record_inside_loop_is_optimistic(self):
        begin = begin_var()
        body = FakeCursor("COMPOUND_STMT", children=[
            self.decl_stmt(begin),
            FakeCursor("WHILE_STMT", children=[
                FakeCursor("DECL_REF_EXPR", spelling="more",
                           is_expr=True),
                record_call(decl_ref(begin), line=5),
            ]),
        ])
        self.assertEqual(self.run_checker(body, begin), [])


class FreshRngRule(unittest.TestCase):
    """Path scoping and init classification of the fault-rng /
    arrival-rng fresh-Rng rules on fake cursors."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.an = da.Analyzer(self.tmp.name)
        self.ctx = {"in_sched": False, "in_sched_lambda": False,
                    "unordered_loop_depth": 0}

    def tearDown(self):
        self.tmp.cleanup()

    def test_path_scoping(self):
        rule = da.rxlint.fresh_rng_rule_for
        self.assertEqual(rule("src/fault/fault_engine.cc"),
                         "fault-rng")
        self.assertEqual(rule("src/workload/arrival.cc"),
                         "arrival-rng")
        self.assertEqual(rule("src/workload/openloop.hh"),
                         "arrival-rng")
        self.assertIsNone(rule("src/workload/fio_thread.cc"))
        self.assertIsNone(rule("src/sim/random.cc"))

    def rng_type(self):
        tu = FakeCursor("TRANSLATION_UNIT")
        afa = FakeCursor("NAMESPACE", spelling="afa",
                         semantic_parent=tu)
        sim = FakeCursor("NAMESPACE", spelling="sim",
                         semantic_parent=afa)
        decl = FakeCursor("CLASS_DECL", spelling="Rng",
                          semantic_parent=sim)
        return FakeType(spelling="afa::sim::Rng", kind_name="RECORD",
                        decl=decl)

    def rng_var(self, path, init=None, line=3):
        children = [init] if init is not None else []
        return FakeCursor("VAR_DECL", spelling="r",
                          children=children, type=self.rng_type(),
                          path=path, line=line)

    def ctor_init(self):
        ctor = FakeCursor("CONSTRUCTOR", spelling="Rng")
        seed = FakeCursor("INTEGER_LITERAL", is_expr=True)
        return FakeCursor("CALL_EXPR", children=[seed],
                          referenced=ctor, is_expr=True)

    def fork_init(self):
        fork = FakeCursor("CXX_METHOD", spelling="fork")
        return FakeCursor("CALL_EXPR", referenced=fork, is_expr=True)

    def fired(self):
        return [(d.rule, d.line) for d in self.an.results()]

    def test_fresh_ctor_fires_scoped_rule(self):
        path = os.path.join(self.tmp.name, "workload", "arrival.cc")
        var = self.rng_var(path, self.ctor_init(), line=11)
        self.an._check_var_decl(var, self.ctx, "arrival-rng")
        self.assertEqual(self.fired(), [("arrival-rng", 11)])

    def test_default_ctor_fires(self):
        path = os.path.join(self.tmp.name, "workload", "openloop.cc")
        var = self.rng_var(path, None, line=4)
        self.an._check_var_decl(var, self.ctx, "arrival-rng")
        self.assertEqual(self.fired(), [("arrival-rng", 4)])

    def test_fault_path_reports_fault_rng(self):
        path = os.path.join(self.tmp.name, "fault", "engine.cc")
        var = self.rng_var(path, self.ctor_init(), line=8)
        self.an._check_var_decl(var, self.ctx, "fault-rng")
        self.assertEqual(self.fired(), [("fault-rng", 8)])

    def test_fork_derived_is_clean(self):
        path = os.path.join(self.tmp.name, "workload", "arrival.cc")
        var = self.rng_var(path, self.fork_init())
        self.an._check_var_decl(var, self.ctx, "arrival-rng")
        self.assertEqual(self.fired(), [])

    def test_unscoped_path_is_clean(self):
        path = os.path.join(self.tmp.name, "workload", "fio.cc")
        var = self.rng_var(path, self.ctor_init())
        self.an._check_var_decl(var, self.ctx, None)
        self.assertEqual(self.fired(), [])

    def test_new_expr_fires_passed_rule(self):
        path = os.path.join(self.tmp.name, "workload", "arrival.cc")
        new = FakeCursor("CXX_NEW_EXPR", type=self.rng_type(),
                         path=path, line=6)
        self.an._check_new_expr(new, "arrival-rng")
        self.assertEqual(self.fired(), [("arrival-rng", 6)])

    def test_new_expr_without_rule_is_clean(self):
        path = os.path.join(self.tmp.name, "workload", "fio.cc")
        new = FakeCursor("CXX_NEW_EXPR", type=self.rng_type(),
                         path=path, line=6)
        self.an._check_new_expr(new, None)
        self.assertEqual(self.fired(), [])


if __name__ == "__main__":
    unittest.main(verbosity=1)
