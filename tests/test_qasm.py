import inspect
import math
import operator
import re
import signal
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import qasm_texts, random_circuit
from gatedepth import qasm
from gatedepth.ir import BARRIER, DELAY, MEASURE, Circuit, Gate, validate
from gatedepth.qasm import (MAX_GATES, MAX_PAREN_DEPTH, MAX_REGISTER_SIZE, ParseDiagnostic,
                            QasmParseError, parse, parse_program, unparse)

import random

REF_TEXT = (
    "OPENQASM 2.0;\n"
    'include "qelib1.inc";\n'
    "qreg q[3];\n"
    "cz q[0],q[1];\n"
    "x q[0];\nx q[0];\nx q[0];\nx q[1];\n"
    "cz q[1],q[2];\n"
)


def test_minimal_program():
    c = parse("OPENQASM 2.0; qreg q[1]; x q[0];")
    assert c == Circuit(1, (Gate("x", (0,)),))


def test_reference_circuit_six_gates():
    c = parse(REF_TEXT)
    assert c.num_qubits == 3
    assert len(c.gates) == 6
    assert c.gates[0] == Gate("cz", (0, 1))
    assert c.gates[5] == Gate("cz", (1, 2))


def test_custom_gate_definition_rejected():
    with pytest.raises(QasmParseError) as exc:
        parse('OPENQASM 2.0; qreg q[1]; gate foo a { x a; } foo q[0];')
    assert "custom gate definitions unsupported" in str(exc.value)


def test_if_rejected():
    result = parse_program('OPENQASM 2.0; qreg q[1]; creg c[1]; if (c==1) x q[0];')
    assert not result.ok
    assert any("control flow" in d.message for d in result.errors())


def test_opaque_rejected():
    result = parse_program("OPENQASM 2.0; qreg q[1]; opaque foo a;")
    assert any("opaque" in d.message for d in result.errors())


def test_unknown_include_rejected():
    result = parse_program('OPENQASM 2.0; include "other.inc"; qreg q[1];')
    assert any("include" in d.message for d in result.errors())


def test_arity_mismatch_rejected():
    result = parse_program("OPENQASM 2.0; qreg q[2]; cz q[0];")
    assert any("expects 2 operand" in d.message for d in result.errors())


def test_param_count_mismatch_rejected():
    result = parse_program("OPENQASM 2.0; qreg q[1]; rz q[0];")
    assert any("parameter" in d.message for d in result.errors())


def test_unknown_gate_rejected():
    result = parse_program("OPENQASM 2.0; qreg q[1]; frobnicate q[0];")
    assert any("unknown gate" in d.message for d in result.errors())


def test_creg_warning():
    result = parse_program("OPENQASM 2.0; qreg q[1]; creg c[1];")
    assert result.ok
    warnings = [d for d in result.diagnostics if d.severity == "warning"]
    assert len(warnings) == 1 and "ignored" in warnings[0].message


def test_missing_version_header():
    result = parse_program("qreg q[1];")
    assert not result.ok


def test_wrong_version_rejected():
    result = parse_program("OPENQASM 3.0; qreg q[1];")
    assert any("version" in d.message for d in result.errors())


def test_diagnostic_positions():
    result = parse_program("OPENQASM 2.0;\nqreg q[1];\nbadgate q[0];\n")
    err = result.errors()[0]
    assert (err.line, err.column) == (3, 1)


@pytest.mark.parametrize("text, expected", [
    ("OPENQASM 2.0;\r\nqreg q[1];\r\nbadgate q[0];\r\n", [(3, 1, "unknown gate 'badgate'")]),
    ("OPENQASM 2.0;\nqreg q[1];\n\tx q[3];\n",
     [(3, 6, "index 3 out of range for register 'q' of size 1")]),
    ("OPENQASM 2.0; // header\nqreg q[1]; // one qubit\nx q[9]; // out of range\n",
     [(3, 5, "index 9 out of range for register 'q' of size 1")]),
    # lexical diagnostics come before the parser's
    ("OPENQASM 2.0;\nqreg q[1];\nfoo q[0]; x @q[0];\n",
     [(3, 13, "unexpected character '@'"), (3, 1, "unknown gate 'foo'")]),
    ("OPENQASM 2.0;\nqreg q[1];\nx q[0]", [(3, 7, "expected ;, found end of input")]),
    ("OPENQASM 2.0;\nqreg q[1];\nx q[0]\n", [(4, 1, "expected ;, found end of input")]),
    ("qreg q[1];", [(1, 1, "expected OPENQASM, found 'qreg'")]),
    ("", [(1, 1, "expected OPENQASM, found end of input")]),
    ("OPENQASM 2.0;\n// only a comment\n", [(1, 1, "program declares no quantum register")]),
    ("OPENQASM 2.0;\r\nqreg q[2];\r\n\tcreg c[1];\r\n  rz(pi/0) q[1];\r\n",
     [(3, 2, "classical register 'c' accepted and ignored"),
      (4, 10, "division by zero in parameter expression")]),
    ("OPENQASM 2.0;\nqreg q[1];\nqreg q[2];\n", [(3, 6, "duplicate register name 'q'")]),
    ("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n  creg c[2];\n",
     [(3, 1, "classical register 'c' accepted and ignored"),
      (4, 8, "duplicate register name 'c'")]),
    # qreg and creg names share one namespace, in either declaration order
    ("OPENQASM 2.0;\nqreg a[2];\ncreg a[1];\nmeasure a[1] -> a[0];\n",
     [(3, 6, "duplicate register name 'a'"), (4, 17, "undeclared classical register 'a'")]),
    ("OPENQASM 2.0;\nqreg q[1];\ncreg a[1];\n  qreg a[2];\n",
     [(3, 1, "classical register 'a' accepted and ignored"),
      (4, 8, "duplicate register name 'a'")]),
    # parameter-expression diagnostics of the grammar, each at its token
    ("OPENQASM 2.0;\nqreg q[1];\n  rz((1 q[0];\n", [(3, 9, "expected ), found 'q'")]),
    ("OPENQASM 2.0;\nqreg q[1];\nrz(1+) q[0];\n",
     [(3, 6, "expected parameter expression, found ')'")]),
    ("OPENQASM 2.0;\nqreg q[1];\nu3(pi,1/0*2,0) q[0];\n",
     [(3, 10, "division by zero in parameter expression")]),
    ("OPENQASM 2.0;\nqreg q[1];\nrz(pi\n\n", [(5, 1, "expected ), found end of input")]),
    ("OPENQASM 2.0;\nqreg q[1];\nrz(" + "(" * 101 + "1" + ")" * 101 + ") q[0];\n",
     [(3, 104, "parameter expression nests parentheses deeper than 100")]),
])
def test_diagnostic_line_and_column(text, expected):
    result = parse_program(text)
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == expected


@given(text=qasm_texts)
@settings(max_examples=500)
def test_parse_program_total_on_any_text(text):
    result = parse_program(text)
    assert result.ok == (not result.errors())
    lines = text.split("\n")
    for d in result.diagnostics:
        assert 1 <= d.line <= len(lines)
        assert 1 <= d.column <= len(lines[d.line - 1]) + 1


def test_multiple_diagnostics_collected():
    result = parse_program("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\nbar q[0];\n")
    assert len(result.errors()) == 2


def test_pi_expressions():
    c = parse("OPENQASM 2.0; qreg q[1]; rz(pi/2) q[0]; rz(3*pi/4) q[0]; rz(-pi) q[0]; u3(0.1,2e-3,pi) q[0];")
    assert c.gates[0].params == (math.pi / 2,)
    assert c.gates[1].params == (3 * math.pi / 4,)
    assert c.gates[2].params == (-math.pi,)
    assert c.gates[3].params == (0.1, 2e-3, math.pi)


def test_register_broadcast_one_qubit_gate():
    c = parse("OPENQASM 2.0; qreg q[4]; x q;")
    assert len(c.gates) == 4
    assert [g.qubits for g in c.gates] == [(0,), (1,), (2,), (3,)]


def test_register_broadcast_two_registers():
    c = parse("OPENQASM 2.0; qreg a[2]; qreg b[2]; cx a,b;")
    assert [g.qubits for g in c.gates] == [(0, 2), (1, 3)]


def test_mixed_broadcast():
    c = parse("OPENQASM 2.0; qreg a[1]; qreg b[3]; cx a[0],b;")
    assert [g.qubits for g in c.gates] == [(0, 1), (0, 2), (0, 3)]


def test_broadcast_length_mismatch():
    result = parse_program("OPENQASM 2.0; qreg a[2]; qreg b[3]; cx a,b;")
    assert any("mismatched register lengths" in d.message for d in result.errors())


def test_measure_single():
    c = parse("OPENQASM 2.0; qreg q[2]; creg c[2]; measure q[1] -> c[1];")
    assert c.gates[-1] == Gate("measure", (1,), (), MEASURE)


def test_measure_broadcast():
    c = parse("OPENQASM 2.0; qreg q[3]; creg c[3]; measure q -> c;")
    assert len(c.gates) == 3
    assert all(g.kind == MEASURE for g in c.gates)


def test_measure_bit_index_out_of_range():
    result = parse_program("OPENQASM 2.0; qreg q[1]; creg c[1]; measure q[0] -> c[5];")
    assert [d.message for d in result.errors()] == ["index 5 out of range for register 'c' of size 1"]


def test_measure_register_to_single_bit_rejected():
    result = parse_program("OPENQASM 2.0; qreg q[3]; creg c[1]; measure q -> c[0];")
    assert [d.message for d in result.errors()] == ["measure operand lengths differ (3 vs 1)"]


def test_measure_registers_of_unequal_size_rejected():
    result = parse_program("OPENQASM 2.0; qreg q[1]; creg c[3]; measure q -> c;")
    assert [d.message for d in result.errors()] == ["measure operand lengths differ (1 vs 3)"]


def test_measure_into_huge_register_rejected_without_allocating_it():
    text = "OPENQASM 2.0; qreg q[1]; creg c[2000000]; measure q -> c;"
    tracemalloc.start()
    try:
        result = parse_program(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [d.message for d in result.errors()] == ["measure operand lengths differ (1 vs 2000000)"]
    assert peak < 2**20


def test_sign_chain_longer_than_recursion_limit():
    n = 2 * sys.getrecursionlimit()
    c = parse("OPENQASM 2.0; qreg q[1]; rz(" + "-" * (n + 1) + "+-" * n + "1) q[0];")
    assert c.gates[0].params == (-1.0,)


def test_parentheses_at_depth_limit_accepted():
    """The expression parser takes three stack frames per parenthesis
    level; the limit here is far below conftest's, so a parser that needs
    more fails."""
    d = MAX_PAREN_DEPTH
    text = "OPENQASM 2.0; qreg q[1]; rz(" + "(" * d + "-pi" + ")" * d + ") q[0];"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 3 * d + 20)
    try:
        c = parse(text)
    finally:
        sys.setrecursionlimit(limit)
    assert c.gates[0].params == (-math.pi,)


def test_parenthesis_depth_restored_after_failed_statements():
    failing = "rz(" + "(" * 60 + "1/0" + ")" * 60 + ") q[0];\n"
    text = ("OPENQASM 2.0;\nqreg q[1];\n" + failing * 2
            + "rz(" + "(" * 60 + "pi" + ")" * 60 + ") q[0];\n")
    result = parse_program(text)
    assert [(d.line, d.message) for d in result.diagnostics] == [
        (3, "division by zero in parameter expression"),
        (4, "division by zero in parameter expression")]


def test_parentheses_nested_deeper_than_recursion_limit_rejected():
    n = 2 * sys.getrecursionlimit()
    text = "OPENQASM 2.0;\nqreg q[1];\nrz(" + "(" * n + "1" + ")" * n + ") q[0];\nx q[0];\n"
    result = parse_program(text)
    # the first '(' past the limit is column 4 + MAX_PAREN_DEPTH of line 3
    assert result.errors() == [ParseDiagnostic(
        3, 4 + MAX_PAREN_DEPTH,
        f"parameter expression nests parentheses deeper than {MAX_PAREN_DEPTH}")]


def test_barrier_flattens_registers():
    c = parse("OPENQASM 2.0; qreg q[3]; barrier q;")
    assert c.gates[0] == Gate("barrier", (0, 1, 2), (), BARRIER)


def test_barrier_dedupes_in_first_seen_order():
    c = parse("OPENQASM 2.0; qreg q[3]; barrier q[2],q,q[0];")
    assert c.gates[0] == Gate("barrier", (2, 0, 1), (), BARRIER)


def test_delay_with_duration():
    c = parse("OPENQASM 2.0; qreg q[1]; delay(1.5e-7) q[0];")
    assert c.gates[0] == Gate("delay", (0,), (1.5e-7,), DELAY)


def test_delay_without_duration():
    c = parse("OPENQASM 2.0; qreg q[1]; delay q[0];")
    assert c.gates[0].kind == DELAY
    assert c.gates[0].params == ()


def test_out_of_range_register_index():
    result = parse_program("OPENQASM 2.0; qreg q[2]; x q[5];")
    assert any("out of range" in d.message for d in result.errors())


@pytest.mark.parametrize("text, column", [
    ("OPENQASM 2.0; qreg q[1]; creg c[100000000000000000000]; measure q -> c;", 33),
    ("OPENQASM 2.0; qreg q[100000000000000000000]; qreg r[2]; cx q,r;", 22),
])
def test_register_larger_than_limit_rejected_at_its_size(text, column):
    first = parse_program(text).errors()[0]
    assert (first.line, first.column, first.message) == (
        1, column, f"register size 100000000000000000000 is larger than {MAX_REGISTER_SIZE}")


def test_register_at_size_limit_accepted():
    c = parse(f"OPENQASM 2.0; qreg q[{MAX_REGISTER_SIZE}]; x q[{MAX_REGISTER_SIZE - 1}];")
    assert c.num_qubits == MAX_REGISTER_SIZE
    assert c.gates[0].qubits == (MAX_REGISTER_SIZE - 1,)


def test_integer_literal_of_any_length_gives_a_diagnostic():
    """``int`` refuses literals over 4300 digits; these are just too large."""
    digits = "9" * 5000
    text = f"OPENQASM 2.0; qreg q[{digits}]; qreg r[2]; x r[{digits}];"
    result = parse_program(text)
    assert [(d.column, d.message) for d in result.errors()] == [
        (22, f"register size {digits} is larger than {MAX_REGISTER_SIZE}"),
        (text.rindex(digits) + 1, f"index {digits} out of range for register 'r' of size 2")]


@pytest.mark.parametrize("text, column, digit", [
    ("OPENQASM 2.0; qreg q[\u0663]; x q[0];", 22, "\u0663"),
    ("OPENQASM 2.0; qreg q[3]; x q[\u0662];", 30, "\u0662"),
    ("OPENQASM 2.0; qreg q[3]; rz(\u0661) q[2];", 29, "\u0661"),
    ("OPENQASM 2.0; qreg q[3]; rz(1.5e\u0663) q[2];", 33, "\u0663"),
    ("OPENQASM 2.0; qreg q[3]; rz(1\uff15) q[2];", 30, "\uff15"),
], ids=["register-size", "index", "parameter", "exponent", "fullwidth"])
def test_non_ascii_digit_is_an_unexpected_character(text, column, digit):
    """OpenQASM 2.0 digits are ASCII; another script's decimal digit is
    neither read as a number nor skipped."""
    result = parse_program(text)
    assert not result.ok
    assert (result.errors()[0].column, result.errors()[0].message) == (
        column, f"unexpected character {digit!r}")


def test_undeclared_register():
    result = parse_program("OPENQASM 2.0; qreg q[2]; x r[0];")
    assert any("undeclared" in d.message for d in result.errors())


def test_flattened_register_offsets():
    c = parse("OPENQASM 2.0; qreg a[2]; qreg b[2]; x b[0];")
    assert c.gates[0].qubits == (2,)


def test_comments_ignored():
    c = parse("OPENQASM 2.0; // header\nqreg q[1]; // reg\nx q[0]; // gate\n")
    assert len(c.gates) == 1


def test_names_not_normalized():
    c = parse("OPENQASM 2.0; qreg q[2]; cx q[0],q[1]; ecr q[0],q[1];")
    assert [g.name for g in c.gates] == ["cx", "ecr"]


def test_roundtrip_reference():
    c = parse(REF_TEXT)
    assert parse(unparse(c)) == c


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_roundtrip_random_circuits(seed):
    c = random_circuit(random.Random(seed))
    assert parse(unparse(c)) == c


def test_roundtrip_with_measures_and_barriers():
    c = Circuit(3, (
        Gate("h", (0,)),
        Gate("barrier", (0, 1, 2), (), BARRIER),
        Gate("delay", (1,), (2e-8,), DELAY),
        Gate("measure", (2,), (), MEASURE),
    ))
    assert parse(unparse(c)) == c


@pytest.mark.parametrize("expression, value", [("1e400", "inf"), ("1e308*10-1e308*10", "nan")])
def test_unparse_refuses_a_parameter_that_is_not_finite(expression, value):
    """The parser accepts both; OpenQASM 2.0 has no literal for either value."""
    c = parse(f"OPENQASM 2.0; qreg q[1]; x q[0]; rz({expression}) q[0];")
    with pytest.raises(ValueError) as exc:
        unparse(c)
    assert str(exc.value) == (f"gate position 1, 'rz': parameters ({value},) are not all finite; "
                              f"OpenQASM 2.0 has no literal for inf or nan")


def test_deterministic():
    assert parse(REF_TEXT) == parse(REF_TEXT)


def test_bad_characters_come_first_and_once():
    """A statement's tokens are read up to its ';' and past it only in a
    gate body; a character after a header without ';' is read twice."""
    text = "OPENQASM 2.0\nqreg q[2] @;\nx q[0];\nfoo q[1]; $\ngate g a { x a; @ }\n"
    assert [(d.line, d.column, d.message) for d in parse_program(text).diagnostics] == [
        (2, 11, "unexpected character '@'"), (4, 11, "unexpected character '$'"),
        (5, 17, "unexpected character '@'"), (2, 1, "expected ;, found 'qreg'"),
        (4, 1, "unknown gate 'foo'"), (5, 1, "custom gate definitions unsupported")]


@pytest.mark.parametrize("text, column", [
    (f"OPENQASM 2.0; qreg q[{MAX_REGISTER_SIZE}]; x q;", 35),
    (f"OPENQASM 2.0; qreg q[{MAX_REGISTER_SIZE}]; qreg r[1]; cx r[0],q;", 46),
    (f"OPENQASM 2.0; qreg q[{MAX_REGISTER_SIZE}]; creg c[{MAX_REGISTER_SIZE}]; measure q -> c;", 55),
    (f"OPENQASM 2.0; qreg q[{MAX_REGISTER_SIZE}]; barrier q[0],q;", 35),
], ids=["gate", "two-qubit-gate", "measure", "barrier"])
def test_expansion_past_gate_limit_rejected_without_allocating_it(text, column):
    tracemalloc.start()
    try:
        result = parse_program(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    name = text[column - 1:].split()[0]
    assert [(d.column, d.message) for d in result.errors()] == [
        (column, f"{name!r} would expand the program past {MAX_GATES} gates")]
    assert peak < 2**20


@pytest.mark.parametrize("declarations, statement", [
    ("qreg q[{n}];", "u3(1,2,3) q;"),
    ("qreg a[{n}]; qreg b[{n}]; qreg c[{n}];", "ccx a,b,c;"),
], ids=["u3", "ccx"])
def test_broadcast_at_gate_limit_fits_parse_budget(declarations, statement):
    """A one-line broadcast of MAX_GATES gates, its parse's traced peak
    scaled from one of 10,000 gates, stays under 512 MiB."""
    n = 10_000
    text = f"OPENQASM 2.0; {declarations.format(n=n)} {statement}"
    tracemalloc.start()
    try:
        circuit = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(circuit.gates) == n
    assert MAX_GATES * peak / n < 2**29


@pytest.mark.parametrize("statements, ok", [
    ("x q;", True), ("x q; x q[0];", False), ("x q[0]; x q[1]; x q[2]; x q[0];", True),
    ("x q[0]; x q[1]; x q[2]; x q[0]; x q[1];", False), ("measure q -> c;", True),
    ("x q[0]; measure q -> c;", False), ("barrier q;", True), ("barrier q,q[0];", False),
    ("x q[0]; barrier q[0],q[1],q[2];", True), ("x q[0]; x q[1]; barrier q[0],q[1],q[2];", False),
])
def test_gate_limit_counts_every_gate_on_either_path(statements, ok, monkeypatch):
    """With the limit at 4, a gate past it is an error at its statement,
    whether the statement is read by the fast path or the grammar."""
    monkeypatch.setattr(qasm, "MAX_GATES", 4)
    fast, slow = parse_both_ways(f"OPENQASM 2.0; qreg q[4]; creg c[4]; {statements}")
    assert fast == slow
    assert fast.ok == ok
    assert all("past 4 gates" in d.message for d in fast.errors())


def parse_both_ways(text: str):
    """The parse, and the parse in which the statement regex never
    matches, so that the token grammar reads every statement."""
    fast = parse_program(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qasm, "_STATEMENT_RE", re.compile("(?!)"))
        slow = parse_program(text)
    return fast, slow


HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\ncreg c[4];\n'

# One statement per check of the fast path that must leave it to the
# grammar, or read it as the grammar does.
FAST_PATH_HAZARDS = (
    "// cx q[0];", "//sx q[1];", "rz(pi//4) q[0];", "cx q[1],q[1];", "x q[4];", "x r[0];",
    "delay(1,2) q[0];", "rz(1 2) q[0];", "rz(pi pi) q[0];", "rz(.) q[0];", "rz(1/0) q[0];",
    "measure q[0],q[1] -> c[0];", "measure q[0] -> r[0];", "measure(1) q[0] -> c[0];",
    "barrier(1) q[0];", "x q[0] -> c[0];", "cxq[0],q[1];", "x(\xa0) q[0];", "u3(0,0,0,0) q[0];",
    "x() q[0];", "rz(١) q[0];", "rz(1.) q[0];", "rz(-0) q[0];", 'rz("1") q[0];', "x q;",
    "rz(inf) q[0];", "rz(1_0) q[0];", "rz(+-1) q[0];", "rz(1 ) q[0];", "cx q[0] ,\tq [ 1 ] ;",
)


@pytest.mark.parametrize("statement", FAST_PATH_HAZARDS)
def test_fast_path_reads_a_hazard_as_the_grammar_does(statement):
    fast, slow = parse_both_ways(HEADER + statement + "\nx q[0];\n")
    assert fast == slow
    assert repr(fast) == repr(slow)  # equal floats could still differ in sign


LONG_RUNS = (
    "OPENQASM 2.0; qreg q[2]; x q[0];" + "\n" * 200,
    "OPENQASM 2.0;" + " \n" * 200 + 'include "qelib1.inc"; qreg q[2]; creg c[2];'
    + "\t\r\n" * 200 + "x q; measure q -> c;" + " " * 200,
    "OPENQASM 2.0; qreg q[2];" + "// c\n" * 200 + "x q;" + "\n" * 200 + "// end",
)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
@pytest.mark.parametrize("text", LONG_RUNS, ids=["trailing", "before-fallbacks", "comments"])
def test_long_whitespace_runs_parse_in_linear_time(text):
    """A run of whitespace and comments before a statement the regex does
    not read, or before the end, costs time linear in its length: a regex
    that could split the run many ways would take about 2**200 steps."""
    def too_slow(signum, frame):
        raise TimeoutError("parse took over 5 s")

    handler = signal.signal(signal.SIGALRM, too_slow)
    # after 5 s, then every second, failing with the message alone: see
    # test_runs_of_gate_definitions_parse_in_linear_time
    signal.setitimer(signal.ITIMER_REAL, 5, 1)
    try:
        fast, slow = parse_both_ways(text)
    except TimeoutError as timeout:
        signal.setitimer(signal.ITIMER_REAL, 0)
        pytest.fail(str(timeout), pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert fast == slow
    assert fast.ok


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
@pytest.mark.parametrize("n, block", [(20_000, "gate g { }\n"), (4_000, "gate g { }" + " " * 2000 + "\n")],
                         ids=["blocks", "wide-blocks"])
def test_runs_of_gate_definitions_parse_in_linear_time(n, block):
    """A gate definition holds no ';', so one scan reads a run of them up
    to the next statement's ';'; each is tokenized, and looked through for
    a ';', once. Read again after each definition, 20,000 of them would
    take minutes; 4,000 wide ones, with the text up to the ';' sliced and
    hashed as a memo key after each, would take seconds."""
    def too_slow(signum, frame):
        raise TimeoutError("parse took over 5 s")

    text = "OPENQASM 2.0;\nqreg q[1];\n" + block * n + "x q[0];"
    handler = signal.signal(signal.SIGALRM, too_slow)
    # after 5 s, then every second: an exception raised while a dropped
    # generator is finalized is printed and lost, so one alarm may not stop
    # the parse
    signal.setitimer(signal.ITIMER_REAL, 5, 1)
    try:
        fast, slow = parse_both_ways(text)
    except TimeoutError as timeout:
        signal.setitimer(signal.ITIMER_REAL, 0)
        # raised in whatever frame the parse was in, which pytest may fail
        # to render: the test fails with the message alone
        pytest.fail(str(timeout), pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert fast == slow
    assert fast.errors() == [ParseDiagnostic(3 + k, 1, "custom gate definitions unsupported")
                             for k in range(n)]


def test_tokens_kept_past_a_gate_definition_are_not_read_again(monkeypatch):
    """The scan that reads a gate definition reads on to the next ';'. The
    regex path then takes ``x q[0];``, so the grammar, next at ``h q;``,
    must not read the ``x`` again: with the limit at 2 gates, a second
    ``x`` would put ``h q;`` past it."""
    monkeypatch.setattr(qasm, "MAX_GATES", 2)
    fast, slow = parse_both_ways("OPENQASM 2.0;\nqreg q[1];\ngate g { }\nx q[0];\nh q;")
    assert fast == slow
    assert fast.errors() == [ParseDiagnostic(3, 1, "custom gate definitions unsupported")]


# Corpus-style statements as transpilers emit them, and the forms the
# statement fast path must leave to the grammar: a comment, newline or '"'
# inside a statement, whole registers, deep parentheses, division by zero,
# unknown registers and indices out of range.
ANGLES = ("pi", "pi/4", "-pi/2", "3*pi/8", "-(3*pi/4)+0.6981", "0.523599", "-1.5e-3", "0", "+.5", "1.",
          "2 *\n pi", "((-pi))", "١")
ODD_ANGLES = ("pi//4", "pi/0", "pi/(1-1)", "(" * 101 + "1" + ")" * 101, "1e", "pi pi", "", " ", "\xa0", '"', "@")
QUBITS = ("q[0]", "q[1]", "q[3]", "q [ 2 ]", "q[01]", "q", "q[4]", "r[0]", "c[0]", "q[0]//x\n", "q\n[1]")
BITS = ("c[0]", "c[3]", "c", "q[0]", "c[9]")
SEPARATORS = ("\n", " ", "", "\r\n", " // note\n", "\n\t", "\n//")  # the last comments a statement out
JUNK = ("", "@", '"', "//", "\n", ";", "(", ")", "x", "->", ",")

qubit_lists = st.lists(st.sampled_from(QUBITS), min_size=1, max_size=3).map(",".join)
spaces = st.sampled_from((" ", "", "\n"))  # none: the name runs into the operand
corpus_statements = st.one_of(
    st.tuples(st.sampled_from(("u3", "u2", "rz", "delay", "x")),
              st.lists(st.one_of(st.sampled_from(ANGLES), st.sampled_from(ODD_ANGLES)), max_size=4),
              st.sampled_from(QUBITS))
    .map(lambda t: f"{t[0]}({','.join(t[1])}) {t[2]};"),
    st.tuples(st.sampled_from(("cx", "ecr", "ccx", "sx")), spaces, qubit_lists).map("".join).map(lambda s: s + ";"),
    st.tuples(st.just("barrier"), spaces, qubit_lists).map("".join).map(lambda s: s + ";"),
    st.tuples(qubit_lists, st.sampled_from(BITS)).map(lambda t: f"measure {t[0]} -> {t[1]};"),
)


def _corpus_text(parts) -> str:
    statements, junk, at = parts
    body = "".join(sep + s for sep, s in statements)
    at %= len(body) + 1
    return HEADER + body[:at] + junk + body[at:]


corpus_texts = st.tuples(st.lists(st.tuples(st.sampled_from(SEPARATORS), corpus_statements), max_size=12),
                         st.sampled_from(JUNK), st.integers(0, 10**6)).map(_corpus_text)


@given(text=st.one_of(qasm_texts, corpus_texts))
@settings(max_examples=1500)
def test_fast_path_equals_the_grammar(text):
    """Every statement read by one regex match parses as the token grammar
    reads it: the whole result, circuit and ordered diagnostics, is equal
    to the parse in which the statement regex never matches."""
    fast, slow = parse_both_ways(text)
    assert fast == slow
    assert repr(fast) == repr(slow)


CORPUS_SHAPED = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[16];\ncreg c[16];\n'
    "u3(pi/2,-(3*pi/4)+0.6981,0.523599) q[3];\ncx q[3],q[4];\ndelay(2e-07) q[5];\n"
    "u3(pi,-pi/8,0) q[4];\nu3(3*pi/4,pi/2,-2.5) q[15];\ncx q[4],q[12];\nbarrier q[2],q[3],q[4],q[5];\n"
    + "".join(f"measure q[{i}] -> c[{i}];\n" for i in range(16)))


def test_fast_path_reads_every_corpus_statement(monkeypatch):
    """Only the header and the declarations reach the grammar; a slide
    back to the slow path would change no result, only this count."""
    calls = []
    statement = qasm._Parser.parse_statement
    monkeypatch.setattr(qasm._Parser, "parse_statement", lambda self: calls.append(1) or statement(self))
    circuit = parse(CORPUS_SHAPED)
    assert len(calls) == 3  # include, qreg, creg
    assert len(circuit.gates) == 23
    assert circuit.gates[0].params == (math.pi / 2, -(3 * math.pi / 4) + 0.6981, 0.523599)


@given(text=st.one_of(qasm_texts, corpus_texts))
@settings(max_examples=500)
def test_every_accepted_circuit_is_valid(text):
    result = parse_program(text)
    if result.ok:
        assert validate(result.circuit) == []


class ReferenceEvaluator:
    """The parameter-expression evaluator the parser had before its lean
    one: a left-associative chain per precedence level, with one method
    call per token looked at. It reads one piece and gives its value, or
    None where the grammar rejects it."""

    OPERATORS = ({"+": operator.add, "-": operator.sub}, {"*": operator.mul, "/": operator.truediv})

    def __init__(self, text: str):
        self.tokens = [*qasm._tokens(text), qasm._Token("eof", "", len(text))]
        self.i = 0

    def value(self) -> float | None:
        try:
            value = self.expression()
        except ValueError:
            return None
        return value if self.peek().kind == "eof" else None

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expression(self, level: int = 0, depth: int = 0) -> float:
        operators = self.OPERATORS[level]
        inner = level + 1 < len(self.OPERATORS)
        left = self.expression(level + 1, depth) if inner else self.unary(depth)
        while self.peek().kind in operators:
            op = self.advance().kind
            right = self.expression(level + 1, depth) if inner else self.unary(depth)
            if op == "/" and right == 0:
                raise ValueError("division by zero")
            left = operators[op](left, right)
        return left

    def unary(self, depth: int) -> float:
        negate = False
        tok = self.peek()
        while tok.kind in ("+", "-"):
            negate ^= tok.kind == "-"
            self.advance()
            tok = self.peek()
        if tok.kind in ("real", "int"):
            self.advance()
            val = float(tok.text)
        elif tok.kind == "id" and tok.text == "pi":
            self.advance()
            val = math.pi
        elif tok.kind == "(":
            if depth == MAX_PAREN_DEPTH:
                raise ValueError("too deep")
            self.advance()
            val = self.expression(0, depth + 1)
            if self.advance().kind != ")":
                raise ValueError("expected )")
        else:
            raise ValueError("expected parameter expression")
        return -val if negate else val


def assert_read_as_the_reference_reads_it(piece: str):
    """``rz(piece)`` parses, on both paths, to the reference's value of
    the piece, to the bit, and fails where the reference rejects it."""
    want = ReferenceEvaluator(piece).value()
    for result in parse_both_ways(f"OPENQASM 2.0; qreg q[1]; rz({piece}) q[0];"):
        if want is None:
            assert not result.ok
        else:
            assert result.ok, result.diagnostics
            assert [float.hex(p) for p in result.circuit.params[0]] == [float.hex(want)]


EVALUATOR_HAZARDS = (
    "1/0", "1/(pi-pi)", "1/-0.0", "1e308*10", "1e308*10-1e308*10", " -( 3 *\tpi/4 )\n+ 0.6981 ",
    "2*-3", "--pi", "+-1", "-0", "1/3*3", "1-2-3", "8/4/2", "2*3/4*5", "1.5e3", ".5", "1.", "e", ".",
    "(" * MAX_PAREN_DEPTH + "1" + ")" * MAX_PAREN_DEPTH,
    "(" * (MAX_PAREN_DEPTH + 1) + "1" + ")" * (MAX_PAREN_DEPTH + 1),
    "-(" * MAX_PAREN_DEPTH + "pi" + ")/2" * MAX_PAREN_DEPTH,
    "1\x0b2", "١", "\xa0", "p i", "pi_",
)


@pytest.mark.parametrize("piece", EVALUATOR_HAZARDS)
def test_evaluator_reads_a_hazard_as_the_reference_does(piece):
    assert_read_as_the_reference_reads_it(piece)


# pieces as the corpus writes them, and token soup that is often no
# expression at all; no ',', ';', '//' or name but pi, so a rejected piece
# can not make the statement some other valid one, nor a comment eat its end
corpus_pieces = st.one_of(
    st.tuples(st.integers(1, 7), st.sampled_from((2, 4, 8)), st.integers(0, 9999))
    .map(lambda t: f"-({t[0]}*pi/{t[1]})+0.{t[2]:04d}"),
    st.tuples(st.integers(1, 7), st.sampled_from((2, 4, 8))).map(lambda t: f"{t[0]}*pi/{t[1]}"),
    st.floats(-3, 3).map(lambda x: f"{x:.6f}"),
    st.tuples(st.integers(1, 9), st.integers(0, 9), st.integers(-330, 330)).map(lambda t: f"{t[0]}.{t[1]}e{t[2]}"),
)
EXPRESSION_PIECES = ("pi", "0", "2", "1.5", ".5", "3e-2", "1e400", "+", "-", "*", "/", "(", ")", " ", "\t", "e", ".")
token_soup = (st.lists(st.sampled_from(EXPRESSION_PIECES), min_size=1, max_size=12).map("".join)
              .filter(lambda piece: "//" not in piece))


@given(piece=st.one_of(corpus_pieces, token_soup))
@settings(max_examples=1000)
def test_evaluator_equals_the_reference(piece):
    assert_read_as_the_reference_reads_it(piece)


@given(piece=st.one_of(corpus_pieces, token_soup,
                       st.lists(st.one_of(st.sampled_from(EXPRESSION_PIECES),
                                          st.sampled_from(("\x0b", "\xa0", "١", '"', "@", "."))),
                                min_size=1, max_size=12).map("".join)))
@settings(max_examples=500)
def test_the_lexeme_regex_cuts_a_piece_as_the_tokenizer_does(piece):
    """The fast path's ``findall`` gives the texts of the grammar's tokens,
    bad characters included, on every piece without a comment."""
    if "//" not in piece:
        assert qasm._LEXEME_RE.findall(piece) == [t.text for t in qasm._tokens(piece)]


@given(source=st.one_of(qasm_texts, st.integers(0, 10_000)))
@settings(max_examples=500)
def test_columns_and_the_gates_view_agree(source):
    """On a circuit parsed from a drawn text (when it parses), or a random
    circuit built from Gates, the columns are the fields of the cached
    Gate view, and either way of building a circuit gives an equal one."""
    if isinstance(source, int):
        c = random_circuit(random.Random(source), directives=True)
    else:
        c = parse_program(source).circuit
        if c is None:
            return
    columns = (c.names, c.kinds, c.qubits, c.params)
    assert c.gates is c.gates
    assert columns == tuple(tuple(getattr(g, field) for g in c.gates)
                            for field in ("name", "kind", "qubits", "params"))
    for other in (Circuit(c.num_qubits, c.gates), Circuit.from_columns(c.num_qubits, *columns)):
        assert other == c
        assert hash(other) == hash(c)
        assert repr(other) == repr(c)
    assert parse(unparse(c)) == c
    assert validate(c) == []


# The versions of one circuit: one drawn list of statements, declarations
# among them, with other register declarations of drawn sizes and orders put
# in at a drawn place in each version, so that a statement text reads as
# other qubits, or is undeclared or out of range, from version to version.
operands = st.tuples(st.sampled_from("qrcs"), st.integers(0, 4)).map(lambda t: "%s[%d]" % t)
bits = st.tuples(st.sampled_from("crs"), st.integers(0, 4)).map(lambda t: "%s[%d]" % t)
declarations = st.sampled_from(("qreg q[2];", "qreg q[4];", "qreg r[1];", "qreg r[3];", "creg c[1];",
                                "creg c[4];", "creg r[2];"))
layout_statements = st.one_of(
    declarations,
    st.tuples(st.sampled_from(("x", "rz(pi/2)", "delay(2e-7)", "rz(1/0)")), operands)
    .map(lambda t: "%s %s;" % t),
    st.tuples(st.sampled_from(("cx", "ecr")), operands, operands).map(lambda t: "%s %s,%s;" % t),
    st.lists(operands, min_size=1, max_size=3).map(lambda ops: f"barrier {','.join(ops)};"),
    st.tuples(operands, bits).map(lambda t: "measure %s -> %s;" % t),
)


def _versions(drawn) -> list[str]:
    body, layouts = drawn
    texts = []
    for registers, at in layouts:
        parts = [sep + statement for sep, statement in body]
        at %= len(parts) + 1
        parts[at:at] = ["\n" + declaration for declaration in registers]
        texts.append("OPENQASM 2.0;" + "".join(parts))
    return texts


versions = st.tuples(st.lists(st.tuples(st.sampled_from(SEPARATORS), layout_statements), max_size=12),
                     st.lists(st.tuples(st.lists(declarations, max_size=3), st.integers(0, 12)),
                              min_size=1, max_size=4)).map(_versions)


@given(texts=st.tuples(versions, st.lists(st.one_of(corpus_texts, qasm_texts), max_size=2))
       .map(lambda t: t[0] + t[1]).flatmap(st.permutations))
@example(texts=["OPENQASM 2.0;\nqreg q[3];\nx q[2];", "OPENQASM 2.0;\nqreg a[1];\nqreg q[3];\nx q[2];"])
@example(texts=["OPENQASM 2.0;\nqreg q[2];\ncreg c[4];\nmeasure q[0] -> c[3];",
                "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q[0] -> c[3];"])
@example(texts=["OPENQASM 2.0;\nqreg q[1];x q[0];", "OPENQASM 2.0;\nqreg q[1];// a; b\nx q[0];"])
@example(texts=["OPENQASM 2.0;\nqreg q[1]; // note\nx q[0];", "OPENQASM 2.0;\nqreg q[1]; // note\nx q[0];"])
@example(texts=["OPENQASM 2.0;\nqreg q[1];x q[0];", "OPENQASM 2.0;\nqreg q[1];//x q[0];\nx q[0];"])
@settings(max_examples=500)
def test_a_shared_statement_memo_parses_each_text_as_it_parses_alone(texts):
    """Texts parsed in turn with one ``statements`` dict, which each parse
    reads and adds to, give the results they give parsed alone: the same
    circuit columns and the same diagnostics."""
    statements = {}
    for text in texts:
        alone, shared = parse_program(text), parse_program(text, statements)
        assert shared.diagnostics == alone.diagnostics
        assert shared.circuit == alone.circuit
        assert repr(shared) == repr(alone)  # equal floats could still differ in sign


def test_a_remembered_barrier_is_charged_its_listed_operands(monkeypatch):
    """A barrier read from the memo counts both operands it lists, as on
    its first read: after two barriers of one gate each, the third
    ``barrier q[0],q[0];`` passes a limit of 3 gates (counted once, it
    would not), and gets the grammar's diagnostic at its line and column."""
    monkeypatch.setattr(qasm, "MAX_GATES", 3)
    head = "OPENQASM 2.0;\nqreg q[2];"
    statements = {}
    assert parse_program(head + "\nbarrier q[0],q[0];", statements).ok
    taken = []
    take = qasm._Parser.take
    monkeypatch.setattr(qasm._Parser, "take", lambda self, m: taken.append(m.group(1)) or take(self, m))
    text = head + "\nbarrier q[0],q[0];" * 3
    shared = parse_program(text, statements)
    assert taken == ["qreg"]  # the regex matches the declaration too; every barrier was a memo hit
    assert shared.errors() == [ParseDiagnostic(5, 1, "'barrier' would expand the program past 3 gates")]
    assert shared == parse_program(text) == parse_both_ways(text)[1]


class CountingRegex:
    """A compiled regex whose ``match`` calls are counted."""

    def __init__(self, regex: re.Pattern):
        self.regex = regex
        self.calls = 0

    def match(self, *args):
        self.calls += 1
        return self.regex.match(*args)


def test_a_remembered_statement_is_not_matched(monkeypatch):
    """The memo is asked before the statement regex runs: a second
    version parsed with the first's memo matches only the statements the
    memo cannot hold, the include and the two register declarations. Its
    last line has a comment before one statement and two statements."""
    text = CORPUS_SHAPED + " // note\nx q[0]; x q[1];\n"
    statements = {}
    first = parse_program(text, statements)
    counting = CountingRegex(qasm._STATEMENT_RE)
    monkeypatch.setattr(qasm, "_STATEMENT_RE", counting)
    second = parse_program(text, statements)
    assert counting.calls == 3
    assert second == first
    assert len(second.circuit.gates) == 25


class CountingStatements(dict):
    """A ``statements`` dict whose memos record every key they are asked."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def setdefault(self, layout, memo):
        if layout not in self:
            self[layout] = CountingMemo(self.asked)
        return self[layout]


class CountingMemo(dict):
    def __init__(self, asked):
        super().__init__()
        self.asked = asked

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


def test_a_statement_missed_by_the_memo_is_asked_once():
    """A miss whose match ends at the ';' the probe found is not asked
    again: its text is the probe's key. One after a comment that holds a
    ';' is asked again, by its matched text. A remembered statement is one
    lookup, as is the text past the last ';'."""
    text = "OPENQASM 2.0;\nqreg q[2];\nx q[0];\nx q[1];\n// a; b\nx q[0];\ncx q[0],q[1];\n"
    once = ["\nqreg q[2];", "\nx q[0];", "\nx q[1];", "\n// a;", "\n// a; b\nx q[0];",
            "\ncx q[0],q[1];", "\n"]
    statements = CountingStatements()
    first = parse_program(text, statements)
    assert statements.asked == once
    assert first == parse_program(text) and first.ok and len(first.circuit.gates) == 4
    statements.asked.clear()  # every statement the memo can hold is now a hit
    assert parse_program(text, statements) == first
    assert statements.asked == once
