"""OpenQASM 2.0 subset frontend.

Supports the dialect emitted by mainstream transpilers: version header,
``include "qelib1.inc";``, quantum/classical register declarations, gate
applications with pi-expression parameters, measure, and barrier. Custom
gate definitions, opaque declarations, and classical control flow are
rejected with diagnostics. Classical registers are accepted and ignored
with a warning.

Gate names are taken at face value: "cx" is never rewritten to "ecr" or
vice versa, so weight maps and duration tables must be keyed by the names
appearing in the file.
"""
from __future__ import annotations

import bisect
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, NoReturn

from .ir import BARRIER, DELAY, MEASURE, UNITARY, Circuit, Gate

# name -> (qubit arity, parameter count). Delay allows 0 or 1 params.
BUILTIN_GATES: dict[str, tuple[int, int]] = {
    "u0": (1, 1), "u1": (1, 1), "u2": (1, 2), "u3": (1, 3), "u": (1, 3),
    "p": (1, 1), "id": (1, 0), "x": (1, 0), "y": (1, 0), "z": (1, 0),
    "h": (1, 0), "s": (1, 0), "sdg": (1, 0), "t": (1, 0), "tdg": (1, 0),
    "sx": (1, 0), "sxdg": (1, 0), "rx": (1, 1), "ry": (1, 1), "rz": (1, 1),
    "cx": (2, 0), "cy": (2, 0), "cz": (2, 0), "ch": (2, 0), "ecr": (2, 0),
    "swap": (2, 0), "iswap": (2, 0), "csx": (2, 0),
    "crx": (2, 1), "cry": (2, 1), "crz": (2, 1), "cp": (2, 1), "cu1": (2, 1),
    "cu3": (2, 3), "rxx": (2, 1), "ryy": (2, 1), "rzz": (2, 1), "rzx": (2, 1),
    "ccx": (3, 0), "ccz": (3, 0), "cswap": (3, 0),
}

# deepest parenthesis nesting accepted in a parameter expression; the
# expression parser recurses once per level
MAX_PAREN_DEPTH = 100
# largest register a declaration may have, so register and operand lengths
# stay within sys.maxsize
MAX_REGISTER_SIZE = 2**31 - 1

_REJECTED_KEYWORDS = {
    "gate": "custom gate definitions unsupported",
    "opaque": "opaque declarations unsupported",
    "if": "classical control flow unsupported",
    "reset": "reset unsupported",
    "for": "loops unsupported",
    "while": "loops unsupported",
}

# binary operators of parameter expressions, loosest first
_BINARY_OPERATORS = (
    {"+": operator.add, "-": operator.sub},
    {"*": operator.mul, "/": operator.truediv},
)


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass
class ParseResult:
    """Outcome of a parse: a circuit on success, diagnostics either way."""

    circuit: Circuit | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.circuit is not None

    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


class QasmParseError(ValueError):
    """Raised by :func:`parse` when the input has error diagnostics."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


# Tokens carry their kind, text and character offset; line and column are
# worked out from the offset only when a diagnostic needs them. A symbol's
# kind is its own text ("->" included), so the parser tests ``kind == ";"``;
# the other kinds are "real", "int", "id", "string" and "eof".
_TOKEN_RE = re.compile(
    r"""
    (?P<skip>[ \t\r\n]+|//[^\n]*)
  | (?P<real>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<symbol>->|[;,()\[\]{}*/+\-])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int


def _int_literal(text: str) -> int | None:
    """The value of a decimal literal, or None if it is larger than
    MAX_REGISTER_SIZE; digits are counted first, since ``int`` refuses
    literals of more than 4300 digits."""
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_REGISTER_SIZE)) or int(digits) > MAX_REGISTER_SIZE:
        return None
    return int(digits)


class _Skip(Exception):
    """A statement failed; its diagnostic is recorded and the parser skips
    to just past the next ';'."""


class _Parser:
    def __init__(self, text: str):
        self.newlines = [m.start() for m in re.finditer("\n", text)]
        self.diags: list[ParseDiagnostic] = []
        self.tokens: list[_Token] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "skip":
                continue
            tok = _Token(m.group() if kind == "symbol" else kind, m.group(), m.start())
            if kind == "bad":
                self.error(tok, f"unexpected character {tok.text!r}")
            else:
                self.tokens.append(tok)
        self.tokens.append(_Token("eof", "", len(text)))
        self.i = 0
        # name -> (offset, size); classical bits are not kept, so cregs' offsets are 0
        self.qregs: dict[str, tuple[int, int]] = {}
        self.cregs: dict[str, tuple[int, int]] = {}
        self.num_qubits = 0
        self.gates: list[Gate] = []
        self.paren_depth = 0

    # --- token helpers -------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def accept(self, kind: str) -> bool:
        if self.tokens[self.i].kind == kind:
            self.i += 1
            return True
        return False

    def error(self, tok: _Token, message: str, severity: str = "error"):
        line = bisect.bisect_left(self.newlines, tok.offset)
        line_start = self.newlines[line - 1] + 1 if line else 0
        self.diags.append(ParseDiagnostic(line + 1, tok.offset - line_start + 1, message, severity))

    def fail(self, tok: _Token, message: str) -> NoReturn:
        """Record an error at ``tok`` and give up on the statement."""
        self.error(tok, message)
        raise _Skip

    def expected(self, what: str):
        """Record that ``what`` was expected at the next token."""
        tok = self.peek()
        self.error(tok, f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}, found end of input")

    def expect(self, kind: str, what: str | None = None) -> _Token:
        if self.tokens[self.i].kind == kind:
            return self.advance()
        self.expected(what or kind)
        raise _Skip

    def comma_list(self, item: Callable[[], object]) -> list:
        """Parse ``item (',' item)*``."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def recover(self, parse_one: Callable[[], None]):
        """Run ``parse_one``; if it fails, skip to just past the next ';'."""
        try:
            parse_one()
        except _Skip:
            self.paren_depth = 0
            while self.advance().kind not in ("eof", ";"):
                pass

    # --- grammar -------------------------------------------------------
    def parse_program(self):
        self.recover(self.parse_header)
        while self.peek().kind != "eof":
            self.recover(self.parse_statement)

    def parse_header(self):
        if self.peek().text != "OPENQASM":
            self.expected("OPENQASM")
            raise _Skip
        self.advance()
        tok = self.peek()
        if tok.text != "2.0":
            self.fail(tok, f"unsupported OPENQASM version {tok.text!r}; only 2.0 is supported")
        self.advance()
        if not self.accept(";"):
            self.expected(";")

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "id":
            self.fail(tok, f"expected statement, found {tok.text!r}")
        if tok.text == "gate":
            self.error(tok, _REJECTED_KEYWORDS["gate"])
            self.skip_gate_definition()
        elif tok.text in _REJECTED_KEYWORDS:
            self.fail(tok, _REJECTED_KEYWORDS[tok.text])
        elif tok.text == "include":
            self.parse_include()
        elif tok.text in ("qreg", "creg"):
            self.parse_register()
        elif tok.text == "measure":
            self.parse_measure()
        elif tok.text == "barrier":
            self.parse_barrier()
        else:
            self.parse_gate_application()

    def skip_gate_definition(self):
        # a gate definition spans a {...} block, not a statement
        depth = 0
        while True:
            tok = self.advance()
            if tok.kind == "eof":
                return
            if tok.kind == "{":
                depth += 1
            elif tok.kind == "}":
                depth -= 1
                if depth <= 0:
                    return

    def parse_include(self):
        self.advance()
        tok = self.peek()
        if not self.accept("string"):
            self.expected("include file name")
        elif tok.text != '"qelib1.inc"':
            self.error(tok, f"unknown include file {tok.text}; only \"qelib1.inc\" is supported")
        if not self.accept(";"):
            self.expected(";")

    def parse_register(self):
        keyword = self.advance()
        name = self.expect("id", "register name")
        self.expect("[")
        size = self.expect("int", "register size")
        self.expect("]")
        self.expect(";")
        n = _int_literal(size.text)
        if n is None:
            self.error(size, f"register size {size.text} is larger than {MAX_REGISTER_SIZE}")
        elif n < 1:
            self.error(size, f"register size must be positive, got {n}")
        elif name.text in self.qregs or name.text in self.cregs:  # one namespace
            self.error(name, f"duplicate register name {name.text!r}")
        elif keyword.text == "qreg":
            self.qregs[name.text] = (self.num_qubits, n)
            self.num_qubits += n
        else:
            self.cregs[name.text] = (0, n)
            self.error(keyword, f"classical register {name.text!r} accepted and ignored", severity="warning")

    def parse_operand(self, classical: bool = False) -> range:
        """Parse ``name`` or ``name[i]``; return flattened qubit (or bit) indices."""
        name = self.expect("id", "operand")
        idx = None
        if self.accept("["):
            idx = self.expect("int", "qubit index")
            self.expect("]")
        regs = self.cregs if classical else self.qregs
        if name.text not in regs:
            kind = "classical register" if classical else "register"
            self.fail(name, f"undeclared {kind} {name.text!r}")
        offset, size = regs[name.text]
        if idx is None:  # whole register
            return range(offset, offset + size)
        k = _int_literal(idx.text)
        if k is None or k >= size:
            self.fail(idx, f"index {idx.text if k is None else k} out of range "
                           f"for register {name.text!r} of size {size}")
        return range(offset + k, offset + k + 1)

    def parse_measure(self):
        tok = self.advance()
        src = self.parse_operand()
        self.expect("->", "'->'")
        dst = self.parse_operand(classical=True)
        self.expect(";")
        if len(dst) != len(src):
            self.error(tok, f"measure operand lengths differ ({len(src)} vs {len(dst)})")
            return
        for q in src:
            self.gates.append(Gate("measure", (q,), (), MEASURE))

    def parse_barrier(self):
        self.advance()
        operands = self.comma_list(self.parse_operand)
        self.expect(";")
        # duplicate operands would be rejected by validate(); dedupe preserving order
        qubits = tuple(dict.fromkeys(q for op in operands for q in op))
        self.gates.append(Gate("barrier", qubits, (), BARRIER))

    def parse_gate_application(self):
        name = self.advance()
        gate_name = name.text
        params: list[float] = []
        if self.accept("("):
            if self.peek().kind != ")":
                params = self.comma_list(self.parse_expression)
            self.expect(")")

        if gate_name == "delay":
            arity, nparams = 1, len(params)
            if len(params) > 1:
                self.fail(name, f"delay takes at most one parameter, got {len(params)}")
        elif gate_name in BUILTIN_GATES:
            arity, nparams = BUILTIN_GATES[gate_name]
        else:
            self.fail(name, f"unknown gate {gate_name!r}")

        if len(params) != nparams:
            self.fail(name, f"gate {gate_name!r} takes {nparams} parameter(s), got {len(params)}")

        operands = self.comma_list(self.parse_operand)
        self.expect(";")

        if len(operands) != arity:
            self.error(name, f"gate {gate_name!r} expects {arity} operand(s), got {len(operands)}")
            return

        # register broadcasting: all multi-qubit operands must share a length;
        # length-1 operands broadcast against them
        lengths = {len(op) for op in operands if len(op) > 1}
        if len(lengths) > 1:
            self.error(name, f"mismatched register lengths {sorted(lengths)} in broadcast")
            return
        width = lengths.pop() if lengths else 1
        kind = DELAY if gate_name == "delay" else UNITARY
        for k in range(width):
            qubits = tuple(op[k] if len(op) > 1 else op[0] for op in operands)
            if len(set(qubits)) != len(qubits):
                self.error(name, f"gate {gate_name!r} applied to duplicate qubits {list(qubits)}")
                return
            self.gates.append(Gate(gate_name, qubits, tuple(params), kind))

    # --- pi-expression evaluation (precedence: unary -, * /, + -) ------
    def parse_expression(self, level: int = 0) -> float:
        """Parse a left-associative chain of the operators of
        ``_BINARY_OPERATORS[level]``; its operands are chains of the next
        level, and unary terms after the last. Each parenthesis level costs
        three stack frames: this method twice and ``parse_unary``."""
        operators = _BINARY_OPERATORS[level]
        inner = level + 1 < len(_BINARY_OPERATORS)
        left = self.parse_expression(level + 1) if inner else self.parse_unary()
        while self.peek().kind in operators:
            op = self.advance().kind
            right = self.parse_expression(level + 1) if inner else self.parse_unary()
            if op == "/" and right == 0:
                self.fail(self.peek(), "division by zero in parameter expression")
            left = operators[op](left, right)
        return left

    def parse_unary(self) -> float:
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
            if self.paren_depth == MAX_PAREN_DEPTH:
                self.fail(tok, f"parameter expression nests parentheses deeper than {MAX_PAREN_DEPTH}")
            self.advance()
            self.paren_depth += 1
            val = self.parse_expression()
            self.paren_depth -= 1
            self.expect(")")
        else:
            self.fail(tok, f"expected parameter expression, found {tok.text!r}")
        return -val if negate else val


def parse_program(text: str) -> ParseResult:
    """Parse QASM text, returning the circuit (or None) plus all diagnostics."""
    parser = _Parser(text)
    parser.parse_program()
    diags = parser.diags
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)
    if parser.num_qubits == 0:
        diags.append(ParseDiagnostic(1, 1, "program declares no quantum register"))
        return ParseResult(None, diags)
    return ParseResult(Circuit(parser.num_qubits, tuple(parser.gates)), diags)


def parse(text: str) -> Circuit:
    """Parse QASM text; raise :class:`QasmParseError` on any error."""
    result = parse_program(text)
    if result.circuit is None:
        raise QasmParseError(result.errors())
    return result.circuit


def parse_file(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def unparse(circuit: Circuit) -> str:
    """Emit QASM text that reparses to a structurally equal circuit."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if any(g.kind == MEASURE for g in circuit.gates):
        lines.append(f"creg c[{circuit.num_qubits}];")
    for g in circuit.gates:
        operands = ",".join(f"q[{q}]" for q in g.qubits)
        if g.kind == MEASURE:
            lines.append(f"measure q[{g.qubits[0]}] -> c[{g.qubits[0]}];")
        elif g.kind == BARRIER:
            lines.append(f"barrier {operands};")
        elif g.params:
            params = ",".join(repr(p) for p in g.params)
            lines.append(f"{g.name}({params}) {operands};")
        else:
            lines.append(f"{g.name} {operands};")
    return "\n".join(lines) + "\n"
