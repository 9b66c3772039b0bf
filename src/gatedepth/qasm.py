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
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        expected = what or (text or kind)
        self.error(tok, f"expected {expected}, found {tok.text!r}" if tok.text else f"expected {expected}, found end of input")
        return None

    def comma_list(self, item: Callable[[], object]) -> list | None:
        """Parse ``item (',' item)*``; None as soon as an item fails."""
        items = []
        while True:
            value = item()
            if value is None:
                return None
            items.append(value)
            if not self.accept(","):
                return items

    def skip_statement(self):
        """Recover by skipping to just past the next ';'."""
        while self.advance().kind not in ("eof", ";"):
            pass

    # --- grammar -------------------------------------------------------
    def parse_program(self):
        self.parse_header()
        while self.peek().kind != "eof":
            self.parse_statement()

    def parse_header(self):
        if self.expect("id", "OPENQASM") is None:
            self.skip_statement()
            return
        tok = self.peek()
        if tok.kind == "real" and tok.text == "2.0":
            self.advance()
        else:
            self.error(tok, f"unsupported OPENQASM version {tok.text!r}; only 2.0 is supported")
            self.skip_statement()
            return
        self.expect(";")

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "id":
            self.error(tok, f"expected statement, found {tok.text!r}")
            self.skip_statement()
            return
        if tok.text in _REJECTED_KEYWORDS:
            self.error(tok, _REJECTED_KEYWORDS[tok.text])
            self.skip_rejected(tok.text)
            return
        if tok.text == "include":
            self.parse_include()
        elif tok.text == "qreg":
            self.parse_qreg()
        elif tok.text == "creg":
            self.parse_creg()
        elif tok.text == "measure":
            self.parse_measure()
        elif tok.text == "barrier":
            self.parse_barrier()
        else:
            self.parse_gate_application()

    def skip_rejected(self, keyword: str):
        # gate definitions span a {...} block; other constructs end at ';'
        if keyword == "gate":
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
        else:
            self.skip_statement()

    def parse_include(self):
        self.advance()
        tok = self.expect("string", what="include file name")
        if tok is not None and tok.text != '"qelib1.inc"':
            self.error(tok, f"unknown include file {tok.text}; only \"qelib1.inc\" is supported")
        self.expect(";")

    def parse_register_decl(self) -> tuple[_Token, int] | None:
        name = self.expect("id", what="register name")
        if name is None or self.expect("[") is None:
            self.skip_statement()
            return None
        size = self.expect("int", what="register size")
        if size is None or self.expect("]") is None or self.expect(";") is None:
            self.skip_statement()
            return None
        n = _int_literal(size.text)
        if n is None:
            self.error(size, f"register size {size.text} is larger than {MAX_REGISTER_SIZE}")
            return None
        if n < 1:
            self.error(size, f"register size must be positive, got {n}")
            return None
        return name, n

    def parse_qreg(self):
        self.advance()
        decl = self.parse_register_decl()
        if decl is None:
            return
        name, n = decl
        if name.text in self.qregs:
            self.error(name, f"duplicate register name {name.text!r}")
            return
        self.qregs[name.text] = (self.num_qubits, n)
        self.num_qubits += n

    def parse_creg(self):
        tok = self.advance()
        decl = self.parse_register_decl()
        if decl is None:
            return
        name, n = decl
        self.cregs[name.text] = (0, n)
        self.error(tok, f"classical register {name.text!r} accepted and ignored", severity="warning")

    def parse_operand(self, classical: bool = False) -> range | None:
        """Parse ``name`` or ``name[i]``; return flattened qubit (or bit) indices."""
        name = self.expect("id", what="operand")
        if name is None:
            return None
        idx = None
        if self.accept("["):
            idx = self.expect("int", what="qubit index")
            if idx is None or self.expect("]") is None:
                return None
        regs = self.cregs if classical else self.qregs
        if name.text not in regs:
            kind = "classical register" if classical else "register"
            self.error(name, f"undeclared {kind} {name.text!r}")
            return None
        offset, size = regs[name.text]
        if idx is None:  # whole register
            return range(offset, offset + size)
        k = _int_literal(idx.text)
        if k is None or k >= size:
            self.error(idx, f"index {idx.text if k is None else k} out of range "
                            f"for register {name.text!r} of size {size}")
            return None
        return range(offset + k, offset + k + 1)

    def parse_measure(self):
        tok = self.advance()
        src = self.parse_operand()
        if src is None or self.expect("->", what="'->'") is None:
            self.skip_statement()
            return
        dst = self.parse_operand(classical=True)
        if dst is None or self.expect(";") is None:
            self.skip_statement()
            return
        if len(dst) != len(src):
            self.error(tok, f"measure operand lengths differ ({len(src)} vs {len(dst)})")
            return
        for q in src:
            self.gates.append(Gate("measure", (q,), (), MEASURE))

    def parse_barrier(self):
        self.advance()
        operands = self.comma_list(self.parse_operand)
        if operands is None or self.expect(";") is None:
            self.skip_statement()
            return
        # duplicate operands would be rejected by validate(); dedupe preserving order
        qubits = tuple(dict.fromkeys(q for op in operands for q in op))
        self.gates.append(Gate("barrier", qubits, (), BARRIER))

    def parse_gate_application(self):
        name = self.advance()
        gate_name = name.text
        params: list[float] | None = []
        if self.accept("("):
            if self.peek().kind != ")":
                params = self.comma_list(self.parse_additive)
            if params is None or self.expect(")") is None:
                self.skip_statement()
                return

        if gate_name == "delay":
            arity, nparams = 1, len(params)
            if len(params) > 1:
                self.error(name, f"delay takes at most one parameter, got {len(params)}")
                self.skip_statement()
                return
        elif gate_name in BUILTIN_GATES:
            arity, nparams = BUILTIN_GATES[gate_name]
        else:
            self.error(name, f"unknown gate {gate_name!r}")
            self.skip_statement()
            return

        if gate_name != "delay" and len(params) != nparams:
            self.error(name, f"gate {gate_name!r} takes {nparams} parameter(s), got {len(params)}")
            self.skip_statement()
            return

        operands = self.comma_list(self.parse_operand)
        if operands is None or self.expect(";") is None:
            self.skip_statement()
            return

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
    def parse_additive(self) -> float | None:
        left = self.parse_multiplicative()
        if left is None:
            return None
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            right = self.parse_multiplicative()
            if right is None:
                return None
            left = left + right if op == "+" else left - right
        return left

    def parse_multiplicative(self) -> float | None:
        left = self.parse_unary()
        if left is None:
            return None
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            right = self.parse_unary()
            if right is None:
                return None
            if op == "/":
                if right == 0:
                    self.error(self.peek(), "division by zero in parameter expression")
                    return None
                left = left / right
            else:
                left = left * right
        return left

    def parse_unary(self) -> float | None:
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
                self.error(tok, f"parameter expression nests parentheses deeper than {MAX_PAREN_DEPTH}")
                return None
            self.advance()
            self.paren_depth += 1
            val = self.parse_additive()
            self.paren_depth -= 1
            if val is None or self.expect(")") is None:
                return None
        else:
            self.error(tok, f"expected parameter expression, found {tok.text!r}")
            return None
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
