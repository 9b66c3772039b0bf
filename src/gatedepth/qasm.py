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

Most statements of a transpiled file are a builtin gate, a measure or a
barrier on indexed qubits. Each is read by one regex match at its offset
and kept only if the token grammar would accept it as it stands; every
other statement, and every diagnostic, comes from the grammar, which
tokenizes only the statements it reads. A statement kept is remembered by
its matched text under the registers declared so far, so each distinct
statement is read once; parses given one ``statements`` dict, such as the
compiled versions of one circuit, share what they remember.

A repeat is one dict lookup: the memo is asked with the text up to the
next ';' before any regex runs. The regex reads a ';' only as its last
character or inside a leading comment, which runs to the end of its line,
so a remembered text with one ';' reads the same wherever it stands under
the same registers; one whose comment holds a ';' is only found by the
match.
"""
from __future__ import annotations

import bisect
import math
import re
from typing import Callable, Iterator, NamedTuple, NoReturn

from .ir import BARRIER, DELAY, MEASURE, UNITARY, Circuit

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

# deepest parenthesis nesting accepted in a parameter expression
MAX_PAREN_DEPTH = 100
# largest register a declaration may have, so register and operand lengths
# stay within sys.maxsize
MAX_REGISTER_SIZE = 2**31 - 1
# most gates a program may expand to, checked before a whole-register
# operand is expanded; a barrier counts once per qubit operand it lists,
# since it holds them all
MAX_GATES = 10**6

_REJECTED_KEYWORDS = {
    "gate": "custom gate definitions unsupported",
    "opaque": "opaque declarations unsupported",
    "if": "classical control flow unsupported",
    "reset": "reset unsupported",
    "for": "loops unsupported",
    "while": "loops unsupported",
}


class ParseDiagnostic(NamedTuple):
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class _ParseResultFields(NamedTuple):
    circuit: Circuit | None
    diagnostics: list[ParseDiagnostic]


class ParseResult(_ParseResultFields):
    """Outcome of a parse: a circuit on success, diagnostics either way."""

    __slots__ = ()

    def __new__(cls, circuit: Circuit | None, diagnostics: list[ParseDiagnostic] | None = None):
        return tuple.__new__(cls, (circuit, [] if diagnostics is None else diagnostics))

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
# the other kinds are "real", "int", "id", "string", "bad" and "eof".
# (kind, pattern) of each token both regexes below read, in the order tried
_LEXICON = (
    ("real", r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+"),
    ("int", r"\d+"),
    ("id", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("string", r'"[^"\n]*"'),
    ("symbol", r"->|[;,()\[\]{}*/+\-]"),
)
_TOKEN_RE = re.compile(
    "|".join([r"(?P<skip>[ \t\r\n]+|//[^\n]*)",
              *(f"(?P<{kind}>{pattern})" for kind, pattern in _LEXICON), r"(?P<bad>.)"]),
    re.ASCII,  # OpenQASM 2.0 digits are ASCII: any other is a bad character
)


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int


def _tokens(text: str, offset: int = 0) -> Iterator[_Token]:
    """The tokens of ``text`` from ``offset``, whitespace and comments left out."""
    new = tuple.__new__  # _Token(...) would run a Python-level __new__ per token
    for m in _TOKEN_RE.finditer(text, offset):
        kind = m.lastgroup
        if kind != "skip":
            lexeme = m.group()
            yield new(_Token, (lexeme if kind == "symbol" else kind, lexeme, m.start()))


# The parameter-expression evaluator reads lexemes, the texts of tokens. On
# the fast path one ``findall`` of this regex cuts a parameter text into
# them: whitespace matches none of the lexicon's patterns, so findall skips
# it, and any other character is a lexeme of its own, as it is a "bad"
# token. A text holds no "//" there.
_LEXEME_RE = re.compile("|".join([*(pattern for _, pattern in _LEXICON), r"[^ \t\r\n]"]),
                        re.ASCII)
# the first characters of a number lexeme, with a "." that has more after it
_DIGITS = frozenset("0123456789")


# The statement fast path. One match reads ``name[(params)] reg[i](, reg[j])*;``
# with an optional ``-> creg[j]`` before the ';' (a measure), after what the
# tokenizer skips. Identifiers end where the tokenizer's do; an index has at
# most ten digits, enough for any below MAX_REGISTER_SIZE; the parameter text
# is split at commas and each piece evaluated on its own. A comment runs to
# the end of its line: the match may not give any of it back. Each repeat of
# the leading skip reads one character or one whole comment, so a failed
# match gives a run of whitespace back in time linear in its length.
_WS = r"[ \t\r\n]*"
_ID = r"[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_])"
_OPERAND = rf"{_ID}{_WS}\[{_WS}[0-9]{{1,10}}{_WS}\]"
_STATEMENT_RE = re.compile(
    rf"(?:[ \t\r\n]|//[^\n]*(?![^\n]))*({_ID}){_WS}"
    rf"(?:\(([^\[;\"{{}}]*)\){_WS})?"
    rf"({_OPERAND}(?:{_WS},{_WS}{_OPERAND})*){_WS}"
    rf"(?:->{_WS}({_OPERAND}){_WS})?;"
)
_NEWLINE_RE = re.compile("\n")
# what the parameter memo gives for a text not read yet
_UNREAD = object()
# the key of the parameter memo in a ``statements`` dict; its other keys are
# register layouts, which are tuples
_PARAMETERS = "parameters"
# the characters of a parameter that may be one number, signed or not:
# ``float`` reads such a text as the grammar does, or refuses it
_NUMBER_CHARS = frozenset("0123456789.eE+- \t\r\n")


def _int_literal(text: str) -> int | None:
    """The value of a decimal literal, or None if it is larger than
    MAX_REGISTER_SIZE; digits are counted first, since ``int`` refuses
    literals of more than 4300 digits."""
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_REGISTER_SIZE)) or int(digits) > MAX_REGISTER_SIZE:
        return None
    return int(digits)


class _Skip(Exception):
    """A statement failed with the diagnostic ``(token, message)`` in its
    args; ``recover`` records it and skips to just past the next ';'.
    :func:`_expression` raises it with a lexeme's index for the token."""


def _expected(what: str, found: str) -> str:
    """The message that ``what`` was expected where the text ``found`` is."""
    return f"expected {what}, found {found!r}" if found else f"expected {what}, found end of input"


def _expression(lexemes: list[str], i: int, depth: int = 0) -> tuple[float, int]:
    """The value of the parameter expression at ``lexemes[i]``, inside
    ``depth`` parentheses, and the index of the lexeme after it.

    Terms are joined by '+' and '-'; a term is factors joined by '*' and
    '/'; a factor is signs before a number, ``pi`` or a parenthesized
    expression. Lexemes are read by index: they end in a ';' or in "", the
    end of input, which no expression takes. Only a parenthesis recurses.
    A failure raises ``_Skip(index, message)`` at the lexeme's index."""
    total = term = 0.0
    add = mul = None  # the operators before the current term and factor
    while True:
        lex = lexemes[i]
        negate = False
        while lex == "+" or lex == "-":
            negate ^= lex == "-"
            i += 1
            lex = lexemes[i]
        first = lex[:1]
        if first in _DIGITS or first == "." and len(lex) > 1:
            value = float(lex)
        elif lex == "pi":
            value = math.pi
        elif lex == "(" and depth < MAX_PAREN_DEPTH:
            value, i = _expression(lexemes, i + 1, depth + 1)
            if lexemes[i] != ")":
                raise _Skip(i, _expected(")", lexemes[i]))
        elif lex == "(":
            raise _Skip(i, f"parameter expression nests parentheses deeper than {MAX_PAREN_DEPTH}")
        else:
            raise _Skip(i, f"expected parameter expression, found {lex!r}")
        i += 1
        if negate:
            value = -value
        if mul is None:
            term = value
        elif mul == "*":
            term *= value
        elif value == 0:
            raise _Skip(i, "division by zero in parameter expression")
        else:
            term /= value
        op = lexemes[i]
        if op == "*" or op == "/":
            mul = op
            i += 1
            continue
        total = term if add is None else total + term if add == "+" else total - term
        if op != "+" and op != "-":
            return total, i
        add, mul = op, None
        i += 1


class _Parser:
    def __init__(self, text: str, statements: dict):
        self.text = text
        # diagnostics as (offset, message, severity); the offsets of bad
        # characters are kept apart, and come first
        self.diags: list[tuple[int, str, str]] = []
        self.bad: list[int] = []
        self.tokens: list[_Token] = []
        self.i = 0
        self.tokenize_from(0)
        # name -> (offset, size); classical bits are not kept, so cregs' offsets are 0
        self.qregs: dict[str, tuple[int, int]] = {}
        self.cregs: dict[str, tuple[int, int]] = {}
        self.num_qubits = 0
        # the circuit's columns, one entry per gate
        self.names: list[str] = []
        self.kinds: list[str] = []
        self.qubits: list[tuple[int, ...]] = []
        self.params: list[tuple[float, ...]] = []
        # register layout -> {statement text -> the gate take() gave for it},
        # and _PARAMETERS -> {parameter text -> its value, or None where the
        # grammar must read it}; shared by every parse given this dict
        self.statements = statements
        self.values: dict[str, float | None] = statements.setdefault(_PARAMETERS, {})
        self.use_layout()

    # --- token helpers -------------------------------------------------
    def tokenize_from(self, offset: int):
        """Read on from ``offset``. Tokens read past the last statement are
        kept if the next starts at ``offset``: a scan reads to the next ';',
        and a run of gate definitions, which hold none, is read once."""
        if self.i < len(self.tokens) and self.tokens[self.i].offset == offset:
            return
        self.tokens = []
        self.i = 0
        self.scanner = _tokens(self.text, offset)

    def scan(self):
        """Read tokens up to and including the next ';', or to the end."""
        for tok in self.scanner:
            if tok.kind == "bad":
                # a statement's scan may read past where the next one starts
                if not self.bad or tok.offset > self.bad[-1]:
                    self.bad.append(tok.offset)
                continue
            self.tokens.append(tok)
            if tok.kind == ";":
                return
        self.tokens.append(_Token("eof", "", len(self.text)))

    def next_offset(self) -> int:
        """Where the text after the tokens taken so far begins."""
        if self.i < len(self.tokens):
            return self.tokens[self.i].offset
        last = self.tokens[-1]
        return last.offset + len(last.text)

    def peek(self) -> _Token:
        if self.i == len(self.tokens):
            self.scan()
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.i += 1
        return tok

    def accept(self, kind: str) -> bool:
        if self.peek().kind == kind:
            self.i += 1
            return True
        return False

    def error(self, tok: _Token, message: str, severity: str = "error"):
        self.diags.append((tok.offset, message, severity))

    def fail(self, tok: _Token, message: str) -> NoReturn:
        """Give up on the statement with an error at ``tok``."""
        raise _Skip(tok, message)

    def expected(self, what: str) -> tuple[_Token, str]:
        """The next token, and the message that ``what`` was expected there."""
        tok = self.peek()
        return tok, _expected(what, tok.text)

    def expect(self, kind: str, what: str | None = None) -> _Token:
        if self.peek().kind == kind:
            return self.advance()
        self.fail(*self.expected(what or kind))

    def comma_list(self, item: Callable[[], object]) -> list:
        """Parse ``item (',' item)*``."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def recover(self, parse_one: Callable[[], None]):
        """Run ``parse_one``; if it fails, record why and skip to just past
        the next ';'."""
        try:
            parse_one()
        except _Skip as skip:
            self.error(*skip.args)
            while self.advance().kind not in ("eof", ";"):
                pass

    def diagnostics(self) -> list[ParseDiagnostic]:
        """Every diagnostic with its line and column, bad characters first."""
        found = [(offset, f"unexpected character {self.text[offset]!r}", "error") for offset in self.bad]
        found += self.diags
        end = max((offset for offset, *_ in found), default=0)
        newlines = [m.start() for m in _NEWLINE_RE.finditer(self.text, 0, end)]
        out = []
        for offset, message, severity in found:
            line = bisect.bisect_left(newlines, offset)
            line_start = newlines[line - 1] + 1 if line else 0
            out.append(ParseDiagnostic(line + 1, offset - line_start + 1, message, severity))
        return out

    def use_layout(self):
        """Remember statements in the memo of the registers declared so far:
        each register's name, offset and size, in declaration order, decide
        what a statement text reads as."""
        layout = (tuple(self.qregs.items()), tuple(self.cregs.items()))
        self.memo: dict[str, tuple] = self.statements.setdefault(layout, {})

    def append(self, name: str, kind: str, qubits: tuple[int, ...], params: tuple[float, ...]):
        """Append one gate to the circuit's columns."""
        self.names.append(name)
        self.kinds.append(kind)
        self.qubits.append(qubits)
        self.params.append(params)

    # --- statement fast path ------------------------------------------
    def take(self, m: re.Match) -> tuple | None:
        """The gate of the statement ``m`` matched, as ``(name, kind, qubits,
        params, count)``, if the grammar would accept the statement as it
        stands under the registers declared so far, the gate limit aside;
        otherwise None. ``count`` is what the gate adds to the gates
        MAX_GATES limits: a barrier counts the operands it lists, before
        they are deduped, as the grammar counts them. The loop keeps the
        gate in the memo, and checks the limit on every miss and every
        hit."""
        name, params, operands, bit = m.groups()
        qubits = self.indices(self.qregs, operands)
        if qubits is None:
            return None
        if name == "barrier":
            if params is not None or bit is not None:
                return None
            return "barrier", BARRIER, tuple(dict.fromkeys(qubits)), (), len(qubits)
        if name == "measure":
            if params is not None or len(qubits) != 1 or bit is None or self.indices(self.cregs, bit) is None:
                return None
            return "measure", MEASURE, qubits, (), 1
        values = () if params is None else self.parameters(params)
        if values is None or bit is not None:
            return None
        spec = (1, len(values)) if name == "delay" and len(values) <= 1 else BUILTIN_GATES.get(name)
        if spec != (len(qubits), len(values)) or len(qubits) > 1 and len(set(qubits)) != len(qubits):
            return None
        return name, DELAY if name == "delay" else UNITARY, qubits, values, 1

    def indices(self, regs: dict[str, tuple[int, int]], operands: str) -> tuple[int, ...] | None:
        """The flat indices of ``name[i]`` operands, or None if one is not
        in a register of ``regs`` or out of its range."""
        out = []
        for operand in operands.split(","):
            name, _, index = operand.partition("[")
            reg = regs.get(name.strip())
            i = int(index.rstrip("] \t\r\n"))
            if reg is None or i >= reg[1]:
                return None
            out.append(reg[0] + i)
        return tuple(out)

    def parameters(self, text: str) -> tuple[float, ...] | None:
        """The values of a parameter list, or None if one is not simply an
        expression the grammar accepts; a ``//`` starts a comment there."""
        if not text.strip(" \t\r\n"):
            return ()
        if "//" in text:
            return None
        values = self.values
        out = []
        for piece in text.split(","):
            value = values.get(piece, _UNREAD)
            if value is _UNREAD:
                value = values[piece] = self.evaluate(piece)
            if value is None:
                return None
            out.append(value)
        return tuple(out)

    def evaluate(self, text: str) -> float | None:
        """The value of one parameter expression, or None if the grammar
        rejects the text: ``float`` reads a plain number, the grammar's own
        evaluator the lexemes of anything else."""
        if _NUMBER_CHARS.issuperset(text):
            try:
                return float(text)
            except ValueError:
                pass
        lexemes = _LEXEME_RE.findall(text)
        lexemes.append("")
        try:
            value, i = _expression(lexemes, 0)
        except _Skip:
            return None
        return value if lexemes[i] == "" else None

    # --- grammar -------------------------------------------------------
    def parse_program(self):
        match, find, text = _STATEMENT_RE.match, self.text.find, self.text
        names, kinds, qubits, params = self.names, self.kinds, self.qubits, self.params
        self.recover(self.parse_header)
        offset = self.next_offset()
        memo = self.memo
        # A statement the memo holds is one lookup: the key is the text
        # up to the next ';', and no regex runs. That is exact: the regex
        # reads a ';' only as its last character or in a leading comment,
        # which runs to the end of its line, so a matched text with one
        # ';', its last, reads the same wherever it stands under the same
        # registers. A key whose comment holds a ';' is never found this
        # way; the match finds it. A miss is matched, taken, and kept if
        # taken; a match that ends at that ';' has the key already asked,
        # and one that ends past it (its comment holds a ';') is asked by
        # its own text. After a statement the grammar read that ends
        # before ``end`` (a gate definition) the memo is not asked, so
        # each character is searched and sliced once.
        end = 0  # just past the first ';' at or after offset, once looked for
        while True:
            gate = key = None
            if offset >= end:
                end = find(";", offset) + 1 or len(text) + 1
                key = text[offset:end]
                gate = memo.get(key)
                after = end
            if gate is None and end <= len(text):  # with no ';' left, no match
                m = match(text, offset)
                if m is not None:
                    after = m.end()
                    if key is None or after != end:
                        key = m.group()
                        gate = memo.get(key)
                    if gate is None:
                        gate = self.take(m)
                        if gate is not None:
                            memo[key] = gate
            # past the gate limit, the grammar reports the statement
            if gate is not None and len(names) + gate[4] <= MAX_GATES:
                # appended here, not by append(): a call per gate costs
                # about a tenth of a parse of repeated statements
                name, kind, gate_qubits, gate_params, _ = gate
                names.append(name)
                kinds.append(kind)
                qubits.append(gate_qubits)
                params.append(gate_params)
                offset = after
                continue
            self.tokenize_from(offset)
            if self.peek().kind == "eof":
                return
            self.recover(self.parse_statement)
            offset = self.next_offset()
            memo = self.memo  # a declaration changes the registers

    def parse_header(self):
        if self.peek().text != "OPENQASM":
            self.fail(*self.expected("OPENQASM"))
        self.advance()
        tok = self.peek()
        if tok.text != "2.0":
            self.fail(tok, f"unsupported OPENQASM version {tok.text!r}; only 2.0 is supported")
        self.advance()
        if not self.accept(";"):
            self.error(*self.expected(";"))

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
            self.error(*self.expected("include file name"))
        elif tok.text != '"qelib1.inc"':
            self.error(tok, f"unknown include file {tok.text}; only \"qelib1.inc\" is supported")
        if not self.accept(";"):
            self.error(*self.expected(";"))

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
        self.use_layout()

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

    def parse_expression(self, lexemes: list[str]) -> float:
        """The value of the parameter expression at the next token, read by
        :func:`_expression` from ``lexemes``, the texts of ``self.tokens``;
        a failure is reported at its token. After a failure ``self.i`` lags,
        but ``recover`` skips to the same ';'."""
        try:
            value, self.i = _expression(lexemes, self.i)
        except _Skip as skip:
            index, message = skip.args
            self.fail(self.tokens[index], message)
        return value

    def fits(self, tok: _Token, count: int) -> bool:
        """Whether ``count`` more gates keep the program within MAX_GATES;
        if not, record the error at the statement's first token ``tok``."""
        if len(self.names) + count <= MAX_GATES:
            return True
        self.error(tok, f"{tok.text!r} would expand the program past {MAX_GATES} gates")
        return False

    def parse_measure(self):
        tok = self.advance()
        src = self.parse_operand()
        self.expect("->", "'->'")
        dst = self.parse_operand(classical=True)
        self.expect(";")
        if len(dst) != len(src):
            self.error(tok, f"measure operand lengths differ ({len(src)} vs {len(dst)})")
            return
        if not self.fits(tok, len(src)):
            return
        for q in src:
            self.append("measure", MEASURE, (q,), ())

    def parse_barrier(self):
        tok = self.advance()
        operands = self.comma_list(self.parse_operand)
        self.expect(";")
        if not self.fits(tok, sum(map(len, operands))):
            return
        # duplicate operands would be rejected by validate(); dedupe preserving order
        qubits = tuple(dict.fromkeys(q for op in operands for q in op))
        self.append("barrier", BARRIER, qubits, ())

    def parse_gate_application(self):
        name = self.advance()
        gate_name = name.text
        params: list[float] = []
        if self.accept("("):
            if self.peek().kind != ")":
                # the statement's tokens end in its ';' or the end of input
                lexemes = [tok.text for tok in self.tokens]
                params = self.comma_list(lambda: self.parse_expression(lexemes))
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
        if not self.fits(name, width):
            return
        kind = DELAY if gate_name == "delay" else UNITARY
        params = tuple(params)
        for k in range(width):
            qubits = tuple(op[k] if len(op) > 1 else op[0] for op in operands)
            if len(set(qubits)) != len(qubits):
                self.error(name, f"gate {gate_name!r} applied to duplicate qubits {list(qubits)}")
                return
            self.append(gate_name, kind, qubits, params)


def parse_program(text: str, statements: dict | None = None) -> ParseResult:
    """Parse QASM text, returning the circuit (or None) plus all diagnostics.

    ``statements`` is a memo of the statements read so far, which the parse
    reads and adds to: texts given one dict, such as the compiled versions
    of one circuit, read each distinct statement once between them. A dict
    that earlier parses filled gives the result an empty one gives; None
    means a memo for this parse alone."""
    parser = _Parser(text, {} if statements is None else statements)
    parser.parse_program()
    diags = parser.diagnostics()
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)
    if parser.num_qubits == 0:
        diags.append(ParseDiagnostic(1, 1, "program declares no quantum register"))
        return ParseResult(None, diags)
    circuit = Circuit.from_columns(parser.num_qubits, parser.names, parser.kinds, parser.qubits,
                                   parser.params)
    return ParseResult(circuit, diags)


def parse(text: str, statements: dict | None = None) -> Circuit:
    """Parse QASM text, with the memo ``statements`` as in
    :func:`parse_program`; raise :class:`QasmParseError` on any error."""
    result = parse_program(text, statements)
    if result.circuit is None:
        raise QasmParseError(result.errors())
    return result.circuit


def parse_file(path, statements: dict | None = None) -> Circuit:
    """Parse the QASM file at ``path``, as :func:`parse` parses its text."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read(), statements)


def unparse(circuit: Circuit) -> str:
    """Emit QASM text that reparses to a structurally equal circuit. A
    parameter that is not finite has no OpenQASM 2.0 literal: it raises
    ``ValueError`` naming the gate's position and name."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if MEASURE in circuit.kinds:
        lines.append(f"creg c[{circuit.num_qubits}];")
    columns = zip(circuit.names, circuit.kinds, circuit.qubits, circuit.params)
    for position, (name, kind, qubits, params) in enumerate(columns):
        operands = ",".join(f"q[{q}]" for q in qubits)
        if kind == MEASURE:
            lines.append(f"measure q[{qubits[0]}] -> c[{qubits[0]}];")
        elif kind == BARRIER:
            lines.append(f"barrier {operands};")
        elif params:
            if not all(map(math.isfinite, params)):
                raise ValueError(f"gate position {position}, {name!r}: parameters {params} "
                                 f"are not all finite; OpenQASM 2.0 has no literal for inf or nan")
            lines.append(f"{name}({','.join(map(repr, params))}) {operands};")
        else:
            lines.append(f"{name} {operands};")
    return "\n".join(lines) + "\n"
