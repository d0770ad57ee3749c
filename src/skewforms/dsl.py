"""Text format for variable sets, expressions, forms, metrics, relations
and balance systems (the ``.forms`` file format).

Grammar (EBNF, statements separated by newlines or semicolons, comments
run from ``#`` to the end of the line)::

    document  := { statement }
    statement := "vars" name { "," name }
               | "metric" sign { "," sign }            sign: [+|-] 1
               | "scalar" name "=" expr                 expr of degree 0
               | "form" name "=" expr
               | "relation" name ":" "d" "(" expr ")" "=" expr
               | "balance" name ":" "A" "=" "(" expr { "," expr } ")"
                       [ "," "psi" "=" expr ]
    expr      := additive over + - * / ^ with atoms:
                 NUMBER | name | d<varname> | fn "(" expr ")" | "(" expr ")"

The single confusable token is ``^``: between two scalars it is the power
operator with a constant integer exponent (rational constants such as
``(1/2)`` are accepted as an extension); as soon as either operand has
degree >= 1 it is the exterior (wedge) product.  ``*`` multiplies a form
by a scalar only; wedging two differentials with ``*`` is an error.

The ``vars`` declaration must come first and names are unique across the
whole document.  Reserved words: vars, metric, form, scalar, relation,
balance, psi, d, sin, cos, exp, ln.  A variable may not be named ``d`` +
another variable's name, since that spelling denotes the differential.

Printing is canonical: sorted index tuples, canonical expression order,
one declaration per line.  ``parse(print(doc))`` reproduces the document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .expr import (
    Const,
    Expression,
    VariableSet,
    ZERO,
    const,
    cos,
    exp,
    ln,
    power,
    sin,
    to_text,
    var,
)
from .forms import DifferentialForm, form_to_text, wedge
from .duality import Metric
from .balance import BalanceSystem

__all__ = [
    "DslError",
    "Document",
    "ScalarDecl",
    "FormDecl",
    "RelationDecl",
    "BalanceDecl",
    "parse",
    "print_document",
]

KEYWORDS = {"vars", "metric", "form", "scalar", "relation", "balance"}
RESERVED = KEYWORDS | {"psi", "d", "sin", "cos", "exp", "ln"}
FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln}
MAX_NESTING = 100   # parentheses, calls, '^' chains and signs; deeper input is an error


class DslError(ValueError):
    """Parse or validation error with a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


# --- documents -----------------------------------------------------------------


@dataclass
class ScalarDecl:
    name: str
    expr: Expression


@dataclass
class FormDecl:
    name: str
    form: DifferentialForm


@dataclass
class RelationDecl:
    name: str
    phi: DifferentialForm
    eta: DifferentialForm


@dataclass
class BalanceDecl:
    name: str
    system: BalanceSystem


@dataclass
class Document:
    vars: VariableSet | None = None
    metric: Metric | None = None
    declarations: list = field(default_factory=list)

    def find(self, name: str):
        for decl in self.declarations:
            if decl.name == name:
                return decl
        return None

    def forms(self):
        return [d for d in self.declarations if isinstance(d, FormDecl)]

    def relations(self):
        return [d for d in self.declarations if isinstance(d, RelationDecl)]

    def balances(self):
        return [d for d in self.declarations if isinstance(d, BalanceDecl)]


# --- lexer ----------------------------------------------------------------------

_OPS = set("+-*/^(),:;=")
_ASCII_DIGITS = set("0123456789")
_ASCII_ALPHA = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


@dataclass
class Token:
    kind: str          # IDENT | NUMBER | OP | NEWLINE | EOF
    text: str
    line: int
    column: int
    value: Fraction | None = None


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch in _ASCII_DIGITS:
            start = i
            start_col = col
            while i < n and text[i] in _ASCII_DIGITS:
                i += 1
                col += 1
            if i < n and text[i] == "." and i + 1 < n and text[i + 1] in _ASCII_DIGITS:
                i += 1
                col += 1
                while i < n and text[i] in _ASCII_DIGITS:
                    i += 1
                    col += 1
            literal = text[start:i]
            tokens.append(Token("NUMBER", literal, line, start_col, Fraction(literal)))
            continue
        if ch in _ASCII_ALPHA:
            start = i
            start_col = col
            while i < n and (text[i] in _ASCII_ALPHA or text[i] in _ASCII_DIGITS):
                i += 1
                col += 1
            tokens.append(Token("IDENT", text[start:i], line, start_col))
            continue
        if ch in _OPS:
            tokens.append(Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# --- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.doc = Document()
        self.names: dict[str, str] = {}   # name -> declaration kind
        self.depth = 0                    # open _unary calls, bounded by MAX_NESTING

    # token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise DslError(message, tok.line, tok.column)

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text == text

    def expect_op(self, text: str) -> Token:
        if not self.at_op(text):
            self.error(f"expected {text!r}")
        return self.advance()

    def expect_ident(self, what: str = "a name") -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.error(f"expected {what}")
        return self.advance()

    def skip_separators(self):
        while True:
            tok = self.peek()
            if tok.kind == "NEWLINE" or (tok.kind == "OP" and tok.text == ";"):
                self.advance()
            else:
                return

    def end_statement(self):
        tok = self.peek()
        if tok.kind in ("NEWLINE", "EOF") or (tok.kind == "OP" and tok.text == ";"):
            return
        self.error("expected end of statement")

    # document

    def parse_document(self) -> Document:
        self.skip_separators()
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT" or tok.text not in KEYWORDS:
                self.error("expected a declaration (vars, metric, scalar, form, relation, balance)")
            if tok.text != "vars" and self.doc.vars is None:
                self.error("the vars declaration must come first")
            try:
                getattr(self, f"_parse_{tok.text}")()
            except RecursionError:
                # names are inlined, so a chain of references can nest a tree
                # deeper than MAX_NESTING lets the text nest
                raise DslError("expression nested too deeply once names are inlined",
                               tok.line, tok.column) from None
            self.end_statement()
            self.skip_separators()
        return self.doc

    def _declare(self, tok: Token, kind: str) -> str:
        name = tok.text
        if name in RESERVED:
            self.error(f"{name!r} is a reserved word", tok)
        if name in self.names:
            self.error(f"duplicate name {name!r}", tok)
        if self.doc.vars is not None and name.startswith("d") and name[1:] in self.doc.vars:
            self.error(f"name {name!r} collides with the differential of {name[1:]!r}", tok)
        self.names[name] = kind
        return name

    def _parse_vars(self):
        kw = self.advance()
        if self.doc.vars is not None:
            self.error("vars was already declared", kw)
        names: list[str] = []
        while True:
            tok = self.expect_ident("a variable name")
            self._declare(tok, "var")
            names.append(tok.text)
            if self.at_op(","):
                self.advance()
            else:
                break
        for name in names:
            if name.startswith("d") and name[1:] in names:
                self.error(f"variable {name!r} collides with the differential of {name[1:]!r}", kw)
        self.doc.vars = VariableSet(names)

    def _parse_metric(self):
        kw = self.advance()
        if self.doc.metric is not None:
            self.error("metric was already declared", kw)
        signs: list[int] = []
        while True:
            sign = 1
            if self.at_op("+") or self.at_op("-"):
                sign = -1 if self.advance().text == "-" else 1
            tok = self.peek()
            if tok.kind != "NUMBER" or tok.value != 1:
                self.error("metric entries must be +1 or -1")
            self.advance()
            signs.append(sign)
            if self.at_op(","):
                self.advance()
            else:
                break
        if len(signs) != self.doc.vars.dimension:
            self.error(f"metric needs {self.doc.vars.dimension} entries", kw)
        self.doc.metric = Metric(self.doc.vars, tuple(signs))

    def _parse_scalar(self):
        self.advance()
        tok = self.expect_ident("a scalar name")
        self.expect_op("=")
        value = self._expr()
        if value.degree != 0 and not value.is_structurally_zero():
            self.error(f"scalar {tok.text!r} must have degree 0", tok)
        name = self._declare(tok, "scalar")
        self.doc.declarations.append(ScalarDecl(name, value.coefficient(())))

    def _parse_form(self):
        self.advance()
        tok = self.expect_ident("a form name")
        self.expect_op("=")
        value = self._expr()
        name = self._declare(tok, "form")
        self.doc.declarations.append(FormDecl(name, value))

    def _parse_relation(self):
        self.advance()
        tok = self.expect_ident("a relation name")
        self.expect_op(":")
        d_tok = self.expect_ident("'d'")
        if d_tok.text != "d":
            self.error("expected 'd'", d_tok)
        self.expect_op("(")
        phi = self._expr()
        self.expect_op(")")
        eq = self.expect_op("=")
        eta = self._expr()
        expected = min(phi.degree + 1, self.doc.vars.dimension)
        if eta.degree != phi.degree + 1:
            if not eta.is_structurally_zero():
                self.error(
                    f"relation needs deg(eta) = deg(phi)+1, got {eta.degree} and {phi.degree}", eq)
            eta = DifferentialForm.zero(self.doc.vars, expected)
        name = self._declare(tok, "relation")
        self.doc.declarations.append(RelationDecl(name, phi, eta))

    def _parse_balance(self):
        self.advance()
        tok = self.expect_ident("a balance name")
        self.expect_op(":")
        a_tok = self.expect_ident("'A'")
        if a_tok.text != "A":
            self.error("expected 'A'", a_tok)
        self.expect_op("=")
        self.expect_op("(")
        actions: list[Expression] = []
        while True:
            start = self.peek()
            value = self._expr()
            if value.degree != 0 and not value.is_structurally_zero():
                self.error("action coefficients must have degree 0", start)
            actions.append(value.coefficient(()))
            if self.at_op(","):
                self.advance()
            else:
                break
        self.expect_op(")")
        if len(actions) != self.doc.vars.dimension:
            self.error(f"balance needs {self.doc.vars.dimension} action coefficients", a_tok)
        psi = None
        if self.at_op(","):
            self.advance()
            psi_tok = self.expect_ident("'psi'")
            if psi_tok.text != "psi":
                self.error("expected 'psi'", psi_tok)
            self.expect_op("=")
            start = self.peek()
            value = self._expr()
            if value.degree != 0 and not value.is_structurally_zero():
                self.error("psi must have degree 0", start)
            psi = value.coefficient(())
        name = self._declare(tok, "balance")
        self.doc.declarations.append(
            BalanceDecl(name, BalanceSystem(self.doc.vars, tuple(actions), psi)))

    # expressions: everything is a DifferentialForm; scalars have degree 0

    def _scalar_value(self, e: Expression) -> DifferentialForm:
        return DifferentialForm.scalar(self.doc.vars, e)

    def _expr(self) -> DifferentialForm:
        left = self._mul_level()
        while self.at_op("+") or self.at_op("-"):
            op = self.advance()
            right = self._mul_level()
            if op.text == "-":
                right = -right
            try:
                left = left + right
            except ValueError:
                self.error(f"cannot add forms of degree {left.degree} and {right.degree}", op)
        return left

    def _mul_level(self) -> DifferentialForm:
        left = self._unary()
        while self.at_op("*") or self.at_op("/"):
            op = self.advance()
            right = self._unary()
            if op.text == "*":
                if left.degree > 0 and right.degree > 0:
                    self.error("cannot '*' two forms of degree >= 1; use '^' for the exterior product", op)
                left = wedge(left, right)
            else:
                if right.degree != 0:
                    self.error("cannot divide by a form of degree >= 1", op)
                denom = right.coefficient(())
                if denom == ZERO:
                    self.error("division by zero", op)
                left = left * power(denom, -1)
        return left

    def _unary(self) -> DifferentialForm:
        # every nesting (parentheses, calls, '^' chains, signs) passes here
        if self.depth >= MAX_NESTING:
            self.error(f"expression nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        try:
            # unary minus binds looser than '^': -x^2 means -(x^2)
            if self.at_op("-"):
                self.advance()
                return -self._unary()
            if self.at_op("+"):
                self.advance()
                return self._unary()
            return self._wedge_level()
        finally:
            self.depth -= 1

    def _wedge_level(self) -> DifferentialForm:
        left = self._atom()
        while self.at_op("^"):
            op = self.advance()
            right = self._unary()  # right-associative; accepts x^-2
            if left.degree == 0 and right.degree == 0:
                exponent = right.coefficient(())
                if not isinstance(exponent, Const):
                    self.error("exponent must be an integer constant", op)
                base = left.coefficient(())
                if base == ZERO and exponent.value < 0:
                    self.error("division by zero", op)
                left = self._scalar_value(power(base, exponent.value))
            else:
                left = wedge(left, right)
        return left

    def _atom(self) -> DifferentialForm:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return self._scalar_value(const(tok.value))
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            inner = self._expr()
            self.expect_op(")")
            return inner
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                self.expect_op("(")
                arg = self._expr()
                self.expect_op(")")
                if arg.degree != 0:
                    self.error(f"{name} needs a scalar argument", tok)
                return self._scalar_value(FUNCTIONS[name](arg.coefficient(())))
            if self.doc.vars is not None and name in self.doc.vars:
                return self._scalar_value(var(name))
            kind = self.names.get(name)
            if kind == "scalar":
                return self._scalar_value(self.doc.find(name).expr)
            if kind == "form":
                return self.doc.find(name).form
            if kind in ("relation", "balance"):
                self.error(f"{name!r} is a {kind} and cannot be used in an expression", tok)
            if name.startswith("d") and len(name) > 1:
                suffix = name[1:]
                if self.doc.vars is not None and suffix in self.doc.vars:
                    return DifferentialForm.basis(self.doc.vars, suffix)
                self.error(f"unknown variable {suffix!r}", tok)
            self.error(f"unknown variable {name!r}", tok)
        self.error("expected an expression")


def parse(text: str) -> Document:
    """Parse a ``.forms`` document; raises DslError with position on failure."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    return _Parser(text).parse_document()


# --- printer ---------------------------------------------------------------------


def print_document(doc: Document) -> str:
    """Canonical rendering; parsing the output reproduces the document."""
    lines: list[str] = []
    if doc.vars is not None:
        lines.append("vars " + ", ".join(doc.vars.names))
    if doc.metric is not None:
        lines.append("metric " + ", ".join("+1" if s > 0 else "-1" for s in doc.metric.signature))
    for decl in doc.declarations:
        if isinstance(decl, ScalarDecl):
            lines.append(f"scalar {decl.name} = {to_text(decl.expr)}")
        elif isinstance(decl, FormDecl):
            lines.append(f"form {decl.name} = {form_to_text(decl.form)}")
        elif isinstance(decl, RelationDecl):
            lines.append(f"relation {decl.name}: d({form_to_text(decl.phi)}) = {form_to_text(decl.eta)}")
        elif isinstance(decl, BalanceDecl):
            sys = decl.system
            actions = ", ".join(to_text(a) for a in sys.actions)
            line = f"balance {decl.name}: A = ({actions})"
            if sys.psi is not None:
                line += f", psi = {to_text(sys.psi)}"
            lines.append(line)
        else:
            raise TypeError(f"unknown declaration {decl!r}")
    return "\n".join(lines) + ("\n" if lines else "")
