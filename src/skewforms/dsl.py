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

A parenthesized group is parsed once per document for each distinct source
text: a repeat reuses that value unless a fresh parse at its depth would
pass MAX_NESTING, so every error keeps its message, line and column.

Printing is canonical: sorted index tuples, canonical expression order,
one declaration per line.  ``parse(print(doc))`` reproduces the document.
"""

from __future__ import annotations

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
    mul,
    power,
    sin,
    to_text,
    var,
    _Record,
    _combine,
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


class ScalarDecl(_Record):
    __slots__ = __match_args__ = ("name", "expr")

    def __init__(self, name: str, expr: Expression):
        self.name, self.expr = name, expr


class FormDecl(_Record):
    __slots__ = __match_args__ = ("name", "form")

    def __init__(self, name: str, form: DifferentialForm):
        self.name, self.form = name, form


class RelationDecl(_Record):
    __slots__ = __match_args__ = ("name", "phi", "eta")

    def __init__(self, name: str, phi: DifferentialForm, eta: DifferentialForm):
        self.name, self.phi, self.eta = name, phi, eta


class BalanceDecl(_Record):
    __slots__ = __match_args__ = ("name", "system")

    def __init__(self, name: str, system: BalanceSystem):
        self.name, self.system = name, system


class Document(_Record):
    __slots__ = __match_args__ = ("vars", "metric", "declarations")

    def __init__(self, vars: VariableSet | None = None, metric: Metric | None = None,
                 declarations: list | None = None):
        self.vars, self.metric = vars, metric
        self.declarations = [] if declarations is None else declarations

    def find(self, name: str):
        for decl in self.declarations:
            if decl.name == name:
                return decl
        return None


# --- lexer ----------------------------------------------------------------------

_OPS = set("+-*/^(),:;=")
_ASCII_DIGITS = set("0123456789")
_ASCII_ALPHA = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _ASCII_ALPHA | _ASCII_DIGITS


class Token(_Record):
    # kind is IDENT, NUMBER, OP, NEWLINE or EOF
    __slots__ = __match_args__ = ("kind", "text", "line", "column", "value")

    def __init__(self, kind: str, text: str, line: int, column: int, value: int | Fraction | None = None):
        self.kind, self.text, self.line, self.column, self.value = kind, text, line, column, value


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0   # line_start: offset of the current line's first character
    i, n = 0, len(text)
    while i < n:
        start = i
        ch = text[i]
        i += 1
        if ch in " \t\r":
            continue
        if ch == "#":
            i = text.find("\n", i)
            i = n if i < 0 else i
            continue
        col = start - line_start + 1
        if ch == "\n":
            tokens.append(Token("NEWLINE", ch, line, col))
            line, line_start = line + 1, i
        elif ch in _OPS:
            tokens.append(Token("OP", ch, line, col))
        elif ch in _ASCII_DIGITS:
            while i < n and text[i] in _ASCII_DIGITS:
                i += 1
            if text[i:i + 1] == "." and text[i + 1:i + 2] in _ASCII_DIGITS:
                i += 2
                while i < n and text[i] in _ASCII_DIGITS:
                    i += 1
            literal = text[start:i]
            try:
                value = Fraction(literal) if "." in literal else int(literal)
            except ValueError:  # past CPython's cap on integer string conversion (4300 digits)
                raise DslError("number literal has too many digits", line, col) from None
            tokens.append(Token("NUMBER", literal, line, col, value))
        elif ch in _ASCII_ALPHA:
            while i < n and text[i] in _NAME_CHARS:
                i += 1
            tokens.append(Token("IDENT", text[start:i], line, col))
        else:
            raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, n - line_start + 1))
    return tokens


# --- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.doc = Document()
        self.names: dict[str, object] = {}   # name -> its declaration; None for a variable
        self.depth = 0   # open _unary calls, bounded by MAX_NESTING
        self.peak = 0    # the deepest _unary call in the group being parsed
        self.lines = text.split("\n")
        self.groups: dict[str, tuple] = {}   # a group's source text -> (its value, its nesting depth)
        self.closing: dict[int, int] = {}   # token index of each '(' -> that of its matching ')'
        opened = []
        for i, tok in enumerate(self.tokens):
            if tok.kind == "OP" and tok.text == "(":
                opened.append(i)
            elif tok.kind == "OP" and tok.text == ")" and opened:
                self.closing[opened.pop()] = i

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
        while self.peek().kind == "NEWLINE" or self.at_op(";"):
            self.advance()

    def end_statement(self):
        if self.peek().kind not in ("NEWLINE", "EOF") and not self.at_op(";"):
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

    def _declare(self, tok: Token, decl) -> str:
        """Register a name with its declaration (None for a variable)."""
        name = tok.text
        if name in RESERVED:
            self.error(f"{name!r} is a reserved word", tok)
        if name in self.names:
            self.error(f"duplicate name {name!r}", tok)
        if self.doc.vars is not None and name.startswith("d") and name[1:] in self.doc.vars:
            self.error(f"name {name!r} collides with the differential of {name[1:]!r}", tok)
        self.names[name] = decl
        if decl is not None:
            self.doc.declarations.append(decl)
        return name

    # shapes shared by several statements

    def _list(self, item) -> list:
        """item { "," item }"""
        items = [item()]
        while self.at_op(","):
            self.advance()
            items.append(item())
        return items

    def _word(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            self.error(f"expected {word!r}")
        return self.advance()

    def _scalar(self, what: str, tok: Token | None = None) -> Expression:
        """An expression of degree 0, blamed on tok (default: its first token)."""
        tok = tok or self.peek()
        value = self._form(self._expr())
        if value.degree != 0 and not value.is_structurally_zero():
            self.error(f"{what} must have degree 0", tok)
        return value.coefficient(())

    def _form(self, value: Expression | DifferentialForm) -> DifferentialForm:
        if isinstance(value, DifferentialForm):
            return value
        return DifferentialForm.scalar(self.doc.vars, value)

    def _parens(self) -> Expression | DifferentialForm:
        """ "(" expr ")"; a repeat of an earlier group's text reuses its value
        unless a fresh parse at this depth would pass MAX_NESTING."""
        # no key for an unbalanced '(' or a group over several lines: both fail below
        close = self.closing.get(self.pos)
        tok, end = self.peek(), close and self.tokens[close]
        key = end and end.line == tok.line and self.lines[tok.line - 1][tok.column:end.column - 1]
        self.expect_op("(")
        hit = self.groups.get(key)
        if hit and self.depth + hit[1] <= MAX_NESTING:
            self.pos = close + 1
            self.peak = max(self.peak, self.depth + hit[1])
            return hit[0]
        outer, self.peak = self.peak, self.depth
        inner = self._expr()
        self.expect_op(")")
        self.groups[key] = inner, self.peak - self.depth
        self.peak = max(outer, self.peak)
        return inner

    def _head(self, kind: str, sep: str) -> Token:
        """The keyword, name and separator opening a named declaration."""
        self.advance()
        tok = self.expect_ident(f"a {kind} name")
        self.expect_op(sep)
        return tok

    # statements

    def _parse_vars(self):
        kw = self.advance()
        if self.doc.vars is not None:
            self.error("vars was already declared", kw)
        names = self._list(lambda: self._declare(self.expect_ident("a variable name"), None))
        for name in names:
            if name.startswith("d") and name[1:] in names:
                self.error(f"variable {name!r} collides with the differential of {name[1:]!r}", kw)
        self.doc.vars = VariableSet(names)

    def _parse_metric(self):
        kw = self.advance()
        if self.doc.metric is not None:
            self.error("metric was already declared", kw)

        def sign() -> int:
            negative = self.at_op("-")
            if negative or self.at_op("+"):
                self.advance()
            tok = self.peek()
            if tok.kind != "NUMBER" or tok.value != 1:
                self.error("metric entries must be +1 or -1")
            self.advance()
            return -1 if negative else 1

        signs = self._list(sign)
        if len(signs) != self.doc.vars.dimension:
            self.error(f"metric needs {self.doc.vars.dimension} entries", kw)
        self.doc.metric = Metric(self.doc.vars, tuple(signs))

    def _parse_scalar(self):
        tok = self._head("scalar", "=")
        self._declare(tok, ScalarDecl(tok.text, self._scalar(f"scalar {tok.text!r}", tok)))

    def _parse_form(self):
        tok = self._head("form", "=")
        self._declare(tok, FormDecl(tok.text, self._form(self._expr())))

    def _parse_relation(self):
        tok = self._head("relation", ":")
        self._word("d")
        phi = self._form(self._parens())
        eq = self.expect_op("=")
        eta = self._form(self._expr())
        if eta.degree != phi.degree + 1:
            if not eta.is_structurally_zero():
                self.error(
                    f"relation needs deg(eta) = deg(phi)+1, got {eta.degree} and {phi.degree}", eq)
            eta = DifferentialForm.zero(self.doc.vars, min(phi.degree + 1, self.doc.vars.dimension))
        self._declare(tok, RelationDecl(tok.text, phi, eta))

    def _parse_balance(self):
        tok = self._head("balance", ":")
        a_tok = self._word("A")
        self.expect_op("=")
        self.expect_op("(")
        actions = self._list(lambda: self._scalar("action coefficients"))
        self.expect_op(")")
        if len(actions) != self.doc.vars.dimension:
            self.error(f"balance needs {self.doc.vars.dimension} action coefficients", a_tok)
        psi = None
        if self.at_op(","):
            self.advance()
            self._word("psi")
            self.expect_op("=")
            psi = self._scalar("psi")
        self._declare(tok, BalanceDecl(tok.text, BalanceSystem(self.doc.vars, tuple(actions), psi)))

    # expressions: scalars are Expressions; a form (degree >= 1) comes from a differential or name

    def _expr(self) -> Expression | DifferentialForm:
        """A '+'/'-' chain with a left fold's degree checks; one pass sums each run of scalars."""
        run = [(1, self._mul_level())]   # (sign, operand) pairs whose sum is the value so far
        while self.at_op("+") or self.at_op("-"):
            op = self.advance()
            sign, right = -1 if op.text == "-" else 1, self._mul_level()
            if isinstance(right, Expression) and isinstance(run[0][1], Expression):
                run.append((sign, right))
                continue
            left, right = self._form(_combine(run) if len(run) > 1 else run[0][1]), self._form(right)
            try:
                total = left + right if sign > 0 else left - right
            except ValueError:
                self.error(f"cannot add forms of degree {left.degree} and {right.degree}", op)
            run = [(1, total if total.degree else total.coefficient(()))]
        return _combine(run) if len(run) > 1 else run[0][1]

    def _mul_level(self) -> Expression | DifferentialForm:
        """A '*'/'/' chain of scalars and at most one form; one mul call multiplies the scalars."""
        factors = [self._unary()]
        form = factors.pop() if isinstance(factors[0], DifferentialForm) else None
        while self.at_op("*") or self.at_op("/"):
            op = self.advance()
            right = self._unary()
            if op.text == "*":
                if not isinstance(right, DifferentialForm):
                    factors.append(right)
                elif form is not None:
                    self.error("cannot '*' two forms of degree >= 1; use '^' for the exterior product", op)
                else:
                    form = right
            else:
                if isinstance(right, DifferentialForm):
                    self.error("cannot divide by a form of degree >= 1", op)
                if right == ZERO:
                    self.error("division by zero", op)
                factors.append(power(right, -1))
        if not factors:
            return form
        scalar = mul(*factors) if len(factors) > 1 else factors[0]
        return scalar if form is None else form * scalar

    def _unary(self) -> Expression | DifferentialForm:
        # every nesting (parentheses, calls, '^' chains, signs) passes here
        if self.depth >= MAX_NESTING:
            self.error(f"expression nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        self.peak = max(self.peak, self.depth)
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

    def _wedge_level(self) -> Expression | DifferentialForm:
        left = self._atom()
        while self.at_op("^"):
            op = self.advance()
            right = self._unary()  # right-associative; accepts x^-2
            if isinstance(left, DifferentialForm) or isinstance(right, DifferentialForm):
                left = wedge(self._form(left), self._form(right))
            elif not isinstance(right, Const):
                self.error("exponent must be an integer constant", op)
            elif left == ZERO and right.value < 0:
                self.error("division by zero", op)
            else:
                left = power(left, right.value)
        return left

    def _atom(self) -> Expression | DifferentialForm:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return const(tok.value)
        if tok.kind == "OP" and tok.text == "(":
            return self._parens()
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                arg = self._parens()
                if isinstance(arg, DifferentialForm):
                    self.error(f"{name} needs a scalar argument", tok)
                return FUNCTIONS[name](arg)
            if name in self.names:
                decl = self.names[name]
                if decl is None:
                    return var(name)
                if isinstance(decl, ScalarDecl):
                    return decl.expr
                if isinstance(decl, FormDecl):
                    return decl.form if decl.form.degree else decl.form.coefficient(())
                kind = "relation" if isinstance(decl, RelationDecl) else "balance"
                self.error(f"{name!r} is a {kind} and cannot be used in an expression", tok)
            if name.startswith("d") and len(name) > 1:
                if name[1:] in self.doc.vars:
                    return DifferentialForm.basis(self.doc.vars, name[1:])
                self.error(f"unknown variable {name[1:]!r}", tok)
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
