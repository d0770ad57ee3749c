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

One regular expression lexes the text; the parser reads its token texts by
index.  An error finds its position only when it is raised: the start offset
of its token from the same pattern (the end of the text for EOF), and the
newlines before that offset give the line and column.  Lexer errors still come
first, in text order.  A group in parentheses is parsed once per document for
each distinct token sequence: a repeat reuses its value unless a fresh parse at
its depth would pass MAX_NESTING, so every error keeps its message, line and
column.  A monomial chain (literals and variables joined by '*' and '/', each
variable with an optional integer-literal exponent, and an optional leading
'-') is read in one loop into one term; any other chain by recursive descent.
A '+'/'-' chain sums each run of one degree in one build; a run's sum meets an
operand of another degree as in a left fold, so each error keeps its place.

Printing is canonical: sorted index tuples, canonical expression order,
one declaration per line.  ``parse(print(doc))`` reproduces the document.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expr import (
    Add,
    Const,
    DomainError,
    Expression,
    Pow,
    Var,
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
    _MAX_CONSTANT,
    _Record,
    _combine,
    _from_term,
    _sort_key,
)
from .forms import DifferentialForm, form_to_text, wedge, _sum_of_forms
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

# a token (a number, a name or any other character but a blank or '#'), then the blanks and
# comments after it: the matches tile the text from its first token on
_BLANKS = r"(?:[ \t\r]|#[^\n]*)*"
_TOKEN = re.compile(r"([0-9]+(?:\.[0-9]+)?|[A-Za-z_][A-Za-z_0-9]*|[^ \t\r#])" + _BLANKS)
_LEADING = re.compile(_BLANKS)
_SYMBOLS = frozenset("+-*/^(),:;=\n") | {""}   # operators, the newline and EOF
_ASCII_DIGITS = frozenset("0123456789")
_WORD_START = _ASCII_DIGITS | frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def _number(literal: str) -> int | Fraction | None:
    try:   # None past CPython's cap on integer string conversion (4300 digits)
        return Fraction(literal) if "." in literal else int(literal)
    except ValueError:
        return None


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of offset in text (len(text) is the end): the newlines
    before it give both."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# --- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # "" is EOF; a token's text tells its kind, for the lexer's kinds share no text
        self.texts = texts = [*_TOKEN.findall(text, _LEADING.match(text).end()), ""]
        distinct = set(texts) - _SYMBOLS   # names, numbers and bad characters
        self.numbers = {t: _number(t) for t in distinct if t[0] in _ASCII_DIGITS}   # literal -> value
        if None in self.numbers.values() or any(t[0] not in _WORD_START for t in distinct):
            for i, t in enumerate(texts):   # the first bad token in text order, whatever the set's order
                if t in distinct and t[0] not in _WORD_START:
                    self.error(f"unexpected character {t!r}", i)
                if t in self.numbers and self.numbers[t] is None:
                    self.error("number literal has too many digits", i)
        # literal -> (numerator, denominator) for the literals _monomial reads; const raises for the rest
        self.ratios = {t: r for t, v in self.numbers.items() if max(r := v.as_integer_ratio()) <= _MAX_CONSTANT}
        self.pos, self.doc = 0, Document()
        self.names: dict[str, object] = {}   # name -> its declaration; None for a variable
        self.depth = 0   # open _unary calls, bounded by MAX_NESTING
        self.peak = 0    # the deepest _unary call in the group being parsed
        self.groups: dict[tuple, tuple] = {}   # a group's token texts -> (its value, its nesting depth)
        opened, self.closing = [], {}   # token index of each '(' -> that of its matching ')'
        for i, t in enumerate(texts):
            if t == "(":
                opened.append(i)
            elif t == ")" and opened:
                self.closing[opened.pop()] = i

    # token plumbing: a token is its index in self.texts

    def error(self, message: str, at: int | None = None):
        """Raise DslError at token at (default: the current one), placed by the start
        offsets of the lexer's matches; EOF, past the last match, is at the end of the text."""
        text = self.text
        starts = [m.start() for m in _TOKEN.finditer(text, _LEADING.match(text).end())] + [len(text)]
        raise DslError(message, *_line_column(text, starts[self.pos if at is None else at])) from None

    def at_op(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def advance(self) -> int:
        self.pos += 1   # every caller has checked that the token is not EOF
        return self.pos - 1

    def expect_op(self, text: str) -> int:
        if self.texts[self.pos] != text:
            self.error(f"expected {text!r}")
        return self.advance()

    def expect_ident(self, what: str = "a name") -> int:
        # tokens are ASCII once lexed, so a name is exactly an identifier
        if not self.texts[self.pos].isidentifier():
            self.error(f"expected {what}")
        return self.advance()

    def skip_separators(self):
        while self.texts[self.pos] in ("\n", ";"):
            self.pos += 1

    def end_statement(self):
        if self.texts[self.pos] not in ("\n", ";", ""):
            self.error("expected end of statement")

    # document

    def parse_document(self) -> Document:
        self.skip_separators()
        while keyword := self.texts[self.pos]:
            tok = self.pos
            if keyword not in KEYWORDS:
                self.error("expected a declaration (vars, metric, scalar, form, relation, balance)")
            if keyword != "vars" and self.doc.vars is None:
                self.error("the vars declaration must come first")
            try:
                getattr(self, f"_parse_{keyword}")()
            except RecursionError:
                # names are inlined, so a chain of references can nest a tree
                # deeper than MAX_NESTING lets the text nest
                self.error("expression nested too deeply once names are inlined", tok)
            except DomainError as exc:  # a bound of expr, passed outside '^' and '*' chains
                self.error(str(exc), tok)
            self.end_statement()
            self.skip_separators()
        return self.doc

    def _declare(self, tok: int, decl) -> str:
        """Register a name with its declaration (None for a variable)."""
        name = self.texts[tok]
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

    def _scalar(self, what: str, tok: int | None = None) -> Expression:
        """An expression of degree 0, blamed on tok (default: its first token)."""
        tok = self.pos if tok is None else tok
        value = self._form(self._expr())
        if value.degree != 0 and not value.is_structurally_zero():
            self.error(f"{what} must have degree 0", tok)
        return value.coefficient(())

    def _form(self, value: Expression | DifferentialForm) -> DifferentialForm:
        if isinstance(value, DifferentialForm):
            return value
        return DifferentialForm.scalar(self.doc.vars, value)

    def _parens(self) -> Expression | DifferentialForm:
        """ "(" expr ")"; a repeat of an earlier group's tokens reuses its value
        unless a fresh parse at this depth would pass MAX_NESTING."""
        close = self.closing.get(self.pos)   # None for an unbalanced '(', which fails below
        key = close and tuple(self.texts[self.pos + 1:close])
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

    def _head(self, kind: str, sep: str) -> int:
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
            if self.numbers.get(self.texts[self.pos]) != 1:
                self.error("metric entries must be +1 or -1")
            self.advance()
            return -1 if negative else 1

        signs = self._list(sign)
        if len(signs) != self.doc.vars.dimension:
            self.error(f"metric needs {self.doc.vars.dimension} entries", kw)
        self.doc.metric = Metric(self.doc.vars, tuple(signs))

    def _parse_scalar(self):
        tok = self._head("scalar", "=")
        self._declare(tok, ScalarDecl(self.texts[tok], self._scalar(f"scalar {self.texts[tok]!r}", tok)))

    def _parse_form(self):
        tok = self._head("form", "=")
        self._declare(tok, FormDecl(self.texts[tok], self._form(self._expr())))

    def _parse_relation(self):
        tok = self._head("relation", ":")
        self.expect_op("d")
        phi = self._form(self._parens())
        eq = self.expect_op("=")
        eta = self._form(self._expr())
        if eta.degree != phi.degree + 1:
            if not eta.is_structurally_zero():
                self.error(
                    f"relation needs deg(eta) = deg(phi)+1, got {eta.degree} and {phi.degree}", eq)
            eta = DifferentialForm.zero(self.doc.vars, min(phi.degree + 1, self.doc.vars.dimension))
        self._declare(tok, RelationDecl(self.texts[tok], phi, eta))

    def _parse_balance(self):
        tok = self._head("balance", ":")
        a_tok = self.expect_op("A")
        self.expect_op("=")
        self.expect_op("(")
        actions = self._list(lambda: self._scalar("action coefficients"))
        self.expect_op(")")
        if len(actions) != self.doc.vars.dimension:
            self.error(f"balance needs {self.doc.vars.dimension} action coefficients", a_tok)
        psi = None
        if self.at_op(","):
            self.advance()
            self.expect_op("psi")
            self.expect_op("=")
            psi = self._scalar("psi")
        self._declare(tok, BalanceDecl(self.texts[tok], BalanceSystem(self.doc.vars, tuple(actions), psi)))

    # expressions: scalars are Expressions; a form (degree >= 1) comes from a differential or name

    def _expr(self) -> Expression | DifferentialForm:
        """A '+'/'-' chain: one pass sums each run of operands of one degree (a scalar's is 0);
        where the degree changes, the run's sum meets the next operand as in a left fold."""
        run = [(1, self._mul_level())]   # (sign, operand) pairs whose sum is the value so far
        while (t := self.texts[self.pos]) == "+" or t == "-":
            op, self.pos = self.pos, self.pos + 1
            sign, right = -1 if t == "-" else 1, self._mul_level()
            if getattr(right, "degree", 0) != getattr(run[0][1], "degree", 0):
                left, right = self._form(self._sum(run)), self._form(right)
                try:
                    right = left + right if sign > 0 else left - right
                except ValueError:
                    self.error(f"cannot add forms of degree {left.degree} and {right.degree}", op)
                run, sign, right = [], 1, right if right.degree else right.coefficient(())
            run.append((sign, right))
        return self._sum(run)

    def _sum(self, run: list) -> Expression | DifferentialForm:
        """The sum of a run of (sign, operand) pairs of one degree, in one build."""
        if len(run) == 1:
            return run[0][1]   # no operand is a form of degree 0, so a run of degree 0 holds Expressions
        return _combine(run) if isinstance(run[0][1], Expression) else _sum_of_forms(run, {})

    def _mul_level(self) -> Expression | DifferentialForm:
        """A '*'/'/' chain of scalars and at most one form; one mul call multiplies the
        scalars.  A bound of expr that the chain passes is blamed on its first token."""
        first = self.pos
        try:
            if (term := self._monomial()) is not None:
                return term
            factors = [self._unary()]
            form = factors.pop() if isinstance(factors[0], DifferentialForm) else None
            while (t := self.texts[self.pos]) == "*" or t == "/":
                op, self.pos = self.pos, self.pos + 1
                right = self._unary()
                if t == "*":
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
                    # a constant divisor is its exact reciprocal, as power(c, -1) would give
                    factors.append(const(Fraction(1, right.value)) if isinstance(right, Const)
                                   else power(right, -1))
            if not factors:
                return form
            scalar = mul(*factors) if len(factors) > 1 else factors[0]
            if form is not None and not isinstance(scalar, Add):
                _sort_key(scalar)   # as mul(scalar, 1) did: a name chain too deep to walk fails at its statement
            return scalar if form is None else form * scalar
        except DomainError as exc:
            self.error(str(exc), first)

    def _monomial(self) -> Expression | None:
        """The monomial chain that starts here as one term (see the module docstring); None,
        with no token consumed, for any other chain and where _unary would nest past MAX_NESTING."""
        texts, ratios, i = self.texts, self.ratios, self.pos
        sign = texts[i] == "-"
        num, den, powers, way, i = -1 if sign else 1, 1, {}, 1, i + sign   # way: -1 after '/'
        deepest = nest = 1 + sign   # _unary calls for the first operand: the most so far, its own
        while True:
            if (t := texts[i]) in ratios and texts[i + 1] != "^":
                p, q = ratios[t][::way]
                if not q:
                    return None   # division by zero
                num, den, i = num * p, den * q, i + 1
            elif self.names.get(t, 0) is None:   # a declared variable
                k, i = 1, i + 1
                if texts[i] == "^":
                    minus = texts[i + 1] == "-"
                    p, q = ratios.get(texts[i + 1 + minus], (0, 0))
                    if q != 1 or texts[i + 2 + minus] == "^":
                        return None
                    k, i, deepest = -p if minus else p, i + 2 + minus, max(deepest, nest + 1 + minus)
                powers[t] = powers.get(t, 0) + way * k
            else:
                return None
            if (op := texts[i]) != "*" and op != "/":
                break
            way, i, nest = -1 if op == "/" else 1, i + 1, 1
        if self.depth + deepest > MAX_NESTING:
            return None
        self.pos, self.peak = i, max(self.peak, self.depth + deepest)
        factors = tuple(Var(n) if k == 1 else Pow(Var(n), k) for n, k in sorted(powers.items()) if k)
        return _from_term(num if den == 1 else Fraction(num, den), factors) if num else ZERO

    def _unary(self) -> Expression | DifferentialForm:
        # every nesting (parentheses, calls, '^' chains, signs) passes here
        if self.depth >= MAX_NESTING:
            self.error(f"expression nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        self.peak = max(self.peak, self.depth)
        try:
            # unary minus binds looser than '^': -x^2 means -(x^2)
            t = self.texts[self.pos]
            if t == "-":
                self.pos += 1
                return -self._unary()
            if t == "+":
                self.pos += 1
                return self._unary()
            return self._wedge_level()
        finally:
            self.depth -= 1

    def _wedge_level(self) -> Expression | DifferentialForm:
        left = self._atom()
        while self.texts[self.pos] == "^":
            op, self.pos = self.pos, self.pos + 1
            right = self._unary()  # right-associative; accepts x^-2
            try:
                if isinstance(left, DifferentialForm) or isinstance(right, DifferentialForm):
                    left = wedge(self._form(left), self._form(right))
                elif not isinstance(right, Const):
                    self.error("exponent must be an integer constant", op)
                elif left == ZERO and right.value < 0:
                    self.error("division by zero", op)
                else:
                    left = power(left, right.value)
            except DomainError as exc:  # a bound of expr, passed by this power or wedge
                self.error(str(exc), op)
        return left

    def _atom(self) -> Expression | DifferentialForm:
        tok = self.pos
        name = self.texts[tok]
        if name in self.names:
            self.pos = tok + 1
            decl = self.names[name]
            if decl is None:
                return var(name)
            if isinstance(decl, ScalarDecl):
                return decl.expr
            if isinstance(decl, FormDecl):
                return decl.form if decl.form.degree else decl.form.coefficient(())
            kind = "relation" if isinstance(decl, RelationDecl) else "balance"
            self.error(f"{name!r} is a {kind} and cannot be used in an expression", tok)
        if name in self.numbers:
            self.pos = tok + 1
            return const(self.numbers[name])
        if name == "(":
            return self._parens()
        if name.isidentifier():
            self.pos = tok + 1
            if name in FUNCTIONS:
                arg = self._parens()
                if isinstance(arg, DifferentialForm):
                    self.error(f"{name} needs a scalar argument", tok)
                return FUNCTIONS[name](arg)
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
