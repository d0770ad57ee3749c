"""DSL: grammar, error positions, canonical printing, round-trip fuzzing."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skewforms import dsl
from skewforms.expr import (
    Const, DomainError, VariableSet, ZERO, const, cos, exp, ln, power, sin, var,
)
from skewforms.forms import DifferentialForm, wedge
from skewforms.duality import Metric
from skewforms.balance import BalanceSystem
from skewforms.dsl import (
    BalanceDecl,
    Document,
    DslError,
    FormDecl,
    RelationDecl,
    ScalarDecl,
    parse,
    print_document,
)

from conftest import random_form

DATA = Path(__file__).parent / "data"


class TestParseBasics:
    def test_one_form(self):
        doc = parse("vars x,y; form w = y*dx + x*dy")
        w = doc.find("w").form
        assert w.degree == 1
        assert w.coefficient((1,)) == var("y")
        assert w.coefficient((2,)) == var("x")

    def test_wedge_annihilation_at_construction(self):
        doc = parse("vars x,y\nform w = dx ^ dx")
        assert doc.find("w").form.is_structurally_zero()

    def test_unknown_variable_with_position(self):
        with pytest.raises(DslError) as err:
            parse("vars x,y\nform w = y*dz")
        assert "unknown variable 'z'" in str(err.value)
        assert err.value.line == 2
        assert err.value.column == 12

    def test_statement_separators(self):
        a = parse("vars x, y; scalar f = x; form w = f*dx")
        b = parse("vars x, y\nscalar f = x\nform w = f*dx")
        assert a == b

    def test_comments(self):
        doc = parse("# heading\nvars x, y  # trailing\nform w = dx\n")
        assert doc.find("w") is not None

    def test_scalar_names_inline(self):
        doc = parse("vars x,y\nscalar f = x^2\nform w = f*dx")
        assert doc.find("w").form.coefficient((1,)) == var("x") ** 2

    def test_form_names_resolve(self):
        doc = parse("vars x,y\nform a = dx\nform b = 2*a")
        assert doc.find("b").form.coefficient((1,)) == const(2)

    def test_metric(self):
        doc = parse("vars x,y\nmetric +1, -1")
        assert doc.metric == Metric(VariableSet(["x", "y"]), (1, -1))

    def test_relation_and_balance(self):
        doc = parse("vars x,y\nrelation r: d(x*y) = y*dx + x*dy\n"
                    "balance b: A = (y, x), psi = x*y")
        rel = doc.find("r")
        assert rel.phi.degree == 0 and rel.eta.degree == 1
        bal = doc.find("b").system
        assert bal.actions == (var("y"), var("x"))
        assert bal.psi == var("x") * var("y")

    def test_decimal_literals_exact(self):
        doc = parse("vars x\nscalar s = 0.5*x")
        assert doc.find("s").expr == const(Fraction(1, 2)) * var("x")


class TestParseErrors:
    CASES = [
        ("form w = dx", "vars declaration must come first"),
        ("vars x; vars y", "vars was already declared"),
        ("vars x,x", "duplicate"),
        ("vars x,dx", "collides with the differential"),
        ("vars x\nscalar dx = 1", "collides with the differential"),
        ("vars x\nscalar sin = 1", "reserved"),
        ("vars x,y\nform a = dx * dy", "use '^'"),
        ("vars x,y\nform a = dx + x", "cannot add forms of degree"),
        ("vars x,y\nscalar s = x^y", "exponent must be an integer constant"),
        ("vars x\nscalar s = 1/0", "division by zero"),
        ("vars x\nscalar s = 1/(x - x)", "division by zero"),
        ("vars x\nscalar s = sin(dx)", "scalar argument"),
        ("vars x\nform f = ", "expected an expression"),
        ("vars x\nform f = (x", "expected ')'"),
        ("vars x\nbalance b: A = (x, x)", "needs 1 action"),
        ("vars x,y\nrelation r: d(x) = x*dx^dy", "deg(eta) = deg(phi)+1"),
        ("vars x\nscalar s = x @", "unexpected character"),
        # every token is lexed before any is parsed
        ("vars x\nscalar s = )\nscalar t = x @", "line 3, column 14: unexpected character '@'"),
        ("vars x\nform w = q", "unknown variable 'q'"),
        ("vars x\nform w = x form q = x", "expected end of statement"),
        # nesting past the cap is an error, not a RecursionError
        ("vars x\nscalar s = " + "(" * 200 + "x" + ")" * 200, "nested more than 100 levels"),
        ("vars x\nscalar s = " + "sin(" * 200 + "x" + ")" * 200, "nested more than 100 levels"),
        ("vars x\nscalar s = x" + "^1" * 500, "nested more than 100 levels"),
        ("vars x\nscalar s = " + "-" * 1000 + "x", "nested more than 100 levels"),
    ]

    @pytest.mark.parametrize("text,fragment", CASES)
    def test_error_messages(self, text, fragment):
        with pytest.raises(DslError) as err:
            parse(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("literal", ["9" * 5001, "0." + "0" * 5000 + "1"],
                             ids=["integer", "decimal"])
    def test_number_literal_past_the_conversion_cap(self, literal):
        with pytest.raises(DslError) as err:
            parse(f"vars x\nform a = x*dx + {literal}*dx")
        assert (err.value.line, err.value.column) == (2, 17)
        assert err.value.message == "number literal has too many digits"

    _BOUND_CASES = [
        # a power or wedge is blamed on its '^', a '*'/'/' chain on its first token
        ("form a = 2^20000*x*dy", (2, 11), "a constant power would need more than 14000 bits"),
        ("form a = y*dx + 3*2^14001*dx", (2, 20), "a constant power would need more than 14000 bits"),
        ("form a = (x + y + z + w + 1)^20*dx", (2, 29), "expansion needs more than 100000 term products"),
        ("scalar s = x*(1 + x + y + z + w)^8*(1 + x + y + z + w)^8", (2, 12),
         "expansion needs more than 100000 term products"),
        ("form a = z*dx - x*(1 + x + y + z + w)^8/y*(1 + x + y + z + w)^8*dy", (2, 17),
         "expansion needs more than 100000 term products"),
        ("form a = (1 + x)*dx ^ ((x + y + z + w + 1)^8*(x + y + z + w + 1)^8*dy)", (2, 24),
         "expansion needs more than 100000 term products"),
    ]

    @pytest.mark.parametrize("text, position, message", _BOUND_CASES,
                             ids=["power", "power-in-chain", "expansion", "chain", "second-chain", "nested"])
    def test_a_bound_passed_while_parsing_has_a_position(self, text, position, message):
        with pytest.raises(DslError) as err:
            parse(f"vars x, y, z, w\n{text}\n")
        assert ((err.value.line, err.value.column), err.value.message) == (position, message)

    def test_a_bound_passed_elsewhere_is_blamed_on_its_declaration(self, monkeypatch):
        def refuse(*_):
            raise DomainError("a bound of expr")

        monkeypatch.setattr(dsl, "BalanceSystem", refuse)
        with pytest.raises(DslError) as err:
            parse("vars x, y\n\n  balance b: A = (x, y)\n")
        assert (err.value.line, err.value.column, err.value.message) == (3, 3, "a bound of expr")

    def test_every_error_carries_position(self):
        for text, _ in self.CASES:
            try:
                parse(text)
            except DslError as err:
                assert err.line >= 1 and err.column >= 1


class TestPrinting:
    def test_round_trip_simple(self):
        text = "vars x, y\nform w = y*dx + x*dy\n"
        doc = parse(text)
        assert print_document(doc) == text

    def test_sign_canonicalization(self):
        doc = parse("vars x,y\nform w = x*dy ^ dx")
        assert "form w = -x*dx^dy" in print_document(doc)

    def test_zero_form_prints_zero(self):
        doc = parse("vars x,y\nform w = dx^dx")
        assert "form w = 0" in print_document(doc)

    def test_fractional_base_keeps_its_parentheses(self):
        doc = parse("vars x\nscalar s = (2/3)^(1/2)*x\nscalar t = (-1/2)^(1/3) + (3/4)^(-1/2)\n")
        out = print_document(doc)
        assert "scalar s = (2/3)^(1/2)*x" in out
        assert "scalar t = (-1/2)^(1/3) + 4/3*(3/4)^(1/2)" in out
        assert parse(out) == doc

    def test_parse_print_fixpoint(self):
        text = ("vars x, y\nmetric +1, -1\nscalar f = x^2 + y^2\n"
                "form grad = 2*x*dx + 2*y*dy\nrelation r: d(x*y) = y*dx\n"
                "balance b: A = (y, x), psi = x*y\n")
        doc = parse(text)
        out = print_document(doc)
        assert parse(out) == doc
        assert print_document(parse(out)) == out


# --- fuzzing ---------------------------------------------------------------------

NAME_POOL = ("x", "y", "z", "u", "v", "w")
FUNCS = (sin, cos, exp, ln)


def random_expression(rng, names, depth=2):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.4:
            return const(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        return var(rng.choice(names))
    roll = rng.random()
    if roll < 0.35:
        return (random_expression(rng, names, depth - 1)
                + random_expression(rng, names, depth - 1))
    if roll < 0.6:
        return (random_expression(rng, names, depth - 1)
                * random_expression(rng, names, depth - 1))
    if roll < 0.72:
        base = random_expression(rng, names, depth - 1)
        e = rng.choice([-2, -1, 2, 3])
        if base == ZERO and e < 0:
            return base
        return power(base, e)
    if roll < 0.78:
        base = var(rng.choice(names))
        return power(base, Fraction(rng.choice([1, 3]), 2))
    return rng.choice(FUNCS)(random_expression(rng, names, depth - 1))


def random_document(rng) -> Document:
    n = rng.randint(1, 3)
    names = list(rng.sample(NAME_POOL, n))
    vs = VariableSet(names)
    doc = Document(vars=vs)
    if rng.random() < 0.4:
        doc.metric = Metric(vs, tuple(rng.choice([1, -1]) for _ in range(n)))
    counter = 0
    scalars = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(["scalar", "form", "relation", "balance"])
        name = f"{kind[0]}{counter}"
        counter += 1
        if kind == "scalar":
            e = random_expression(rng, names)
            doc.declarations.append(ScalarDecl(name, e))
            scalars.append(e)
        elif kind == "form":
            degree = rng.randint(0, n)
            form = DifferentialForm(vs, degree, {
                key: random_expression(rng, names)
                for key in __import__("itertools").combinations(range(1, n + 1), degree)
                if rng.random() < 0.8
            })
            doc.declarations.append(FormDecl(name, form))
        elif kind == "relation":
            p = rng.randint(0, n - 1)
            phi = random_form(rng, vs, p)
            if rng.random() < 0.5:
                from skewforms.forms import exterior_derivative
                eta = exterior_derivative(phi)
            else:
                eta = random_form(rng, vs, p + 1)
            doc.declarations.append(RelationDecl(name, phi, eta))
        else:
            actions = tuple(random_expression(rng, names, 1) for _ in range(n))
            psi = random_expression(rng, names, 1) if rng.random() < 0.5 else None
            doc.declarations.append(BalanceDecl(name, BalanceSystem(vs, actions, psi)))
    return doc


def test_parse_print_identity_fuzzed():
    """500 random documents survive print -> parse structurally."""
    rng = random.Random(0xD0C5)
    for i in range(500):
        doc = random_document(rng)
        text = print_document(doc)
        try:
            back = parse(text)
        except DslError as err:
            raise AssertionError(f"doc {i} failed to reparse: {err}\n{text}")
        assert back == doc, f"doc {i} round-trip mismatch:\n{text}"
        assert print_document(back) == text


def test_no_abort_on_random_bytes():
    """Arbitrary byte input either parses or raises DslError, never crashes."""
    rng = random.Random(0xFFFF)
    for _ in range(2000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        try:
            parse(blob)
        except DslError:
            pass


def test_no_abort_on_mutated_documents():
    rng = random.Random(0xABCD)
    base = ("vars x, y\nmetric +1, -1\nscalar f = x^2 + y^2\n"
            "form w = y*dx + x*dy\nrelation r: d(f) = 2*x*dx + 2*y*dy\n"
            "balance b: A = (y, x), psi = x*y\n")
    alphabet = "abcdxyz01()+-*/^,;:=# \n"
    for _ in range(2000):
        chars = list(base)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice(alphabet)
        try:
            parse("".join(chars))
        except DslError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_hypothesis_text_never_crashes(text):
    try:
        parse(text)
    except DslError:
        pass


# --- lexer -----------------------------------------------------------------------

_REF_OPS = set("+-*/^(),:;=")
_REF_DIGITS = set("0123456789")
_REF_ALPHA = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def _reference_tokenize(text: str) -> list[tuple]:
    """The earlier lexer, which counted columns by hand: (kind, text, line, column) for
    each token, ending in EOF.  The oracle for the parser's regex lexer."""
    tokens: list[tuple] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(("NEWLINE", "\n", line, col))
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
        if ch in _REF_DIGITS:
            start = i
            start_col = col
            while i < n and text[i] in _REF_DIGITS:
                i += 1
                col += 1
            if i < n and text[i] == "." and i + 1 < n and text[i + 1] in _REF_DIGITS:
                i += 1
                col += 1
                while i < n and text[i] in _REF_DIGITS:
                    i += 1
                    col += 1
            literal = text[start:i]
            tokens.append(("NUMBER", literal, line, start_col))
            continue
        if ch in _REF_ALPHA:
            start = i
            start_col = col
            while i < n and (text[i] in _REF_ALPHA or text[i] in _REF_DIGITS):
                i += 1
                col += 1
            tokens.append(("IDENT", text[start:i], line, start_col))
            continue
        if ch in _REF_OPS:
            tokens.append(("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def _lex(tokenize, text):
    try:
        return tokenize(text)
    except DslError as err:
        return ("error", err.message, err.line, err.column)


LEXER_PIECES = ("\r", "\t", "\n", "\f", " ", "#", ".", "1.", "٣", "é", "@",
                "x", "dx", "_a9", "0", "12", "3.25", "+", "-", "^", "(", ")", ",", ";", ":", "=")


def _position(parser, at):
    try:
        parser.error("", at)
    except DslError as err:
        return err.line, err.column


def test_lexer_matches_reference_on_fuzzed_text():
    """The parser's token texts and literal values, the position it gives each token and
    EOF, and its first lexer error match the reference lexer's."""
    rng = random.Random(0x1E7)
    for _ in range(20_000):
        text = "".join(rng.choice(LEXER_PIECES) for _ in range(rng.randrange(0, 24)))
        expected = _lex(_reference_tokenize, text)
        parser = _lex(dsl._Parser, text)
        if isinstance(expected, tuple):   # a lexer error: its message, line and column
            assert parser == expected, repr(text)
            continue
        assert parser.texts == [tok[1] for tok in expected], repr(text)
        assert parser.numbers == {tok[1]: Fraction(tok[1]) for tok in expected if tok[0] == "NUMBER"}
        positions = [_position(parser, i) for i in range(len(expected))]
        assert positions == [tok[2:] for tok in expected], repr(text)


def test_parse_never_scans_the_document(monkeypatch):
    """Names resolve through the parser's declaration table, so a chain of
    references costs no linear scan per reference."""
    calls = []
    real_find = Document.find

    def spy(self, name):
        calls.append(name)
        return real_find(self, name)

    monkeypatch.setattr(Document, "find", spy)
    chain = "vars x, y\nscalar s0 = x\n" + "".join(
        f"scalar s{i} = s{i - 1} + y\n" for i in range(1, 2000))
    texts = [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.forms"))]
    for text in texts + [chain]:
        parse(text)
    assert calls == []
    assert parse(chain).find("s1999").expr == var("x") + 1999 * var("y")


# --- scalar chains -----------------------------------------------------------------


class _PairwiseParser(dsl._Parser):
    """The reference for chain folding and group reuse: every value is a
    DifferentialForm, each operator combines two of them and every group is
    parsed afresh, as the parser did before it folded scalar chains into one
    add or mul call and parsed each repeated group once."""

    def _parens(self):
        self.expect_op("(")
        inner = self._expr()
        self.expect_op(")")
        return inner

    def _expr(self):
        left = self._mul_level()
        while self.at_op("+") or self.at_op("-"):
            op = self.advance()
            right = self._mul_level()
            if self.texts[op] == "-":
                right = -right
            try:
                left = left + right
            except ValueError:
                self.error(f"cannot add forms of degree {left.degree} and {right.degree}", op)
        return left

    def _mul_level(self):
        first = self.pos
        try:
            left = self._unary()
            while self.at_op("*") or self.at_op("/"):
                op = self.advance()
                right = self._unary()
                if self.texts[op] == "*":
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
        except DomainError as exc:  # a bound passed in the chain, blamed on its first token
            self.error(str(exc), first)

    def _wedge_level(self):
        left = self._atom()
        while self.at_op("^"):
            op = self.advance()
            right = self._unary()
            try:
                if left.degree == 0 and right.degree == 0:
                    exponent = right.coefficient(())
                    if not isinstance(exponent, Const):
                        self.error("exponent must be an integer constant", op)
                    base = left.coefficient(())
                    if base == ZERO and exponent.value < 0:
                        self.error("division by zero", op)
                    left = self._form(power(base, exponent.value))
                else:
                    left = wedge(left, right)
            except DomainError as exc:  # and one passed by a power or wedge on its '^'
                self.error(str(exc), op)
        return left

    def _atom(self):
        tok, name = self.pos, self.texts[self.pos]
        if name in dsl.FUNCTIONS:
            self.advance()
            arg = self._parens()
            if arg.degree != 0:
                self.error(f"{name} needs a scalar argument", tok)
            return self._form(dsl.FUNCTIONS[name](arg.coefficient(())))
        return self._form(super()._atom())


def _outcome(parser, text):
    try:
        return print_document(parser(text).parse_document())
    except DslError as err:
        return ("DslError", err.message, err.line, err.column)
    except (ArithmeticError, ValueError) as err:
        return (type(err).__name__, str(err))


def _random_chain_text(rng, refs, groups, depth=3):
    """Expression text mixing scalars, differentials and names over x, y, z;
    groups collects the text of each parenthesized group, and a later group
    sometimes repeats one of them."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return rng.choice(("dx", "dy", "dz"))
        return rng.choice(("x", "y", "z", "0", "1", "2", "3", "0.5", *refs))
    if groups and rng.random() < 0.2:
        return rng.choice(groups)
    roll = rng.random()
    if roll < 0.6:
        operands = [_random_chain_text(rng, refs, groups, depth - 1) for _ in range(rng.randint(2, 4))]
        text = operands[0]
        for operand in operands[1:]:
            text += rng.choice(" + | - | + | - |*|*|*|/|/|^".split("|")) + operand
        if rng.random() < 0.5:
            return text
        group = f"({text})"
    elif roll < 0.7:
        return "-" + _random_chain_text(rng, refs, groups, depth - 1)
    elif roll < 0.8:
        group = f"({_random_chain_text(rng, refs, groups, depth - 1)})"
        groups.append(group)
        return f"{group}^{rng.choice(['2', '3', '-1', '(1/2)'])}"
    else:
        group = f"{rng.choice(['sin', 'cos', 'exp', 'ln'])}({_random_chain_text(rng, refs, groups, depth - 1)})"
    groups.append(group)
    return group


CHAIN_EDGE_CASES = ("dx - dx + x", "x + dx - dx", "0*dx + x", "x/0", "dx*dy", "dx/x",
                    "sin(dx)", "2^x", "x - x + dx", "dx*x*y/z", "x*(dx - dx)*dy",
                    "(x^2)^(1/2)*(x^2)^(1/2)*x^-2", "x^-2*(x^2)^(1/2)*(x^2)^(1/2)",
                    # past the 10^5 term products of one mul, and of one power
                    pytest.param("z*(" + " + ".join(f"x^{i}" for i in range(1, 401)) + ")*("
                                 + " + ".join(f"y^{i}" for i in range(1, 401)) + ")",
                                 id="z*(x + ... + x^400)*(y + ... + y^400)"),
                    "z + (x + y + z + 1)^40")


@pytest.mark.parametrize("expression", CHAIN_EDGE_CASES)
@pytest.mark.parametrize("keyword", ["scalar", "form"])
def test_chain_edge_cases_match_the_pairwise_parser(keyword, expression):
    text = f"vars x, y, z\n{keyword} s = {expression}\n"
    assert _outcome(dsl._Parser, text) == _outcome(_PairwiseParser, text)


def test_folded_chains_match_the_pairwise_parser():
    """The parser that folds scalar chains gives the same document, or the
    same error at the same line and column, as a pairwise left fold."""
    rng = random.Random(0xC4A1)
    for _ in range(1000):
        lines, refs, groups = ["vars x, y, z"], [], []
        for i in range(rng.randint(1, 4)):
            lines.append(f"{rng.choice(['scalar', 'form'])} n{i} = {_random_chain_text(rng, refs, groups)}")
            refs.append(f"n{i}")
        text = "\n".join(lines) + "\n"
        assert _outcome(dsl._Parser, text) == _outcome(_PairwiseParser, text), text


def test_repeated_groups_are_parsed_once():
    parsed = []

    class Counting(dsl._Parser):
        def _expr(self):
            parsed.append(self.pos)
            return super()._expr()

    for text, fresh in [
        # the two statements and the first (x + y)
        ("vars x, y\nscalar a = (x + y)^2*(x + y)\nscalar b = sin(x + y) + (x + y)\n", 3),
        # a group is its tokens, whatever the blanks between them
        ("vars x, y\nscalar a = (x + y)/(x+y)\n", 2),
    ]:
        parsed.clear()
        assert Counting(text).parse_document() == _PairwiseParser(text).parse_document()
        assert len(parsed) == fresh, text


@pytest.mark.parametrize("signs", range(dsl.MAX_NESTING - 12, dsl.MAX_NESTING + 1))
def test_a_group_repeated_near_the_nesting_limit_keeps_its_error(signs):
    """A group first parsed shallow and repeated deep is reused only where a
    fresh parse would not pass MAX_NESTING; otherwise it fails as before.
    The group in b reuses the one in a, and still counts its full depth."""
    group = "(" * 6 + "x" + ")" * 6
    text = f"vars x\nscalar a = (((x)))\nscalar b = {group}\nscalar c = {'-' * signs}{group}\n"
    outcome = _outcome(dsl._Parser, text)
    assert outcome == _outcome(_PairwiseParser, text)
    if signs + 7 > dsl.MAX_NESTING:
        message = f"expression nested more than {dsl.MAX_NESTING} levels deep"
        assert outcome == ("DslError", message, 4, 12 + dsl.MAX_NESTING), outcome
    else:
        assert outcome == "vars x\nscalar a = x\nscalar b = x\nscalar c = " + "-" * (signs % 2) + "x\n"


# --- monomial chains -------------------------------------------------------------------


class _DescentParser(dsl._Parser):
    """The parser with every chain read by recursive descent."""

    def _monomial(self):
        return None


def _nested(depth, chain):
    return "(" * depth + chain + ")" * depth


MONOMIAL_EDGE_CASES = {
    "divide-by-zero": "2/0*x", "power-chain": "x^2^3", "variable-exponent": "2^x",
    "negative-exponent": "x^-2*y", "merged": "x*x^2", "zero-exponent": "x^0*y", "zero": "0*x",
    "decimal": "2.5*x", "divide": "x/3*y", "huge-literal": f"x*{2**14001}*y",
    "huge-product": f"{2**7001}*x*{2**7001}", "huge-cancelled": f"{2**14001}/{2**14001}*x",
    "differential": "x*dx", "function": "2*sin(x)", "negated": "-3/2*x^2*y", "signed-exponent": "-x^-2*y",
    # _unary nests a chain 1 deep, an operand's exponent 2, a first operand's sign one more
    **{f"nested-{chain}-{depth}": _nested(depth, chain)
       for chain, deepest in [("x*y/2", 1), ("x*y^2", 2), ("-x*y", 2), ("-x^-2*y", 4)]
       for depth in (dsl.MAX_NESTING - deepest, dsl.MAX_NESTING - deepest + 1)},
}


@pytest.mark.parametrize("expression", MONOMIAL_EDGE_CASES.values(), ids=MONOMIAL_EDGE_CASES.keys())
@pytest.mark.parametrize("keyword", ["scalar", "form"])
def test_monomial_edge_cases_match_the_pairwise_parser(keyword, expression):
    text = f"vars x, y, z\n{keyword} s = {expression}\n"
    assert _outcome(dsl._Parser, text) == _outcome(_PairwiseParser, text) == _outcome(_DescentParser, text)


def test_monomial_chains_match_the_pairwise_parser():
    rng = random.Random(0x3017)
    operands = ["x", "y", "z", "0", "1", "3", "12", "0.5", "2.5", "x^2", "y^-1", "z^0", "x^-3", "2^2", "x^y"]
    for _ in range(1000):
        chain = rng.choice(["", "", "-"]) + rng.choice(operands)
        for _ in range(rng.randint(0, 5)):
            chain += rng.choice("**/") + rng.choice(operands)
        text = f"vars x, y, z\nscalar a = {chain}\nform b = {chain}*dx + ({chain})*dy\n"
        assert _outcome(dsl._Parser, text) == _outcome(_PairwiseParser, text) == _outcome(_DescentParser, text), text


def test_a_monomial_chain_calls_no_general_path(monkeypatch):
    def fail(*args):
        raise AssertionError(f"general path called with {args}")

    text = "vars x, y, z\nscalar a = -3/2*x^2*y/5*x^-1*2.5\nscalar b = 0*z\nform c = x*y^3 - 7*z\n"
    # a chain as deep as _unary lets it nest
    text += "".join(f"scalar n{i} = {_nested(dsl.MAX_NESTING - deepest, chain)}\n"
                    for i, (chain, deepest) in enumerate([("x*y/2", 1), ("x*y^2", 2), ("-x*y", 2), ("-x^-2*y", 4)]))
    expected = print_document(parse(text))
    for name in ("mul", "power", "const"):
        monkeypatch.setattr(dsl, name, fail)
    assert print_document(parse(text)) == expected
    assert expected.startswith("vars x, y, z\nscalar a = -3/4*x*y\nscalar b = 0\nform c = x*y^3 - 7*z\n")


@pytest.mark.parametrize("signs", range(dsl.MAX_NESTING - 9, dsl.MAX_NESTING - 3))
def test_a_repeated_monomial_group_keeps_its_nesting(signs):
    """A chain read in one loop counts the nesting _unary would give it, 6 for this
    group, so a deep repeat is reused only where a fresh parse would not fail."""
    group = "((-x^-2*y))"
    text = f"vars x, y\nscalar a = {group}\nscalar b = {'-' * signs}{group}\n"
    outcome = _outcome(dsl._Parser, text)
    assert outcome == _outcome(_DescentParser, text) == _outcome(_PairwiseParser, text)
    assert (outcome[0] == "DslError") == (signs + 6 > dsl.MAX_NESTING)
    parsed = []

    class Counting(dsl._Parser):
        def _expr(self):
            parsed.append(self.pos)
            return super()._expr()

    if signs + 6 <= dsl.MAX_NESTING:
        Counting(text).parse_document()
        assert len(parsed) == 4   # a and its two groups, then b, which reuses the outer group
