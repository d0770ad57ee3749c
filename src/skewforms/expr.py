"""Symbolic scalar expressions used as differential-form coefficients.

Expression trees are immutable.  Build them through the factory functions
(``const``, ``var``, ``add``, ``mul``, ``power``, ``sin``, ``cos``, ``exp``,
``ln``) or the overloaded arithmetic operators, which all canonicalize on
construction.  The canonical form is a fully expanded sum of terms: each
term is an exact rational constant times a product of atomic powers, where
an atom is a variable, one of the elementary functions sin/cos/exp/ln, or a
power of a base that cannot be expanded (a sum raised to a negative or
fractional exponent).  Two expressions that normalize to the same tree
compare equal with ``==``.  A sum, difference or negation is one pass over
the parts' terms; each monomial's coefficients add as integers over the lcm
of their denominators.  A product, or a sum of products (one key of a
wedge), expands all its sums in one map: every base is an atom, a monomial
packs each exponent (an integer over the lcm of the exponents' denominators,
plus a bias that makes it nonnegative) into a field of one int, atoms in key
order, and each coefficient is an integer over one common denominator, so
two terms multiply by one int sum and one int product and each output term
is built once (sparse expansion after Johnson 1974 and Monagan and Pearce
2009); a term whose radicals or powers of a sum join goes through mul once.
A constant times a sum scales the sum's terms in their order.
The rules for one base raised to a power (constant roots and radicals, a
power of a power, an integer power of a product, the content of a sum) live
in one table, ``_split``; mul applies it to each base it accumulates, so
(x*y)^(1/2) squared is x*y, and a power is the product of its one factor.
A bare sum joins a negative power of its base through its signed content,
so no term holds two factors of one base and (-1 - x)*(1 + x)^-1 is -1.
A derivative lowers each power of the variable in place and sums the
chain-rule products of the other factors in one expansion, into a map from
monomials to coefficients.  Each node computes its sort key once, on first use,
and keeps each derivative: the map, or its tree once a caller asks.  Nodes are
interned: a class's ``__new__`` returns the one live node with the given
fields from a table of weak references, which inserts by ``dict.setdefault``
and removes only dead entries, so threads that build one value at once get one
node.  ``==`` and ``hash`` are then identity, in C (hashing and comparing
trees took a fifth of the symbolic benchmark), equal trees share one
derivative memo, and no output may iterate a set of nodes, whose order follows
addresses.  Nodes are plain slotted classes, not dataclasses: importing
``dataclasses`` took about a third of the start-up of a CLI call.

Constants and exponents are exact rationals with one representation: a
plain ``int`` when the denominator is 1, otherwise a ``Fraction`` with
denominator > 1.  ``int`` and ``Fraction`` compare and hash alike, so the
choice never changes equality.  Hot paths build no throwaway ``Fraction``: a
coefficient passed on unchanged keeps its object (no ``0 + c``, no ``1 * c``),
and a product (``_product``) or ratio of ints is one only where it is not an int.
Floats are rejected so that structural zero tests (e.g. dd = 0) stay exact.

Evaluation compiles a tree to straight-line Python code.  One code object is
kept per distinct generated source per process, for the 256 last used; the
cache keys on source text and holds no nodes.

Zero-testing is three-valued.  "zero" is certified only by exact
normalization, including clearing denominators of rational functions.
"nonzero" is certified by an exact nonzero constant, a polynomial other than
0 or a randomized numeric witness.  Everything else is "unknown".
"""

from __future__ import annotations

import functools
import math
import random
import weakref
from _weakref import _remove_dead_weakref
from fractions import Fraction
from operator import itemgetter
from types import CodeType, FunctionType
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Pow",
    "Func",
    "VariableSet",
    "DomainError",
    "UnknownVariableError",
    "ZERO",
    "ONE",
    "const",
    "var",
    "add",
    "mul",
    "power",
    "sin",
    "cos",
    "exp",
    "ln",
    "differentiate",
    "substitute",
    "evaluate",
    "compile_expression",
    "CompiledExpression",
    "free_variables",
    "is_zero",
    "to_text",
]

PROBE_POINTS = 64
PROBE_THRESHOLD = 1e-9
PROBE_BOX = 2.0


class DomainError(ArithmeticError):
    """Numeric evaluation left the real domain (ln <= 0, 1/0, overflow), or an
    exact result would pass a bound: _MAX_EXPANSION_PRODUCTS term products in
    one expansion, or _MAX_CONSTANT_BITS bits in a constant or a power of one."""


class UnknownVariableError(ValueError):
    """A variable name is unbound or outside the declared variable set."""


def _coerce(value):
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, Fraction)):
        return const(value)
    return None


class _Record:
    """Equality, ``repr`` and pickling over the fields ``__match_args__`` names, in
    constructor order; unhashable unless a subclass defines ``__hash__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def _immutable(self, *_):
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Ref(weakref.ref):
    __slots__ = ("key", "pin")  # its table key, and a node it keeps alive (see _intern)


# key -> a weak reference to the one live node it stands for.  A key names a child by id, or
# hashes the children of a sum or product (checked on a hit): a key that held a node would keep
# it alive, and through a derivative memo (d sin = cos, d cos = -sin) a node above it, for good.
_NODES: dict[tuple, _Ref] = {}


def _drop(ref: _Ref, remove=_remove_dead_weakref, nodes=_NODES) -> None:
    remove(nodes, ref.key)  # deletes the entry only while its reference is dead


def _intern(node: Expression, key: tuple, children: tuple | None = None) -> Expression:
    """Insert a node that a lookup under key missed, or return the equal live node
    another thread inserted first.  A sum or product whose hash key holds another
    node goes under its children's ids and pins that node, so that lookups of it
    keep going past the hash key while it lives."""
    ref = _Ref(node, _drop)
    ref.key = key
    while (old := _NODES.setdefault(ref.key, ref)) is not ref:
        if (live := old()) is None:
            _remove_dead_weakref(_NODES, ref.key)
        elif children is None or live._fields() == (children,):
            return live
        else:
            ref.key, ref.pin = (type(node), *map(id, children)), live
    return node


class Expression(_Record):
    """Base node. Instances built via the factories are always canonical.  Each kind
    writes out its ``__new__``, which runs on every build: generic loops over the
    fields made the symbolic benchmark 17% slower."""

    __slots__ = ("_key", "_derivatives", "__weakref__")
    __setattr__ = __delattr__ = _immutable
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __add__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _combine(((1, self), (-1, other)))

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _combine(((1, other), (-1, self)))

    def __mul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else mul(self, power(other, -1))

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else mul(other, power(self, -1))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return _combine(((-1, self),))

    def __str__(self):
        return to_text(self)


class Const(Expression):
    __slots__ = __match_args__ = ("value",)

    def __new__(cls, value: int | Fraction):
        # a value keys by its ratio: hashing a Fraction runs Python code
        if (ref := _NODES.get(key := (cls, *value.as_integer_ratio()))) and (node := ref()):
            return node
        if abs(key[1]) > _MAX_CONSTANT or key[2] > _MAX_CONSTANT:
            raise DomainError(f"a constant would need more than {_MAX_CONSTANT_BITS} bits")
        node = object.__new__(cls)
        object.__setattr__(node, "value", _rational(value))
        return _intern(node, key)


class Var(Expression):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str):
        if (ref := _NODES.get(key := (cls, name))) and (node := ref()):
            return node
        node = object.__new__(cls)
        object.__setattr__(node, "name", name)
        return _intern(node, key)


class Add(Expression):
    __slots__ = __match_args__ = ("terms",)

    def __new__(cls, terms: tuple[Expression, ...]):
        if (ref := _NODES.get(key := (cls, hash(terms)))) and (node := ref()) and node.terms == terms:
            return node
        node = object.__new__(cls)
        object.__setattr__(node, "terms", terms)
        return _intern(node, key, terms)


class Mul(Expression):
    __slots__ = __match_args__ = ("factors",)

    def __new__(cls, factors: tuple[Expression, ...]):
        if (ref := _NODES.get(key := (cls, hash(factors)))) and (node := ref()) and node.factors == factors:
            return node
        node = object.__new__(cls)
        object.__setattr__(node, "factors", factors)
        return _intern(node, key, factors)


class Pow(Expression):
    __slots__ = __match_args__ = ("base", "exponent")

    def __new__(cls, base: Expression, exponent: int | Fraction):
        if (ref := _NODES.get(key := (cls, id(base), *exponent.as_integer_ratio()))) and (node := ref()):
            return node
        node = object.__new__(cls)
        object.__setattr__(node, "base", base)
        object.__setattr__(node, "exponent", _rational(exponent))
        return _intern(node, key)


class Func(Expression):
    __slots__ = __match_args__ = ("name", "arg")

    def __new__(cls, name: str, arg: Expression):
        if (ref := _NODES.get(key := (cls, name, id(arg)))) and (node := ref()):
            return node
        node = object.__new__(cls)
        object.__setattr__(node, "name", name)
        object.__setattr__(node, "arg", arg)
        return _intern(node, key)


def _rational(value) -> int | Fraction:
    """An exact rational as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _product(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """a*b for exact rationals, with no Fraction built where the product is an integer."""
    num, den = a.numerator * b.numerator, a.denominator * b.denominator
    return num // den if num % den == 0 else Fraction(num, den)


def const(value) -> Const:
    """Exact rational constant. Floats are rejected; use Fraction or str."""
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int or str")
    return Const(_rational(value))


# str() of an int stops at 4300 digits (about 14,284 bits), so every admitted constant prints
_MAX_CONSTANT_BITS = 14_000
_MAX_CONSTANT = 2**_MAX_CONSTANT_BITS
ZERO = const(0)
ONE = const(1)


def var(name: str) -> Var:
    if not name or not name.isidentifier():
        raise ValueError(f"not a valid variable name: {name!r}")
    return Var(name)


class VariableSet:
    """Ordered, distinct coordinate names; dimension is the name count."""

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("a variable set needs at least one name")
        seen = set()
        for name in names:
            if not name or not name.isidentifier():
                raise ValueError(f"not a valid variable name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name: {name!r}")
            seen.add(name)
        object.__setattr__(self, "names", names)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return VariableSet, (self.names,)  # the default restore would go through __setattr__

    @property
    def dimension(self) -> int:
        return len(self.names)

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name):
        return name in self.names

    def position(self, name: str) -> int:
        """1-based index of a coordinate name."""
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise UnknownVariableError(f"unknown variable: {name!r}") from None

    def name_at(self, index: int) -> str:
        """Coordinate name at a 1-based index."""
        if not 1 <= index <= len(self.names):
            raise IndexError(f"coordinate index out of range: {index}")
        return self.names[index - 1]

    def __eq__(self, other):
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableSet({', '.join(self.names)})"


# --- canonicalization -------------------------------------------------------

def _sort_key(e: Expression):
    try:
        return e._key
    except AttributeError:
        object.__setattr__(e, "_key", _SORT_KEYS[type(e)](e))
        return e._key


# each key is (rank, height, ...), so the keys of nodes of different heights compare in O(1)
_SORT_KEYS = {
    Const: lambda e: (0, 0, e.value),
    Var: lambda e: (1, 0, e.name),
    Func: lambda e: (2, 1 + (k := _sort_key(e.arg))[1], e.name, k),
    Pow: lambda e: (3, 1 + (k := _sort_key(e.base))[1], k, e.exponent),
    Mul: lambda e: (4, 1 + max(map(itemgetter(1), ks := tuple(map(_sort_key, e.factors)))), ks),
    Add: lambda e: (5, 1 + max(map(itemgetter(1), ks := tuple(map(_sort_key, e.terms)))), ks),
}


def _as_term(e: Expression) -> tuple[int | Fraction, tuple[Expression, ...]]:
    """Split a canonical term into (rational coefficient, monomial factors)."""
    if isinstance(e, Const):
        return e.value, ()
    if isinstance(e, Mul):
        if isinstance(e.factors[0], Const):
            return e.factors[0].value, e.factors[1:]
        return 1, e.factors
    return 1, (e,)


def _terms(e: Expression) -> tuple[Expression, ...]:
    return e.terms if isinstance(e, Add) else (e,)


def _exponents(term: Expression, names: Sequence[str]) -> tuple[tuple[int, ...], Expression] | None:
    """Split a canonical term into (its exponent of each name, in order, the
    term without their powers); None where a name has a negative or
    fractional power or sits inside any other factor, so the term is not
    polynomial in them."""
    coeff, mono = _as_term(term)
    exponents = dict.fromkeys(names, 0)
    rest = []
    for f in mono:
        base, e = _as_power(f)
        if isinstance(base, Var) and base.name in exponents:
            if e.denominator != 1 or e < 0:
                return None
            exponents[base.name] += e
        elif not free_variables(f).isdisjoint(exponents):
            return None
        else:
            rest.append(f)
    return tuple(exponents.values()), _from_term(coeff, tuple(rest))


def _from_term(coeff: int | Fraction, monomial: tuple[Expression, ...]) -> Expression:
    coeff = _rational(coeff)
    if not monomial:
        return Const(coeff)
    if coeff == 1:
        return monomial[0] if len(monomial) == 1 else Mul(monomial)
    return Mul((Const(coeff),) + monomial)


def _as_power(e: Expression) -> tuple[Expression, int | Fraction]:
    if isinstance(e, Pow):
        return e.base, e.exponent
    return e, 1


def _factor_key(f: Expression):
    base, e = _as_power(f)
    return (_sort_key(base), e)


def _assemble(acc: dict[tuple[Expression, ...], int | Fraction]) -> Expression:
    """The canonical sum of a {monomial: coefficient} map: drop zeros, sort, build terms."""
    kept = sorted(((mono, c) for mono, c in acc.items() if c != 0),
                  key=lambda item: tuple(map(_sort_key, item[0])))
    if not kept:
        return ZERO
    out = [_from_term(c, mono) for mono, c in kept]
    return out[0] if len(out) == 1 else Add(tuple(out))


def _combine(pairs: Iterable[tuple[int | Fraction, Expression | dict]]) -> Expression:
    """The canonical sum of k*part over (rational k, canonical tree or {monomial: coefficient} map)
    pairs, in one walk.  Each monomial's k*coeff add as integers over the lcm of their denominators:
    a lone one with k = 1 keeps its coefficient, and a sum builds no Fraction where it is integral or 0."""
    acc: dict[tuple[Expression, ...], list] = {}
    for k, part in pairs:
        for coeff, mono in zip(part.values(), part) if type(part) is dict else map(_as_term, _terms(part)):
            acc.setdefault(mono, []).append((k, coeff))
    for mono, ks in acc.items():
        if len(ks) == 1 and ks[0][0] == 1:
            acc[mono] = ks[0][1]
            continue
        num, den = 0, 1
        for k, c in ks:
            lcm = den if (d := k.denominator * c.denominator) == den else math.lcm(den, d)
            num, den = num * (lcm // den) + k.numerator * c.numerator * (lcm // d), lcm
        acc[mono] = num // den if num % den == 0 else Fraction(num, den)
    return _assemble(acc)


def add(*parts: Expression) -> Expression:
    """Canonical sum: flatten, fold constants, collect like terms, sort."""
    return _combine((1, part) for part in parts)


def _factors(parts: Iterable[Expression]) -> tuple[int | Fraction, tuple[Expression, ...], list[Add]]:
    """The product of canonical parts as (rational coefficient, sorted monomial, the sums to
    distribute), or (0, (), []).  Sums accumulate in the same base/exponent table as their
    inverse-power atoms, so (x+y) * (x+y)^-1 cancels exactly before any distribution."""
    coeff = 1
    powers: dict[Expression, int | Fraction] = {}
    stack = list(parts)
    while stack:
        p = stack.pop()
        if isinstance(p, Mul):
            stack.extend(p.factors)
        elif isinstance(p, Const):
            if p.value == 0:
                return 0, (), []
            coeff = p.value if coeff == 1 else coeff * p.value
        else:
            base, e = _as_power(p)
            powers[base] = powers.get(base, 0) + e
        if not stack:
            # a base that _split splits goes back on the stack in pieces: (x*y)^(1/2) squared is x*y
            for b in [b for b, e in powers.items()
                      if e != 0 and not isinstance(b, (Var, Func)) and not _expands(b, e)]:
                if (split := _split(b, _rational(powers[b]))) is not None:
                    del powers[b]
                    coeff *= split[0]
                    stack.extend(split[1])
    if any(e < 0 and isinstance(b, Add) for b, e in powers.items()):
        # a bare sum joins a negative power of its base through its signed content: (-2 - 2*x)*(1 + x)^-1 = -2
        for b, e in [(b, e) for b, e in powers.items() if isinstance(b, Add) and e > 0 and e.denominator == 1]:
            if (c := _content(b, signed=True)) != 1 and powers.get(r := mul(const(Fraction(1, c)), b), 0) < 0:
                coeff *= _const_power(c, int(e))
                powers[r] += powers.pop(b)
    factors: list[Expression] = []
    sums: list[Add] = []
    for base, e in powers.items():
        if e == 0:
            continue
        if isinstance(base, Add) and e.denominator == 1 and 1 <= e <= _MAX_EXPANSION_EXPONENT:
            sums.extend([base] * int(e))  # e may sum to Fraction(n, 1)
        else:
            factors.append(base if e == 1 else Pow(base, _rational(e)))
    if coeff == 0:
        return 0, (), []
    return coeff, tuple(sorted(factors, key=_factor_key)), sums


def mul(*parts: Expression) -> Expression:
    """Canonical product of the parts' ``_factors``: a constant times one sum scales the sum's
    terms in their order, and ``_expand_atoms`` distributes any other product of sums."""
    coeff, mono, sums = _factors(parts)
    if not sums:
        return _from_term(coeff, mono)
    if not mono and len(sums) == 1:
        # c*S keeps the order of S, whose terms sort by their monomials alone
        s = sums[0]
        return s if coeff == 1 else Add(tuple(_from_term(_product(coeff, c), m) for c, m in map(_as_term, s.terms)))
    return _assemble(_expand_atoms([(coeff, (*mono, *sums))]))


_MAX_EXPANSION_EXPONENT = 64
_MAX_EXPANSION_PRODUCTS = 100_000


def _expands(base: Expression, e: int | Fraction) -> bool:
    """Whether base^e is a sum that a product distributes: an integer power of it up to 64."""
    return isinstance(base, Add) and e.denominator == 1 and 1 <= e <= _MAX_EXPANSION_EXPONENT


def _expand_atoms(products: list[tuple[int | Fraction, tuple[Expression, ...]]]) -> dict:
    """The {monomial: coefficient} map of the sum of k times the factors over (rational k, canonical
    factors) products, in one packed map (see the module docstring), each sum counting its term
    products as in mul.  An output term in which a base other than a variable or function reaches
    a power that ``_split`` splits, or a sum one that ``_expands``, is joined by one mul."""
    rows = {f: [*map(_as_term, _terms(f))] for f in dict.fromkeys([f for _, fs in products for f in fs])}
    powers = {g: _as_power(g) for terms in rows.values() for _, m in terms for g in m}
    root = math.lcm(*[e.denominator for _, e in powers.values()])   # each exponent is an integer over root
    scaled = powers if root == 1 else {g: (b, e.numerator * (root // e.denominator)) for g, (b, e) in powers.items()}
    n = max([len(fs) for _, fs in products], default=0)   # an output term has n biased factors
    bias = max([abs(e) for _, e in scaled.values()], default=0)
    width = (2 * bias * n).bit_length()
    shifts = {b: i * width for i, b in enumerate(sorted({b for b, _ in powers.values()}, key=_sort_key))}
    lift = sum(map(bias.__lshift__, shifts.values()))
    code = {g: e << shifts[b] for g, (b, e) in scaled.items()}
    den = math.lcm(*[k.denominator for k, _ in products],
                   *[c.denominator for terms in rows.values() for c, _ in terms])
    packed = {f: [(lift + sum(map(code.__getitem__, m)), c.numerator * (den // c.denominator)) for c, m in terms]
              for f, terms in rows.items()}
    total: dict[int, int] = {}
    for k, fs in products:
        # a product of fewer factors starts from the unit rows it lacks
        acc, formed = {lift * (n - len(fs)): k.numerator * (den // k.denominator) * den ** (n - len(fs))}, 0
        counted = sum(not isinstance(f, Const) for f in fs) > 1   # as in mul, c*S counts no products
        for i, f in enumerate(fs, 1 - len(fs)):   # the last factor (i = 0) multiplies into total
            if counted and isinstance(f, Add):   # a map that cancelled to nothing is the term 0
                formed += max(len(acc), 1) * len(f.terms)
                if formed > _MAX_EXPANSION_PRODUCTS:
                    raise DomainError(f"expansion needs more than {_MAX_EXPANSION_PRODUCTS} term products")
            step = {} if i else total
            for pa, ca in acc.items():
                for pb, cb in packed[f]:
                    step[pa + pb] = step.get(pa + pb, 0) + ca * cb
            if i:   # a one-term factor cancels nothing
                acc = step if len(packed[f]) == 1 else {p: c for p, c in step.items() if c}
    mask, den, origin = (1 << width) - 1, den ** (n + 1), n * bias
    joins: set[Expression] = set()

    def factor(b: Expression, v: int) -> Expression:
        e, r = divmod(v - origin, root)
        e = Fraction(v - origin, root) if r else e
        f = b if e == 1 else Pow(b, e)
        if not isinstance(b, (Var, Func)) and (_expands(b, e) or _split(b, e) is not None):
            joins.add(f)
        return f

    seen = {b: {} for b in shifts}   # each atom's factor per field value, first the factors given
    for g, (b, e) in scaled.items():
        seen[b][e + origin] = g
    fields = [(b, shift, seen[b]) for b, shift in shifts.items()]
    decoded = [(tuple([known.get(v) or known.setdefault(v, factor(b, v)) for b, shift, known in fields
                       if (v := p >> shift & mask) != origin]), c // den if c % den == 0 else Fraction(c, den))
               for p, c in total.items() if c]
    if len(out := dict(decoded)) < len(decoded):   # two fields decoded to one monomial: y*y and (y^2)^(1/2) squared
        out = {}
        for m, c in decoded:
            out[m] = out.get(m, 0) + c
    for mono in [mono for mono in out if not joins.isdisjoint(mono)] if joins else ():
        for c, m in map(_as_term, _terms(mul(Const(out.pop(mono)), *mono))):
            out[m] = out.get(m, 0) + c
    return out


def _sum_of_products(products: list[tuple[int | Fraction, tuple[Expression, ...]]]) -> dict:
    """The {monomial: coefficient} map of the sum of k*mul(*parts) over (rational k, canonical parts)
    pairs, in one packed map.  Parts go in last first, as mul takes them; where a part other than a
    sum holds a power of a sum, mul's ``_factors`` join them first, so that (x+y)*(x+y)^-1 is 1."""
    expansion = []
    for k, parts in products:
        if any(isinstance(f, Pow) and isinstance(f.base, Add)
               for p in parts if not isinstance(p, Add) for f in _as_term(p)[1]):
            c, mono, sums = _factors(parts)
            expansion.append((k * c, (*mono, *sums) or (ONE,)))
        else:
            expansion.append((k, parts[::-1]))
    return _expand_atoms(expansion)


def _const_power(c: int | Fraction, k: int) -> int | Fraction:
    """c**k for a rational c and an integer k, checked for size before it is formed."""
    bits = math.log2(max(abs(c.numerator), c.denominator))
    if bits and abs(k) > _MAX_CONSTANT_BITS / bits:
        raise DomainError(f"a constant power would need more than {_MAX_CONSTANT_BITS} bits")
    return _rational(c**k if k > 0 else Fraction(c) ** k)


def _nth_root_exact(value: int, n: int) -> int | None:
    """The integer n-th root of value when it is exact, else None."""
    if value < 2:
        return value if value >= 0 else None
    if value.bit_length() <= n:
        return None  # 2 <= value < 2^n, and Newton's first step would form 2^(n - 1)
    if n == 2:
        root = math.isqrt(value)
    else:
        # Newton's iteration falls from 2^ceil(bits/n) >= root to floor(root)
        root = 1 << -(-value.bit_length() // n)
        while (step := ((n - 1) * root + value // root ** (n - 1)) // n) < root:
            root = step
    return root if root**n == value else None


def _content(e: Add, signed: bool) -> int | Fraction:
    """Rational content of a sum's coefficients; signed content carries the
    leading term's sign so that content-free bases are sign-normalized."""
    coeffs = [_as_term(t)[0] for t in e.terms]
    num_gcd, den_lcm = math.gcd(*[c.numerator for c in coeffs]), math.lcm(*[c.denominator for c in coeffs])
    if num_gcd == 0:
        return 1
    # gcd of numerators is coprime to the lcm of denominators
    content = num_gcd if den_lcm == 1 else Fraction(num_gcd, den_lcm)
    return -content if signed and coeffs[0] < 0 else content


def _split(base: Expression, e: int | Fraction) -> tuple[int | Fraction, list[Expression]] | None:
    """The rules for one base raised to a power other than 0: None where
    Pow(base, e) is one canonical factor, else (rational, pieces) whose product
    is base^e, each piece a power that may split again."""
    if isinstance(base, Const):
        c = base.value
        if c == 0 and e < 0 or c < 0 and e.denominator != 1:
            return None  # undefined (evaluation raises), or a radical of a negative constant
        if e.denominator == 1:
            return _const_power(c, e), []
        num = _nth_root_exact(c.numerator, e.denominator)
        den = _nth_root_exact(c.denominator, e.denominator)
        if num is not None and den is not None:
            return _const_power(Fraction(num, den), e.numerator), []
        # c^(p/q) = c^floor(p/q) * c^(r/q) with 0 < r < q: one form per radical
        whole, r = divmod(e.numerator, e.denominator)
        return (_const_power(c, whole), [Pow(base, Fraction(r, e.denominator))]) if whole else None
    if isinstance(base, Add):
        content = _content(base, signed=e.denominator == 1)
        if content == 1:
            return None
        coeff, pieces = _split(Const(content), e) or (1, [Pow(Const(content), e)])
        return coeff, pieces + [Pow(mul(const(Fraction(1, content)), base), e)]
    if e.denominator == 1 and isinstance(base, (Pow, Mul)):
        # (c*f^k*...)^e = c^e * f^(k*e) * ... for an integer e
        c, mono = _as_term(base)
        return _split(Const(c), e)[0], [Pow(f, k * e) for f, k in map(_as_power, mono)]
    return None


def power(base: Expression | int | Fraction, exponent) -> Expression:
    """Canonical power with an exact rational exponent: the product of the one
    factor base^exponent, split by the rules of ``_split`` or expanded.  An int
    or Fraction base is its constant, as in the operators."""
    if isinstance(exponent, float):
        raise TypeError("exponents must be exact; pass a Fraction, int or str")
    if (base := _coerce(base)) is None:
        raise TypeError("a base must be an Expression, int or Fraction")
    e = _rational(exponent)
    if e == 0:
        return ONE  # 0^0 := 1 by convention
    if e == 1:
        return base
    if isinstance(base, (Var, Func)):
        return Pow(base, e)
    if _expands(base, e):
        return mul(*([base] * e))
    if (split := _split(base, e)) is None:
        return Pow(base, e)
    return mul(Const(split[0]), *split[1]) if split[1] else Const(split[0])


def _fn(name: str, arg: Expression) -> Expression:
    if arg == ZERO:
        if name == "sin":
            return ZERO
        if name in ("cos", "exp"):
            return ONE
    if name == "ln" and arg == ONE:
        return ZERO
    return Func(name, arg)


def sin(arg: Expression) -> Expression:
    return _fn("sin", arg)


def cos(arg: Expression) -> Expression:
    return _fn("cos", arg)


def exp(arg: Expression) -> Expression:
    return _fn("exp", arg)


def ln(arg: Expression) -> Expression:
    return _fn("ln", arg)


# --- calculus ---------------------------------------------------------------

# the outer derivative of each function at u, as (sign, factor): d cos(u) = -sin(u) du
_OUTER = {"sin": lambda u: (1, cos(u)), "cos": lambda u: (-1, sin(u)),
          "exp": lambda u: (1, exp(u)), "ln": lambda u: (1, power(u, -1))}


def differentiate(e: Expression, v: str) -> Expression:
    """Partial derivative by the variable named ``v``: ``_partial``'s map as a tree, kept in its place."""
    if type(derivative := _partial(e, v)) is dict:
        e._derivatives[v] = derivative = _assemble(derivative)
    return derivative


def _partial(e: Expression, v: str) -> dict | Expression:
    """The derivative by ``v`` as the node's memo keeps it: a {monomial: coefficient} map, or its
    tree once a caller built one.  A factor v^k of a term becomes k*v^(k-1) in place (factors sort
    by base first); each other factor f^k that depends on v gives the product of k*f^(k-1), f's
    derivative and the term's other factors, all summed in one ``_sum_of_products`` call."""
    if not isinstance(e, Expression):
        raise TypeError(f"not an Expression node: {e!r}")
    try:
        return e._derivatives[v]
    except AttributeError:
        object.__setattr__(e, "_derivatives", {})
    except KeyError:
        pass
    acc: dict[tuple[Expression, ...], int | Fraction] = {}   # each term's monomial -> its coefficient
    products = []
    for t in _terms(e):
        coeff, mono = _as_term(t)
        for i, f in enumerate(mono):
            base, k = _as_power(f)
            if isinstance(base, Var):
                if base.name == v:
                    lowered = mono[:i] + (() if k == 1 else (power(base, k - 1),)) + mono[i + 1:]
                    c = coeff if k == 1 else _product(coeff, k)
                    acc[lowered] = acc[lowered] + c if lowered in acc else c
                continue
            if type(inner := _partial(u := base.arg if isinstance(base, Func) else base, v)) is dict:
                u._derivatives[v] = inner = _assemble(inner)   # a factor of the product below
            if inner is not ZERO:
                sign, outer = _OUTER[base.name](base.arg) if isinstance(base, Func) else (1, ONE)
                products.append((coeff if k * sign == 1 else _product(coeff, k * sign),
                                 (power(base, k - 1), outer, inner, *mono[:i], *mono[i + 1:])))
    for m, c in _sum_of_products(products).items() if products else ():
        acc[m] = acc[m] + c if m in acc else c
    e._derivatives[v] = acc
    return acc


def substitute(e: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace variables by expressions; the result is canonical."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Add):
        return add(*[substitute(t, mapping) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[substitute(f, mapping) for f in e.factors])
    if isinstance(e, Pow):
        return power(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Func):
        return _fn(e.name, substitute(e.arg, mapping))
    raise TypeError(f"not an Expression node: {e!r}")


def free_variables(e: Expression) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Add):
        return frozenset().union(*[free_variables(t) for t in e.terms])
    if isinstance(e, Mul):
        return frozenset().union(*[free_variables(f) for f in e.factors])
    if isinstance(e, Pow):
        return free_variables(e.base)
    if isinstance(e, Func):
        return free_variables(e.arg)
    raise TypeError(f"not an Expression node: {e!r}")


# --- compiled evaluation -----------------------------------------------------

def _finite(value: float) -> float:
    if math.isfinite(value):
        return value
    raise DomainError("value is not finite")


def _exp(value: float) -> float:
    return math.exp(value) if math.isfinite(value) else _finite(value)


# The generated code names only these helpers.  Scalar mode raises DomainError
# where array mode (``_array_helpers``) gives NaN: the generated code turns
# the ValueError of math.log and math.pow outside the real domain, and any
# overflow or division by zero, into DomainError.
_SCALAR_HELPERS = {
    "_sum": math.fsum,
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": _exp,
    "_ln": math.log,
    "_root": math.pow,
    "_finite": _finite,
    "_NAN": math.nan,
    "_ARITH": (OverflowError, ZeroDivisionError, ValueError),
    "_DomainError": DomainError,
}


@functools.cache
def _array_helpers() -> dict:
    import numpy as np

    def finite(a):
        return np.where(np.isfinite(a), a, np.nan)

    def ln(a):
        return np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), np.nan)

    def root(base, r):
        return np.where(base >= 0, np.abs(base) ** r, np.nan)

    return dict(_SCALAR_HELPERS, _sum=sum, _sin=np.sin, _cos=np.cos,
                _exp=lambda a: np.exp(finite(a)), _ln=ln, _root=root, _finite=finite)


class CompiledExpression:
    """An expression compiled to Python code, callable in two modes; equal trees
    under equal names share one code object, compiled once per process.

    ``scalar(*floats)`` returns what evaluating the tree node by node gives:
    sums by math.fsum (of two terms as ``a + b + 0.0``, the same bits),
    products left to right, constants rounded once.  It raises DomainError
    wherever a value, intermediate or final, is not finite.

    ``array(*arrays)`` takes numpy arrays that broadcast together and returns
    an array that broadcasts against them.  It sums left to right in plain
    floating point and gives NaN where scalar mode raises, up to the rounding
    of sums.
    """

    __slots__ = ("scalar", "_code")

    def __init__(self, code: CodeType):
        self._code = code
        self.scalar = FunctionType(code, _SCALAR_HELPERS)

    def array(self, *arrays):
        import numpy as np

        with np.errstate(all="ignore"):
            return FunctionType(self._code, _array_helpers())(*arrays)


def _literal(value: int | Fraction) -> str:
    """A constant as Python source, rounded once; NaN beyond the float range."""
    try:
        return repr(float(value))
    except OverflowError:
        return "_NAN"


def _emit(exprs: Sequence[Expression], args: Mapping[str, str]) -> tuple[list[str], list[str]]:
    """Straight-line Python statements that compute canonical trees from the
    helpers and from the local names ``args`` gives each variable.

    Returns the statements, in order, and the source of each tree's value: a
    literal, a local from ``args`` or ``_t<k>``, which statement k assigns, so
    a tree's statements end at its own.  Equal subtrees, in one tree or across
    the trees, are computed once.  A variable outside ``args`` raises
    UnknownVariableError.
    """
    refs: dict[Expression, str] = {}  # equal subtrees compute equal values
    lines: list[str] = []

    def emit(node: Expression) -> str:
        if isinstance(node, Const):
            return _literal(node.value)
        if isinstance(node, Var):
            if node.name not in args:
                raise UnknownVariableError(f"unbound variable: {node.name!r}")
            return args[node.name]
        if node in refs:
            return refs[node]
        if isinstance(node, Add):
            terms = list(map(emit, node.terms))
            code = f"{terms[0]} + {terms[1]} + 0.0" if len(terms) == 2 else f"_sum(({', '.join(terms)},))"
        elif isinstance(node, Mul):
            code = " * ".join(map(emit, node.factors))
        elif isinstance(node, Pow):
            base, r = emit(node.base), _literal(node.exponent)
            if node.exponent < 0:
                base = f"_finite({base})"  # 1/inf must not pass for a finite value
            code = f"({base}) ** {r}" if node.exponent.denominator == 1 else f"_root({base}, {r})"
        elif isinstance(node, Func):
            code = f"_{node.name}({emit(node.arg)})"
        else:
            raise TypeError(f"not an Expression node: {node!r}")
        ref = refs[node] = f"_t{len(refs)}"
        lines.append(f"{ref} = {code}")
        return ref

    return lines, [emit(e) for e in exprs]


@functools.lru_cache(maxsize=256)
def _function_code(source: str) -> CodeType:
    """The code of the one function that ``source`` defines, compiled once
    while the source is among the 256 last used."""
    module = compile(source, "<compiled expression>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def compile_expression(e: Expression, names: Sequence[str]) -> CompiledExpression:
    """Compile a canonical tree into a function of the given names, in order.

    Equal subtrees are computed once, and an equal source is not compiled
    again (``_function_code``).  A variable outside ``names`` raises
    UnknownVariableError.
    """
    args = {name: f"_a{i}" for i, name in enumerate(names)}
    lines, (result,) = _emit([e], args)
    source = (f"def _compiled({', '.join(args.values())}):\n"
              "    try:\n"
              + "".join(f"        {line}\n" for line in lines)
              + f"        return _finite({result})\n"
              "    except _ARITH:\n"
              "        raise _DomainError('outside the real domain or the float range') from None\n")
    return CompiledExpression(_function_code(source))


def evaluate(e: Expression, point: Mapping[str, float]) -> float:
    """IEEE double evaluation; yields a finite float or raises DomainError."""
    if isinstance(e, Const):  # as the compiled literal gives it, without compiling
        try:
            return float(e.value)
        except OverflowError:
            raise DomainError("value is not finite") from None
    return compile_expression(e, tuple(point)).scalar(*map(float, point.values()))


# --- zero testing -----------------------------------------------------------


def _denominator_clearings(e: Expression) -> dict[Expression, int | Fraction]:
    """Bases raised to negative exponents anywhere in the top-level terms."""
    need: dict[Expression, int | Fraction] = {}
    for t in _terms(e):
        _, mono = _as_term(t)
        for f in mono:
            base, exponent = _as_power(f)
            if exponent < 0:
                need[base] = max(need.get(base, 0), -exponent)
    return need


def _numerator(e: Expression, need: dict[Expression, int | Fraction]) -> Expression:
    """Multiply every term by the missing denominators ``need`` (what
    ``_denominator_clearings(e)`` gives), term by term in one expansion,
    until no negative powers remain (at most 8 passes).

    Term-wise multiplication lets sum bases meet their inverse atoms inside
    one product, where the exponents cancel exactly.  Zero-equivalence is
    preserved away from denominator zeros, which is the sense in which
    rational-function normalization certifies zero.
    """
    cur = e
    for _ in range(8):
        if not need:
            return cur
        clearers = [Pow(base, k) for base, k in need.items()]
        cur = _assemble(_sum_of_products([(1, (t, *clearers)) for t in _terms(cur)]))
        need = _denominator_clearings(cur)
    return cur


def _probe_for_witness(e: Expression) -> bool:
    names = sorted(free_variables(e))
    f = compile_expression(e, names).scalar
    rng = random.Random(0x5EED)
    valid = 0
    attempts = 0
    while valid < PROBE_POINTS and attempts < 8 * PROBE_POINTS:
        attempts += 1
        point = [rng.uniform(-PROBE_BOX, PROBE_BOX) for _ in names]
        try:
            value = f(*point)
        except DomainError:
            continue
        if abs(value) > PROBE_THRESHOLD:
            return True
        valid += 1
    return False


def is_zero(e: Expression) -> str:
    """Three-valued zero test: "zero", "nonzero" or "unknown".

    Expects a canonical tree, as every factory builds.  "zero" only when
    normalization (after clearing denominators) cancels the tree to the
    literal 0; "nonzero" from an exact nonzero constant, a polynomial other
    than 0 or a numeric witness above the probe threshold; "unknown"
    otherwise, and always when a top-level term holds a factor 0^-k, which
    is undefined everywhere.
    """
    if e == ZERO:
        return "zero"
    if isinstance(e, Const):
        return "nonzero"
    need = _denominator_clearings(e)
    if not need and all(isinstance(b, Var) and type(k) is int
                        for t in _terms(e) for b, k in map(_as_power, _as_term(t)[1])):
        return "nonzero"   # a polynomial other than 0, which is nonzero on any open set
    if ZERO in need:
        return "unknown"
    numerator = _numerator(e, need)
    if numerator == ZERO:
        return "zero"
    if isinstance(numerator, Const):
        return "nonzero"
    if _probe_for_witness(e):
        return "nonzero"
    return "unknown"


# --- rendering --------------------------------------------------------------


def _power_text(e: Pow) -> str:
    base = e.base
    base_text = to_text(base)
    if isinstance(base, (Add, Mul, Pow)) or (
            isinstance(base, Const) and (base.value < 0 or base.value.denominator != 1)):
        base_text = f"({base_text})"
    r = e.exponent
    return f"{base_text}^{r}" if r.denominator == 1 else f"{base_text}^({r})"


def _term_texts(t: Expression) -> tuple[int | Fraction, list[str]]:
    """A canonical term as (rational coefficient, texts of its factors)."""
    coeff, mono = _as_term(t)
    return coeff, [f"({to_text(f)})" if isinstance(f, Add) else to_text(f) for f in mono]


def _product_text(coeff: int | Fraction, parts: list[str]) -> str:
    if not parts:
        return str(coeff)
    if coeff == 1:
        return "*".join(parts)
    if coeff == -1:
        return "-" + "*".join(parts)
    return "*".join([str(coeff)] + parts)


def _signed_sum_text(terms: Iterable[tuple[int | Fraction, list[str]]]) -> str:
    """Join (coefficient, factor texts) terms with their signs pulled to the front."""
    chunks: list[str] = []
    for coeff, parts in terms:
        sign = ("-" if coeff < 0 else "") if not chunks else (" - " if coeff < 0 else " + ")
        chunks.append(sign + _product_text(abs(coeff), parts))
    return "".join(chunks)


def to_text(e: Expression) -> str:
    """Render a canonical tree; the DSL parser reads the output back."""
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Func):
        return f"{e.name}({to_text(e.arg)})"
    if isinstance(e, Pow):
        return _power_text(e)
    if isinstance(e, Mul):
        return _product_text(*_term_texts(e))
    if isinstance(e, Add):
        return _signed_sum_text(map(_term_texts, e.terms))
    raise TypeError(f"not an Expression node: {e!r}")
