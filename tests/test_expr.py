"""Expression kernel: canonicalization, calculus, evaluation, zero tests."""

import copy
import gc
import itertools
import math
import os
import pickle
import random
import sys
import threading
import time
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewforms import expr as expr_module
from skewforms.dsl import parse, print_document
from skewforms.expr import (
    Add,
    Const,
    DomainError,
    Mul,
    Pow,
    UnknownVariableError,
    Var,
    VariableSet,
    ZERO,
    ONE,
    add,
    compile_expression,
    const,
    cos,
    differentiate,
    evaluate,
    exp,
    free_variables,
    is_zero,
    ln,
    power,
    sin,
    substitute,
    to_text,
    var,
)

from conftest import random_polynomial, random_point, random_raw_tree, tree_walk

x, y = var("x"), var("y")
_XYZ = (x, y, var("z"))


class TestCanonicalForm:
    def test_constant_folding(self):
        assert const(2) + const(3) == const(5)
        assert const(2) * const(3) == const(6)
        assert power(const(2), 10) == const(1024)
        assert power(const(4), Fraction(1, 2)) == const(2)
        assert power(const(8), Fraction(2, 3)) == const(4)

    def test_zero_and_one_units(self):
        assert x + ZERO == x
        assert x * ONE == x
        assert x * ZERO == ZERO
        assert power(x, 0) == ONE
        assert power(x, 1) == x
        # two factors (0^(-1/2))^(-1/2) in one product fold to 0^(1/2) = 0
        q = power(power(ZERO, Fraction(-1, 2)), Fraction(-1, 2))
        assert q * (q * x) == ZERO

    def test_like_terms_collect(self):
        assert x + x == const(2) * x
        assert x - x == ZERO
        assert x * x == power(x, 2)
        assert x * power(x, -1) == ONE

    def test_binomial_expansion_cancels(self):
        e = (x + y) ** 2 - x**2 - 2 * x * y - y**2
        assert e == ZERO

    def test_sum_ordering_is_deterministic(self):
        assert to_text(y + x) == "x + y"
        assert to_text(x**2 + x) == "x + x^2"

    def test_simplify_idempotent_on_raw_trees(self):
        raw = Add((Const(Fraction(0)), Mul((Const(Fraction(2)), x)), x, Add((y, y))))
        once = substitute(raw, {})
        assert substitute(once, {}) == once
        assert once == 3 * x + 2 * y

    def test_equal_after_normalization(self):
        a = substitute(Mul((x, Add((y, ONE)))), {})
        b = x * y + x
        assert a == b

    def test_split_powers_rejoin_their_base(self):
        half = Fraction(1, 2)
        assert expr_module.mul(x**-1, power(x * y, half), power(x * y, half)) == y
        assert expr_module.mul(x, power(2 * x, Fraction(3, 2)), power(2 * x, Fraction(-5, 2))) == const(half)
        # a sum whose sign power pulls out joins the sum of the other sign
        root, inverse = power(-1 - x, half), power(-1 - x, -3 * half)
        assert expr_module.mul(root, inverse, power(1 + x, -1)) == -power(1 + x, -2)
        assert expr_module.mul(power(1 + x, -1), root, inverse) == -power(1 + x, -2)
        assert expr_module.mul(root, inverse, 1 + x) == const(-1)
        doc = parse("vars x, y\nscalar f = x*(x*y)^(1/2)*(x*y)^(1/2)\n")
        f = doc.find("f").expr
        assert f == x**2 * y and to_text(f) == "x^2*y"
        assert is_zero(f - x**2 * y) == "zero"
        assert parse(print_document(doc)) == doc

    def test_products_of_monomial_powers_keep_one_factor_per_base(self):
        rng = random.Random(3)
        exponents = (2, 3, -1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2),
                     Fraction(5, 3), Fraction(1, 3))
        # sums whose sign power pulls out when their exponents add up to an integer
        sums = (1 + x, -1 - x, x - y, y - x)

        def monomial():
            if rng.random() < 0.5:
                return rng.choice(sums)
            m = const(rng.choice([1, 1, 2, 3, Fraction(1, 2)]))
            for _ in range(rng.randint(1, 3)):
                m = m * rng.choice(_XYZ) ** rng.choice([1, 1, 2, -1])
            return m

        for _ in range(4000):
            ps = [power(monomial(), rng.choice(exponents)) for _ in range(rng.randint(2, 4))]
            product = expr_module.mul(*ps)
            assert product == expr_module.mul(*reversed(ps)), ps
            for t in expr_module._terms(product):
                bases = [expr_module._as_power(f)[0] for f in expr_module._as_term(t)[1]]
                assert len(bases) == len(set(bases)), ps

    def test_a_bare_sum_joins_the_inverse_power_of_its_base(self):
        half = Fraction(1, 2)
        inverse = power(1 + x, -1)
        assert expr_module.mul(-1 - x, inverse) == const(-1)
        assert expr_module.mul(2 + 2 * x, inverse) == expr_module.mul(inverse, 2 + 2 * x) == const(2)
        assert expr_module.mul(-1 - x, -1 - x, power(1 + x, -3)) == inverse
        assert expr_module.mul(-2 - 2 * x, y, power(1 + x, -half)) == -2 * y * power(1 + x, half)
        assert (-1 - x) / (1 + x) == const(-1) and (3 * x + 3) / (-1 - x) == const(-3)
        assert is_zero(expr_module.mul(-1 - x, inverse) + 1) == "zero"
        # without a negative power of a sum a bare sum distributes as before
        root = power(1 + x, half)
        assert expr_module.mul(-1 - x, root) == -root - x * root

    def test_a_product_without_an_inverse_sum_takes_no_content(self, monkeypatch):
        want = expr_module.mul(x + y, 2 + 2 * x, y - x, power(x, -1))
        monkeypatch.setattr(expr_module, "_content", lambda *args: pytest.fail("_content was called"))
        assert expr_module.mul(x + y, 2 + 2 * x, y - x, power(x, -1)) == want

    def test_rational_cancellation(self):
        assert is_zero(x / (x + y) + y / (x + y) - 1) == "zero"
        assert is_zero((2 * x + 2 * y) / (x + y) - 2) == "zero"
        assert is_zero(1 / (x + y) + 1 / (-x - y)) == "zero"

    def test_function_folds(self):
        assert sin(ZERO) == ZERO
        assert cos(ZERO) == ONE
        assert exp(ZERO) == ONE
        assert ln(ONE) == ZERO

    def test_plain_number_bases_are_constants(self):
        assert power(2, 3) == const(8)
        assert power(Fraction(1, 4), Fraction(1, 2)) == const(Fraction(1, 2))
        assert expr_module.mul(power(2, Fraction(1, 2)), x) == power(const(2), Fraction(1, 2)) * x
        for base in (2.0, "x", None):
            with pytest.raises(TypeError):
                power(base, 2)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            const(0.5)
        with pytest.raises(TypeError):
            power(x, 0.5)


def _cross_product_mul(*parts):
    """Reference product: fold exponents like ``mul``, then take the cross
    product of every sum factor's terms and collect once at the end."""
    coeff = Fraction(1)
    powers = {}
    stack = list(parts)
    while stack:
        p = stack.pop()
        if isinstance(p, Mul):
            stack.extend(p.factors)
        elif isinstance(p, Const):
            if p.value == 0:
                return ZERO
            coeff *= p.value
        else:
            base, e = expr_module._as_power(p)
            powers[base] = powers.get(base, Fraction(0)) + e
        if not stack:
            # a power that splits goes back on the stack in pieces, as in mul: a power of a
            # product at an integer exponent may hold a base the table already has
            for base, e in list(powers.items()):
                if e == 0 or isinstance(base, Add) and e.denominator == 1 and 1 <= e <= expr_module._MAX_EXPANSION_EXPONENT:
                    continue
                sub_c, sub_m = expr_module._as_term(power(base, e))
                if sub_c != 1 or [expr_module._as_power(f) for f in sub_m] != [(base, e)]:
                    del powers[base]
                    coeff *= sub_c
                    stack.extend(sub_m)
    # a bare sum joins the inverse power of its base through its signed content
    for base, e in list(powers.items()):
        if isinstance(base, Add) and e > 0 and e.denominator == 1:
            content = expr_module._content(base, signed=True)
            reduced = add(*[t * const(1 / Fraction(content)) for t in base.terms])
            if powers.get(reduced, 0) < 0:
                coeff *= content**e
                powers[reduced] += powers.pop(base)
    factors, sums = [], []
    for base in sorted(powers, key=expr_module._sort_key):
        e = powers[base]
        if e == 0:
            continue
        if isinstance(base, Add) and e.denominator == 1 and 1 <= e <= expr_module._MAX_EXPANSION_EXPONENT:
            sums.extend([base] * int(e))
            continue
        sub_c, sub_m = expr_module._as_term(power(base, e))
        coeff *= sub_c
        for f in sub_m:
            (sums if isinstance(f, Add) else factors).append(f)
    if sums:
        cross = [()]
        for s in sums:
            cross = [chosen + (t,) for chosen in cross for t in s.terms]
        return add(*[_cross_product_mul(Const(coeff), *factors, *chosen) for chosen in cross])
    if coeff == 0:
        return ZERO
    return expr_module._from_term(coeff, tuple(sorted(factors, key=expr_module._factor_key)))


def _terms_of(e):
    return e.terms if isinstance(e, Add) else (e,)


def _pairwise_expansion(head, sums):
    """head times the sums, as mul expanded them before it packed exponent vectors: a
    {monomial: coefficient} map times one sum at a time, two monomials multiplying by
    merging the exponents of their variables and functions."""
    coeff, mono = expr_module._as_term(head)
    acc = {mono: coeff}
    for s in sums:
        step = {}
        for ma, ca in acc.items():
            for cb, mb in map(expr_module._as_term, s.terms):
                merged = dict(map(expr_module._as_power, ma))
                for base, e in map(expr_module._as_power, mb):
                    merged[base] = merged.get(base, 0) + e
                m = tuple(sorted((b if e == 1 else Pow(b, e) for b, e in merged.items() if e),
                                 key=expr_module._factor_key))
                step[m] = step.get(m, 0) + ca * cb
        acc = {m: c for m, c in step.items() if c}
    return expr_module._assemble(acc)


def _random_sum(rng, names):
    """A polynomial, rational-function or sin/exp sum of two or three terms."""
    kind = rng.randrange(3)
    while True:
        terms = []
        for _ in range(rng.randint(2, 3)):
            term = const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])))
            for _ in range(rng.randint(0, 2)):
                term = term * var(rng.choice(names))
            if kind == 1 and rng.random() < 0.6:
                term = term * power(var(rng.choice(names)) + rng.choice([1, 2]), rng.choice([-1, -2]))
            if kind == 2 and rng.random() < 0.6:
                term = term * rng.choice([sin, exp])(var(rng.choice(names)))
            terms.append(term)
        total = add(*terms)
        if isinstance(total, Add):
            return total


class TestExactRationals:
    def test_integral_values_are_plain_ints(self):
        assert const(Fraction(4, 2)) == const(2)
        assert hash(const(Fraction(4, 2))) == hash(const(2))
        assert type(const(Fraction(4, 2)).value) is int
        assert type(const(True).value) is int
        assert type(power(x, Fraction(6, 3)).exponent) is int

    def test_integral_arithmetic_constructs_no_fraction(self, monkeypatch):
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        z = var("z")
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        e = power(x + 2 * y + 3 * z, 6)
        e = substitute(differentiate(e, "x"), {"y": x * z})
        monkeypatch.undo()
        assert made == []
        assert len(e.terms) > 20

    def test_linear_partials_build_no_fraction(self, monkeypatch):
        """The derivative of a term linear in the variable keeps the term's coefficient
        object, and a constant times a monomial multiplies nothing by 1."""
        u, v, w = var("lin_u"), var("lin_v"), var("lin_w")
        e = add(Fraction(1, 3) * u * v, Fraction(-2, 5) * u * w**2, Fraction(7, 4) * u, Fraction(5, 6) * v)
        two_thirds, made = const(Fraction(2, 3)), []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *args, **kwargs: made.append(args) or new(cls, *args, **kwargs))
        if hasattr(Fraction, "_from_coprime_ints"):   # arithmetic builds its results here from Python 3.12 on
            coprime = Fraction._from_coprime_ints
            monkeypatch.setattr(Fraction, "_from_coprime_ints",
                                classmethod(lambda cls, n, d: made.append((n, d)) or coprime(n, d)))
        partial = expr_module._partial(e, "lin_u")
        product = expr_module.mul(two_thirds, u, v)
        monkeypatch.undo()
        assert made == []
        assert partial == {(v,): Fraction(1, 3), (w**2,): Fraction(-2, 5), (): Fraction(7, 4)}
        assert product == Fraction(2, 3) * u * v

    def test_radical_products_do_not_depend_on_grouping(self):
        a, b = power(const(2), Fraction(3, 2)), power(const(2), Fraction(1, 2))
        assert a == 2 * b
        assert (a * b) * b == a * (b * b) == 4 * b
        assert is_zero((a * b) * b - a * (b * b)) == "zero"
        assert a * b == const(4)

    def test_exponents_summing_to_an_integer_expand(self):
        root = power(x + 1, Fraction(1, 2))
        assert root * power(x + 1, Fraction(3, 2)) == x**2 + 2 * x + 1
        assert power(x, Fraction(1, 2)) * power(x, Fraction(3, 2)) == x**2

    def test_negative_radical_exponents_fold(self):
        assert to_text(power(const(2), Fraction(-1, 2))) == "1/2*2^(1/2)"
        assert to_text(power(const(Fraction(3, 4)), Fraction(-5, 2))) == "64/27*(3/4)^(1/2)"
        # 0 to a negative power stays the undefined power; evaluation raises
        assert power(ZERO, Fraction(-3, 2)) == Pow(ZERO, Fraction(-3, 2))
        assert power(const(-8), Fraction(3, 2)) == Pow(const(-8), Fraction(3, 2))

    def test_exact_roots_of_large_constants(self):
        assert expr_module._nth_root_exact(3**100, 2) == 3**50
        assert expr_module._nth_root_exact(10**400, 2) == 10**200
        assert expr_module._nth_root_exact(7**300, 3) == 7**100
        assert expr_module._nth_root_exact(10**400, 5) == 10**80
        assert power(const(3**100), Fraction(1, 2)) == const(3**50)
        assert is_zero(power(const(3**100), Fraction(1, 2)) - 3**50) == "zero"
        assert is_zero(power(const(Fraction(1, 10**400)), Fraction(3, 4)) - Fraction(1, 10**300)) == "zero"

    def test_values_without_an_exact_root(self):
        for value, n in ((3**100 + 1, 2), (10**400 - 1, 2), (2 * 10**399, 3), (7**300 - 7, 3), (-4, 2)):
            assert expr_module._nth_root_exact(value, n) is None
        assert power(const(3**101), Fraction(1, 2)) == Pow(const(3**101), Fraction(1, 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_roots_match_the_table_of_powers(self, n):
        powers = {k**n: k for k in range(300)}
        for value in {p + d for p in powers for d in (-1, 0, 1)} - {-1}:
            assert expr_module._nth_root_exact(value, n) == powers.get(value)


class TestExpansion:
    def test_a_repeated_factor_is_split_once(self, monkeypatch):
        s = x + 2 * y + Fraction(1, 3) * var("z") + 1
        split = []
        terms = expr_module._terms
        monkeypatch.setattr(expr_module, "_terms", lambda e: split.append(e) or terms(e))
        eighth = power(s, 8)
        monkeypatch.undo()
        assert split == [s]
        assert eighth == expr_module.mul(power(s, 4), power(s, 4))

    def test_matches_the_cross_product_reference(self):
        rng = random.Random(1974)
        names = ["x", "y", "z"]
        for _ in range(150):
            parts = [_random_sum(rng, names) for _ in range(rng.randint(2, 4))]
            if rng.random() < 0.4:
                parts.append(power(rng.choice(parts), rng.randint(-1, 2)))
            if rng.random() < 0.5:
                parts.append(const(Fraction(rng.randint(1, 5), rng.randint(1, 3))) * var(rng.choice(names)))
            rng.shuffle(parts)
            assert expr_module.mul(*parts) == _cross_product_mul(*parts)
        # terms that share a base the monomial merge leaves to mul: a constant
        # radical, the inverse of a sum, a fractional power; and shared atoms
        # whose integer exponents it adds, up to cancelling
        shared = [power(const(2), Fraction(1, 2)), power(x + y, -1), power(x, Fraction(1, 2)),
                  sin(x) ** 2, exp(y), power(sin(x), -2), power(y, -1)]
        for _ in range(150):
            parts = []
            while len(parts) < rng.randint(2, 3):
                s = add(*[t * rng.choice(shared) for t in _random_sum(rng, names).terms])
                if isinstance(s, Add):
                    parts.append(s)
            if rng.random() < 0.5:
                parts.append(rng.choice(shared))
            rng.shuffle(parts)
            assert expr_module.mul(*parts) == _cross_product_mul(*parts)
        # a constant times one sum, whose terms hold radicals or inverse powers of sums
        shared += [power(-1 - x, Fraction(1, 2)), power(x - y, Fraction(-3, 2)), power(x + 2, -2)]
        constants = [const(c) for c in (-1, 2, -3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))]
        for _ in range(300):
            s = add(*[t * rng.choice(shared) for t in _random_sum(rng, names).terms])
            if not isinstance(s, Add):
                continue
            parts = [rng.choice(constants), s]
            rng.shuffle(parts)
            assert expr_module.mul(*parts) == _cross_product_mul(*parts)
            assert expr_module.mul(ONE, s) is s
        # squares of sums of seeded raw trees (triples of random_raw_tree at depth 3, then 4,
        # from one generator per seed) in which a power of a product or of a power splits at an
        # integer exponent, y^3 from (y^3)^(1/2) squared, next to another factor of its base
        for seed, depth, index in ((5, 3, 12), (5, 3, 332), (5, 4, 0), (6, 4, 61), (6, 4, 420)):
            gen = random.Random(seed)
            triples = {d: [[random_raw_tree(gen, d) for _ in range(3)] for _ in range(666)] for d in (3, 4)}
            a, b, _ = (substitute(raw, {}) for raw in triples[depth][index])
            s = add(a, b)
            assert expr_module.mul(s, s) == _cross_product_mul(s, s) == power(s, 2)

    def test_fields_that_decode_to_one_monomial_add_up(self):
        """y*y and (y^2)^(1/2) squared both decode to the factor y^2: their coefficients add."""
        r = power(y**2, Fraction(1, 2))
        for s, want in [(y + r, 2 * y * r + 2 * y**2), (x * y + x * r, 2 * x**2 * y * r + 2 * x**2 * y**2)]:
            square = expr_module.mul(s, s)
            assert square == want and is_zero(square - power(s, 2)) == "zero"
            assert math.isclose(evaluate(square, {"x": 0.7, "y": 1.3}), evaluate(s, {"x": 0.7, "y": 1.3}) ** 2)

    def test_atom_products_match_the_pairwise_expansion(self):
        """Products of 2 to 4 sums over variables and functions with integer exponents
        expand over exponent vectors, node for node as merging monomials pair by pair
        gives them."""
        rng = random.Random(1009)
        atoms = [x, y, var("z"), sin(x), exp(y)]
        coefficients = [1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]

        def term():
            factors = [power(rng.choice(atoms), rng.choice([-2, -1, 1, 1, 2, 3])) for _ in range(rng.randint(0, 2))]
            return expr_module.mul(const(rng.choice(coefficients)), *factors)

        cases = []
        while len(cases) < 3000:
            sums = [add(*[term() for _ in range(rng.randint(2, 4))]) for _ in range(rng.randint(2, 4))]
            if rng.random() < 0.3:
                # (r + t)*(r - t): the cross terms cancel to 0
                sums[1] = sums[0] - 2 * sums[0].terms[0] if isinstance(sums[0], Add) else sums[1]
            if all(isinstance(s, Add) for s in sums):
                cases.append((term() if rng.random() < 0.5 else ONE, sums))
        expected = [_pairwise_expansion(head, sums) for head, sums in cases]
        cancelled = 0
        for (head, sums), want in zip(cases, expected):
            got = expr_module.mul(head, *sums)
            assert got is want, (head, sums)
            cancelled += len(_terms_of(got)) < math.prod(len(s.terms) for s in sums)
        assert cancelled > 1000

    def test_budget_trips_at_the_same_product_count(self, product_counts):
        counts = product_counts
        z, w = var("z"), var("w")
        with pytest.raises(DomainError, match="^expansion needs more than 100000 term products$"):
            power(x + y + z + w + 1, 20)
        # after j steps the map holds C(j + 4, 4) terms, so j steps form 5*C(j + 4, 5) products
        assert counts == [5 * math.comb(j + 4, 5) for j in range(1, 18)]
        assert counts[-2] <= 100_000 < counts[-1] == 101_745
        # a term that cancels is not carried into the next step: (x + y)*(x - y) is 2 terms
        counts.clear()
        assert expr_module.mul(z + 1, x - y, x + y) == (x**2 - y**2) * (z + 1)
        assert counts[:3] == [2, 6, 10]

    def test_large_powers_expand_quickly(self):
        z, w = var("z"), var("w")
        start = time.perf_counter()
        binomial = power(x + y, 18)
        quartic = power(x + y + z + w, 8)
        assert time.perf_counter() - start < 5.0  # the cross product took over 30 s
        assert len(binomial.terms) == 19 and len(quartic.terms) == math.comb(11, 3)
        assert Mul((const(math.comb(18, 9)), power(x, 9), power(y, 9))) in binomial.terms
        point = {"x": 0.5, "y": -0.25, "z": 0.125, "w": 0.75}
        assert evaluate(quartic, point) == pytest.approx(1.125**8, rel=1e-12)

    def test_term_products_are_bounded(self, monkeypatch):
        # (x+y)^3 forms 2 + 4 + 6 = 12 term products, (x+y)^4 another 8
        monkeypatch.setattr(expr_module, "_MAX_EXPANSION_PRODUCTS", 12)
        assert len(power(x + y, 3).terms) == 4
        with pytest.raises(DomainError, match="term products"):
            power(x + y, 4)
        with pytest.raises(DomainError, match="term products"):
            # four binomials in one call: the last step alone forms 8 products
            expr_module.mul(x + y, x - y, x + 2 * y, 2 * x + y)

    def test_constant_powers_are_bounded(self):
        # the exponents stay small enough that an unchecked power is quick to form,
        # and so fails the test, where 2^99999999999 would ask for 12.5 GB
        assert len(to_text(power(const(2), 14_000))) == 4215  # the largest admitted power prints
        for base, e in [(const(2), 14_001), (const(2), 10**7), (const(Fraction(1, 3)), -10**6),
                        (const(4), Fraction(10**7 + 1, 2)), (2 * x + 2, 10**7)]:
            with pytest.raises(DomainError, match="14000 bits"):
                power(base, e)
        # a bare sum joins (1 + x)^-1 through its content, here (2^300)^64
        s = const(2**300) * (1 + x)
        with pytest.raises(DomainError, match="14000 bits"):
            expr_module.mul(*[s] * 64, power(1 + x, -1))
        # so does a product of admitted constants
        with pytest.raises(DomainError, match="14000 bits"):
            expr_module.mul(const(2**13000), const(3**8000))
        # 2 has no integer n-th root, found without a Newton step that forms 2^(n - 1)
        root = Fraction(1, 3 * 10**8)
        start = time.perf_counter()
        assert power(const(2), root) == Pow(Const(2), root)
        assert time.perf_counter() - start < 0.25  # the Newton step took over 1 s

    def test_product_does_not_depend_on_association(self):
        r2, rx = power(const(2), Fraction(1, 2)), power(x, Fraction(1, 2))
        a, b, c = r2 + rx, r2 + y, rx + r2 * y
        assert a * b * c == c * b * a == a * (b * c)
        assert expr_module.mul(a, b, c) == expr_module.mul(c, b, a) == a * b * c
        assert a**3 == a * a * a
        assert is_zero(a**3 - a * a * a) == "zero"
        # a power base whose exponents sum to an integer joins its own base
        p = power(x**2, Fraction(1, 2))
        assert p * p * power(x, -2) == power(x, -2) * p * p == expr_module.mul(p, power(x, -2), p) == ONE
        # sums that share a radical: each product of terms joins its radicals once
        half = Fraction(1, 2)
        r = power(1 + x, half)
        assert expr_module.mul(r + y, r - y) == 1 + x - y**2
        assert expr_module.mul(r * y + 1, r * x + 2, power(1 + x, -1)) == \
            x * y + x * power(1 + x, -half) + 2 * y * power(1 + x, -half) + 2 * power(1 + x, -1)
        # a base other than a variable under fractional exponents in three sums' terms sums
        # its exponents once, as the product of the chosen terms as one monomial does
        for s in (power(power(y, Fraction(-3, 2)), Fraction(-3, 2)), power(const(Fraction(-3, 4)), Fraction(3, 2))):
            sums = (s * x + 1, s * y + 2, s + 3)
            product = expr_module.mul(*sums)
            assert product == add(*[expr_module.mul(*terms) for terms in itertools.product(*(t.terms for t in sums))])
            assert expr_module.mul(x, y, s, s, s) in product.terms

    def test_cached_hash_and_key_leave_equality_alone(self):
        a = (x + 2 * y) * sin(x) ** 2 - exp(y) / (x + y)
        b = sin(x) ** 2 * (2 * y + x) + -exp(y) * power(y + x, -1)
        assert a is b  # interned: one live node per value
        key = expr_module._sort_key(a)  # a caches its hash and key, b not yet
        assert hash(a) == hash(a) and a == b and repr(a) == repr(b)
        assert hash(a) == hash(b) and key == expr_module._sort_key(b)
        assert {a: 1}[b] == 1
        for t, u in zip(a.terms, b.terms):
            assert t == u and hash(t) == hash(u)
        assert expr_module._sort_key(a) is key  # computed once


def _raw_trees(count):
    rng = random.Random(18)
    return [random_raw_tree(rng) for _ in range(count)]


class TestSingleBaseRules:
    """The rules for one base raised to a power (constant roots, a power of a
    power or of a product, the content of a sum), checked by value against
    the raw trees they rebuild, which the walk reads without running them."""

    def test_rebuilt_trees_keep_the_raw_value(self):
        rng = random.Random(1)
        checked = 0
        for raw in _raw_trees(3000):
            canonical = substitute(raw, {})
            for _ in range(3):
                point = {name: rng.uniform(0.5, 2.0) for name in "xyz"}
                try:
                    want = tree_walk(raw, point)
                except (ArithmeticError, ValueError, TypeError):  # TypeError: sin of a complex
                    continue
                if not isinstance(want, float) or not math.isfinite(want):
                    continue
                got = tree_walk(canonical, point)
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (raw, canonical, point)
                checked += 1
        assert checked > 6000

    def test_canonical_trees_match_the_golden(self):
        _check_golden("canonical_trees.txt", [lambda raw=raw: substitute(raw, {}) for raw in _raw_trees(800)])

    def test_derivatives_match_the_golden(self):
        """The derivative in x, y and z of each canonical tree of the golden above."""
        _check_golden("derivatives.txt", [lambda raw=raw, v=v: differentiate(substitute(raw, {}), v)
                                          for raw in _raw_trees(800) for v in "xyz"])


def _check_golden(name, builds):
    """One line per build: the text of its tree, or the name of the error it raises."""
    lines = []
    for build in builds:
        try:
            lines.append(to_text(build()))
        except (ArithmeticError, ValueError) as exc:
            lines.append(type(exc).__name__)
    out = "".join(f"{line}\n" for line in lines)
    path = Path(__file__).parent / "golden" / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(out, encoding="utf-8")
    assert out == path.read_text(encoding="utf-8")


def _memo_tree():
    return sin(x * y) * power(x + y, Fraction(1, 2)) - exp(x) / (x + 2 * y)


def test_nodes_and_records_are_plain_values():
    from skewforms.analysis import ClosureVerdict, Locus
    from skewforms.duality import Metric
    from skewforms.forms import Parameterization

    half = Fraction(1, 2)
    nodes = {
        "Const(value=Fraction(1, 2))": Const(half),
        "Var(name='x')": x,
        "Add(terms=(Const(value=1), Var(name='x')))": 1 + x,
        "Mul(factors=(Const(value=2), Var(name='x')))": 2 * x,
        "Pow(base=Var(name='x'), exponent=Fraction(1, 2))": power(x, half),
        "Func(name='sin', arg=Var(name='x'))": sin(x),
    }
    for text, node in nodes.items():
        assert repr(node) == text
        back = pickle.loads(pickle.dumps(node))
        assert back == node and type(back) is type(node) and hash(back) == hash(node)
        with pytest.raises(AttributeError):
            setattr(node, node.__match_args__[0], ONE)
        with pytest.raises(AttributeError):
            delattr(node, node.__match_args__[0])

    plane = VariableSet(["x", "y"])
    metric = Metric(plane, (1, -1))
    assert repr(metric) == "Metric(vars=VariableSet(x, y), signature=(1, -1))"
    assert hash(metric) == hash(Metric(plane, (1, -1))) and metric != Metric.euclidean(plane)
    for attempt in (lambda: setattr(metric, "signature", (1, 1)), lambda: delattr(metric, "vars")):
        with pytest.raises(AttributeError):
            attempt()
    assert repr(ClosureVerdict("closed", "exact", x)) == (
        "ClosureVerdict(closed='closed', exact='exact', potential=Var(name='x'), notes='', "
        "derivative=None, residual=None)")
    assert repr(Locus("points", "one point", None, [(0.5, 1.0)])) == (
        "Locus(kind='points', description='one point', hyperplane=None, points=[(0.5, 1.0)])")
    a, b = Locus("empty", "none"), Locus("empty", "none")
    assert a == b and a.points == [] and a.points is not b.points

    records = [cls for cls in expr_module._Record.__subclasses__() if cls is not expr_module.Expression]
    assert len(records) == 14 and Metric in records and Parameterization in records
    for cls in records:
        if cls is not Metric:
            with pytest.raises(TypeError):
                hash(cls.__new__(cls))



def test_forms_and_records_round_trip_through_pickle():
    from skewforms.analysis import classify_closure
    from skewforms.duality import Metric
    from skewforms.forms import DifferentialForm

    plane = VariableSet(["x", "y"])
    form = DifferentialForm.one_form(plane, [y * exp(x), exp(x) + x**2])
    doc = parse("vars x, y\nmetric +1, -1\nscalar s = sin(x*y)\nform a = y*dx - x*dy\n")
    for value in (plane, Metric(plane, (1, -1)), form, doc, classify_closure(form)):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value
    assert pickle.loads(pickle.dumps(form)).coefficient((1,)) is form.coefficient((1,))

class TestDerivativeMemo:
    def test_a_repeated_derivative_is_the_same_object(self):
        e = _memo_tree()
        dx = differentiate(e, "x")
        assert differentiate(e, "x") is dx
        assert differentiate(e, "y") is not dx and differentiate(e, "y") is differentiate(e, "y")

    def test_an_equal_tree_gives_an_equal_derivative(self):
        a, b = _memo_tree(), _memo_tree()
        assert a is b
        da = differentiate(a, "x")
        assert b._derivatives["x"] is da  # so the second call is a memo hit
        db = differentiate(b, "x")
        assert da is db and da == _reference_diff(b, "x")
        assert expr_module._partial(b, "x") is da   # one entry per (node, variable), read by d too

    def test_the_memo_keeps_the_map_until_a_tree_is_asked_for(self):
        e = sin(var("memo_u") * y) * power(var("memo_u") + y, Fraction(1, 2)) - var("memo_u") ** 3
        terms = expr_module._partial(e, "memo_u")
        assert type(terms) is dict and e._derivatives == {"memo_u": terms}
        assert expr_module._partial(e, "memo_u") is terms
        tree = differentiate(e, "memo_u")
        assert e._derivatives == {"memo_u": tree}   # the tree takes the map's place
        assert tree == expr_module._assemble(terms) == _reference_diff(e, "memo_u")
        assert expr_module._partial(e, "memo_u") is tree and differentiate(e, "memo_u") is tree

    def test_equality_hash_repr_and_pickling_ignore_the_memo(self):
        a, b = _memo_tree(), _memo_tree()
        differentiate(a, "x")
        differentiate(a, "z")
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert pickle.dumps(a) == pickle.dumps(b)
        back = pickle.loads(pickle.dumps(a))
        assert back is a
        assert differentiate(back, "x") == differentiate(a, "x")

    def test_nesting_costs_one_frame_per_level(self):
        # a chain of n sin links differentiates within n + 40 frames of the
        # caller, as a tree and as d of a form; a second frame per level would need 2n
        from skewforms.forms import DifferentialForm, exterior_derivative

        n = 80
        e, chain = x, var("frame_w")
        for _ in range(n):
            e, chain = sin(e), sin(chain)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + n + 40)
        try:
            d = differentiate(e, "x")
            form = exterior_derivative(DifferentialForm.scalar(VariableSet(["frame_w", "y"]), chain))
        finally:
            sys.setrecursionlimit(limit)
        assert len(d.factors) == n and form.coefficient((1,)) == substitute(d, {"x": var("frame_w")})


class TestInterning:
    def test_equal_builds_are_one_object(self):
        assert const(Fraction(4, 2)) is const(2) is Const(Fraction(2, 1)) and power(x, Fraction(6, 3)) is x**2
        big, fresh = Const(Fraction(10**30 + 7, 1)), Pow(var("fresh"), Fraction(12345, 1))  # built by a miss
        assert type(big.value) is int and type(fresh.exponent) is int and big is Const(10**30 + 7)
        assert (x + y) ** 2 * sin(x) is sin(x) * (y**2 + 2 * x * y + x * x)
        assert -(x - y) / (y - x) is ONE and exp(ln(x)) - exp(ln(x)) is ZERO
        doc = parse("vars x, y\nscalar s = (x + y)^2*sin(x) - 1/(x + 2*y)\n"
                    "form a = exp(x*y)*dx + (x + y)^(1/2)*dy\nform b = a ^ (x*dy - y^2*dx)\n")
        again = parse(print_document(doc))
        assert doc.find("s").expr is (x + y) ** 2 * sin(x) - 1 / (x + 2 * y)
        for name in ("s", "a", "b"):
            old, new = doc.find(name), again.find(name)
            pairs = ([(old.expr, new.expr)] if name == "s" else
                     [(c, new.form.coefficient(i)) for i, c in old.form.items()])
            assert pairs and all(p is q for p, q in pairs)

    def test_equality_and_hashing_are_identity_in_c(self):
        for cls in (expr_module.Expression, *expr_module.Expression.__subclasses__()):
            if cls is not expr_module.Expression:
                assert not {"__eq__", "__ne__", "__hash__", "__init__"} & set(vars(cls)), cls
            assert (cls.__eq__, cls.__ne__, cls.__hash__) == (object.__eq__, object.__ne__, object.__hash__)
        assert len(expr_module.Expression.__subclasses__()) == 6

    def test_dropped_nodes_leave_the_table(self):
        gc.collect()
        before = set(expr_module._NODES)
        u, v = var("u_dropped"), var("v_dropped")
        # the first two derivatives hold their own tree as a child, and the tree's memo holds them
        trees = [exp(u**2 * v), u * exp(u), _memo_tree() * u - power(u + v + 1, 5) / (u - v)]
        for t in trees:
            differentiate(differentiate(t, "u_dropped"), "v_dropped")
        chain = u
        for _ in range(20_000):
            chain = sin(chain)
        probes = [weakref.ref(t) for t in (*trees, chain, u)]
        assert len(expr_module._NODES) > len(before) + 20_000
        del trees, chain, t, u, v
        gc.collect()
        assert [p() for p in probes] == [None] * len(probes)
        assert set(expr_module._NODES) <= before
        assert all(ref() is not None for ref in expr_module._NODES.values())

    def test_a_sum_whose_hash_key_is_taken_still_has_one_node(self):
        p, q = var("p_collides"), var("q_collides")
        terms = (p, q)
        decoy = p + 2 * q  # stands under the hash key of p + q, as a hash collision would put it
        key = (Add, hash(terms))
        ref = expr_module._Ref(decoy, expr_module._drop)
        ref.key = key
        expr_module._NODES[key] = ref
        total = Add(terms)
        assert total is not decoy and total.terms == terms and Add(terms) is p + q is total
        assert p + 2 * q is decoy
        probe = weakref.ref(decoy)
        del decoy, ref
        gc.collect()
        assert probe() is not None and expr_module._NODES[key]() is probe()  # pinned by the sum
        assert Add(terms) is total and q + p is total
        exact = (Add, id(p), id(q))
        assert expr_module._NODES[exact]() is total
        del total
        gc.collect()
        assert probe() is None and key not in expr_module._NODES and exact not in expr_module._NODES

    def test_pickle_and_copies_return_the_live_node(self):
        e = _memo_tree() * power(x + y, Fraction(-3, 2)) + Const(Fraction(1, 3))
        d = differentiate(e, "x")
        for node in (e, x, Const(Fraction(1, 3)), e.terms[-1]):
            assert pickle.loads(pickle.dumps(node)) is node
            assert copy.copy(node) is node and copy.deepcopy(node) is node
        assert copy.deepcopy(e)._derivatives["x"] is d
        held = copy.deepcopy({"e": [e, (d, 1)]})
        assert held["e"][0] is e and held["e"][1][0] is d

    def test_threads_building_the_same_trees_share_one_node_each(self):
        def build(trial, out, barrier):
            a, b = var(f"thread_a{trial}"), var(f"thread_b{trial}")
            barrier.wait()
            out.append([(a + i) * b**2 - sin(a * i) / (b + i) for i in range(400)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(10):
                results, barrier = [], threading.Barrier(4)
                threads = [threading.Thread(target=build, args=(trial, results, barrier)) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert len(results) == 4
                duplicates = sum(len({id(t) for t in trees}) - 1 for trees in zip(*results))
                assert duplicates == 0, f"trial {trial}: {duplicates} duplicate trees"
        finally:
            sys.setswitchinterval(interval)


def _reference_diff(e, v):
    """The node-by-node derivative that ``differentiate`` replaced: a product
    calls ``mul`` once per factor with all the other factors."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Add):
        return add(*[_reference_diff(t, v) for t in e.terms])
    if isinstance(e, Mul):
        pieces = []
        for i, f in enumerate(e.factors):
            df = _reference_diff(f, v)
            if df != ZERO:
                pieces.append(expr_module.mul(*e.factors[:i], df, *e.factors[i + 1:]))
        return add(*pieces)
    if isinstance(e, Pow):
        db = _reference_diff(e.base, v)
        if db == ZERO:
            return ZERO
        return expr_module.mul(Const(e.exponent), power(e.base, e.exponent - 1), db)
    da = _reference_diff(e.arg, v)
    if da == ZERO:
        return ZERO
    outer = {"sin": cos, "cos": lambda a: -sin(a), "exp": exp, "ln": lambda a: power(a, -1)}
    return expr_module.mul(outer[e.name](e.arg), da)


_DIFF_EXPONENTS = (2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3))


def _calculus_tree(rng, depth):
    """Sums, products, powers of atoms, products and sums, and sin/cos/exp/ln."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([const(rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2)])), *_XYZ, *_XYZ])
    a, b = _calculus_tree(rng, depth - 1), _calculus_tree(rng, depth - 1)
    kind = rng.randrange(6)
    if kind == 0:
        return a + b
    if kind == 1:
        return a * b
    if kind == 5:
        return rng.choice([sin, cos, exp, ln])(a)
    base = (a, a * b, a + b)[kind - 2]
    return base if base == ZERO else power(base, rng.choice(_DIFF_EXPONENTS))


def _assert_matches_reference(e, v):
    """The walk gives the reference's tree, except where the two multiply the
    same factors in another grouping: a term that holds a radical of a
    product or of a sum can then come out as x^-1*(x*z)^(5/3) from one and
    z*(x*z)^(2/3) from the other, equal values that the canonical form
    leaves as unequal trees.  There the two must agree in value at points
    of [1/2, 3/2]^3.  Returns whether the trees differ."""
    walk, reference = differentiate(e, v), _reference_diff(e, v)
    if walk == reference:
        return False
    f, g = (compile_expression(t, ("x", "y", "z")).scalar for t in (walk, reference))
    rng = random.Random(0)
    for _ in range(8):
        point = [rng.uniform(0.5, 1.5) for _ in range(3)]
        try:
            want = g(*point)
        except DomainError:
            continue
        assert f(*point) == pytest.approx(want, rel=1e-9, abs=1e-12), (e, v)
    return True


def _declared_coefficients(doc):
    for decl in doc.declarations:
        for attr in ("expr", "psi"):
            if getattr(decl, attr, None) is not None:
                yield getattr(decl, attr)
        for attr in ("form", "phi", "eta"):
            if getattr(decl, attr, None) is not None:
                yield from (c for _, c in getattr(decl, attr).items())
        if getattr(decl, "system", None) is not None:
            yield from decl.system.actions
            if decl.system.psi is not None:
                yield decl.system.psi


class TestDifferentiate:
    def test_power_product_rule(self):
        assert differentiate(x**2 * y, "x") == 2 * x * y

    def test_table_derivatives(self):
        assert differentiate(sin(x), "x") == cos(x)
        assert differentiate(cos(x), "x") == -sin(x)
        assert differentiate(exp(x), "x") == exp(x)
        assert differentiate(ln(x), "x") == power(x, -1)

    def test_constant(self):
        assert differentiate(const(7), "y") == ZERO

    def test_chain_rule(self):
        assert differentiate(sin(x**2), "x") == 2 * x * cos(x**2)

    def test_quotient(self):
        e = differentiate(x / y, "y")
        assert e == -x * power(y, -2)

    def test_rejects_a_non_expression(self):
        with pytest.raises(TypeError, match="not an Expression node: 3"):
            differentiate(3, "x")

    def test_matches_the_reference_on_random_trees(self):
        rng = random.Random(4)
        differ = []
        for _ in range(3000):
            e = _calculus_tree(rng, 3)
            differ += [(e, v) for v in "xyz" if _assert_matches_reference(e, v)]
        # one of the 9000 here: d/dz of (x + y)^(1/2)*(x*z + y*z)^(1/2) + ..., where the
        # walk's one mul meets (x + y) with (x + y)^(1/2) before the reference distributes it
        assert len(differ) <= 3

    def test_matches_the_reference_on_the_corpus(self):
        checked = 0
        for path in sorted(Path(__file__).parent.joinpath("data").glob("*.forms")):
            doc = parse(path.read_text(encoding="utf-8"))
            for c in _declared_coefficients(doc):
                for v in doc.vars.names:
                    assert differentiate(c, v) == _reference_diff(c, v)
                    checked += 1
        assert checked > 80

    def test_a_variable_power_is_lowered_in_place(self, monkeypatch):
        z = var("z")
        e = 3 * x**4 * y**2 * z - x * power(y, Fraction(1, 2)) + Fraction(1, 3) * y * power(x, -2)
        want = _reference_diff(e, "x")
        monkeypatch.setattr(expr_module, "mul", lambda *parts: pytest.fail("mul was called"))
        assert differentiate(e, "x") == want
        assert to_text(differentiate(e, "y")) == "-1/2*x*y^(-1/2) + 1/3*x^-2 + 6*x^4*y*z"

    def test_recursion_leaves_the_public_name_alone(self, monkeypatch):
        calls = []
        real = expr_module.differentiate
        monkeypatch.setattr(expr_module, "differentiate", lambda e, v: calls.append(v) or real(e, v))
        e = sin(exp(x * y) + power(x + y, Fraction(1, 2))) * ln(x**2 + 1)
        assert expr_module.differentiate(e, "x") == _reference_diff(e, "x")
        assert calls == ["x"]

    def test_finite_difference_agreement(self, rng):
        """200 random polynomials: symbolic derivative matches central
        differences within 1e-6 relative at 20 points."""
        names = ("x", "y", "z")
        h = 1e-5
        for _ in range(200):
            e = random_polynomial(rng, names)
            v = rng.choice(names)
            de = differentiate(e, v)
            for _ in range(20):
                p = random_point(rng, names)
                up = dict(p, **{v: p[v] + h})
                dn = dict(p, **{v: p[v] - h})
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                sym = evaluate(de, p)
                assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


class TestEvaluate:
    def test_basic(self):
        assert evaluate(x**2 + y, {"x": 2, "y": 1}) == 5.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            evaluate(ln(x), {"x": 0.0})
        with pytest.raises(DomainError):
            evaluate(ln(x), {"x": -1.0})
        with pytest.raises(DomainError):
            evaluate(power(x, -1), {"x": 0.0})
        with pytest.raises(DomainError):
            evaluate(power(x, Fraction(1, 2)), {"x": -1.0})

    def test_unbound_variable(self):
        with pytest.raises(UnknownVariableError):
            evaluate(x + y, {"x": 1.0})

    def test_exp_sin_product(self):
        assert evaluate(exp(x) * sin(y), {"x": 0.0, "y": 0.0}) == 0.0

    def test_fractional_power(self):
        assert evaluate(power(x, Fraction(3, 2)), {"x": 4.0}) == pytest.approx(8.0)

    def test_overflow_under_sin_is_a_domain_error(self):
        # x*y overflows to inf, where math.sin raises a bare ValueError
        with pytest.raises(DomainError):
            evaluate(sin(x * y), {"x": 1e200, "y": 1e200})

    def test_constant_is_read_without_compiling(self, monkeypatch):
        values = [0, 7, -3, Fraction(1, 3), Fraction(-22, 7), Fraction(1, 10**400),
                  2**1023, 10**308 + 1]
        compiled = [compile_expression(const(v), ["x"]).scalar(0.5) for v in values]

        def no_compile(*args):
            raise AssertionError("a constant was compiled")

        monkeypatch.setattr(expr_module, "compile_expression", no_compile)
        for v, want in zip(values, compiled):
            got = evaluate(const(v), {"x": 0.5})
            assert type(got) is float and float.hex(got) == float.hex(want)
        for v in (2**1024, -(10**400), Fraction(10**400, 3)):  # beyond the float range
            with pytest.raises(DomainError):
                evaluate(const(v), {})
        monkeypatch.undo()
        for v in (2**1024, -(10**400), Fraction(10**400, 3)):
            with pytest.raises(DomainError):
                compile_expression(const(v), []).scalar()


class TestCompileOnce:
    @staticmethod
    def _count_compiles(monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return compile(*args)

        monkeypatch.setattr(expr_module, "compile", counted, raising=False)
        expr_module._function_code.cache_clear()
        return calls

    def test_evaluate_compiles_a_tree_once(self, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        e = sin(x * y) + x**3 / (1 + y**2)
        rng = random.Random(4)
        points = [{"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)} for _ in range(100)]
        values = [evaluate(e, p) for p in points]
        assert len(calls) == 1
        assert values == [tree_walk(e, p) for p in points]

    def test_the_cache_holds_at_most_its_bound(self, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        bound = expr_module._function_code.cache_info().maxsize
        assert bound == 256
        for k in range(bound + 44):
            assert compile_expression(x + k, ["x"]).scalar(0.5) == 0.5 + k
        assert len(calls) == bound + 44
        assert expr_module._function_code.cache_info().currsize == bound
        compile_expression(x + bound + 43, ["x"])  # the newest source is still held
        assert len(calls) == bound + 44

    def test_threads_compiling_one_source_get_one_value(self):
        expr_module._function_code.cache_clear()
        e = exp(x) * cos(y) - x * y**2 + ln(1 + x**2)
        want = tree_walk(e, {"x": 0.3, "y": -0.7})
        barrier = threading.Barrier(8)
        results = []

        def work():
            barrier.wait(timeout=30)
            results.append(compile_expression(e, ["x", "y"]).scalar(0.3, -0.7))

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 8


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([const(rng.randint(-5, 5)), x, y])
    kind = rng.randrange(8)
    a = _random_tree(rng, depth - 1)
    if kind == 0:
        return a + _random_tree(rng, depth - 1)
    if kind == 1:
        return a * _random_tree(rng, depth - 1)
    if kind == 2:
        return power(a, rng.choice([-2, -1, 2, 3, Fraction(1, 2), Fraction(-3, 2)]))
    return (sin, cos, exp, ln, sin)[kind - 3](a)


class TestCompiled:
    # (tree, point (x, y) where scalar mode raises DomainError)
    DOMAIN_CASES = [
        (ln(x), (0.0, 1.0)),
        (ln(x), (-1.0, 1.0)),
        (power(x, Fraction(1, 2)), (-1.0, 1.0)),
        (power(x, -1), (0.0, 1.0)),
        (power(x, Fraction(-1, 2)), (0.0, 1.0)),
        (exp(x), (1000.0, 1.0)),
        (const(10**400) * x, (1.0, 1.0)),
        (const(-(10**400)), (1.0, 1.0)),
        (sin(x * y), (1e200, 1e200)),
        (x * y, (1e200, 1e200)),
        (power(x * y + 1, -1), (1e200, 1e200)),   # 1/inf must not pass for 0.0
        (exp(-x * y), (1e200, 1e200)),            # nor exp(-inf)
        (x + y, (1e308, 1e308)),                  # a two-term sum overflows to inf
        (2 * x - 3 * y, (1e308, 1e308)),          # or to inf - inf, which is NaN
    ]

    @pytest.mark.parametrize("tree, bad", DOMAIN_CASES)
    def test_scalar_raises_exactly_where_array_gives_nan(self, tree, bad):
        fn = compile_expression(tree, ["x", "y"])
        with pytest.raises(DomainError):
            fn.scalar(*bad)
        points = [bad, (0.5, 0.25)]
        values = np.broadcast_to(fn.array(*np.array(points).T), (2,))
        assert math.isnan(values[0])
        try:
            assert values[1] == pytest.approx(fn.scalar(*points[1]), rel=1e-12)
        except DomainError:
            assert math.isnan(values[1])

    @staticmethod
    def _matches_tree_walk(fn, e, px, py):
        """True if scalar mode gives the walk's bits, False if both reject the point."""
        try:
            want = tree_walk(e, {"x": px, "y": py})
            ok = isinstance(want, float) and math.isfinite(want)
        except (ArithmeticError, ValueError, TypeError):
            ok = False
        if ok:
            assert float.hex(fn.scalar(px, py)) == float.hex(want), (e, px, py)
        else:
            with pytest.raises(DomainError):
                fn.scalar(px, py)
        return ok

    def test_scalar_mode_matches_the_tree_walk_bit_for_bit(self):
        # fsum gives +0.0 for every zero sum, -0.0 + -0.0 too, and raises on
        # a sum beyond the float range
        signed_zeros = [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)]
        overflows = [(1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)]
        rng = random.Random(1)
        results = []
        for _ in range(400):
            e = _random_tree(rng, 4)
            fn = compile_expression(e, ["x", "y"])
            points = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
            results += [self._matches_tree_walk(fn, e, px, py) for px, py in points + signed_zeros]
        for e in (x + y, x - y, -x - y, x + sin(y), 2 * x - 3 * y, power(x + y, -1), exp(-x - y)):
            fn = compile_expression(e, ["x", "y"])
            results += [self._matches_tree_walk(fn, e, px, py) for px, py in signed_zeros + overflows]
        assert results.count(True) > 1000 and results.count(False) > 100
        assert float.hex(compile_expression(x + y, ["x", "y"]).scalar(-0.0, -0.0)) == "0x0.0p+0"

    def test_array_mode_agrees_with_scalar_mode(self):
        """Plain sums and numpy's sin/cos/exp/log differ from fsum and math's
        by an ulp or so; sin of a large argument, as in sin(exp(exp(5*y))),
        magnifies that without bound, so the trees are shallow and the points
        moderate, as in the evaluation property test below."""
        rng = random.Random(2)
        xs = np.array([rng.uniform(0.5, 1.5) for _ in range(16)])
        ys = np.array([rng.uniform(0.5, 1.5) for _ in range(16)])
        for _ in range(300):
            fn = compile_expression(_random_tree(rng, 3), ["x", "y"])
            values = np.broadcast_to(fn.array(xs, ys), xs.shape)
            for px, py, value in zip(xs.tolist(), ys.tolist(), values.tolist()):
                try:
                    want = fn.scalar(px, py)
                except DomainError:
                    assert math.isnan(value)
                    continue
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_shared_subtrees_are_computed_once(self, monkeypatch):
        calls = []

        def counted_sin(a):
            calls.append(a)
            return math.sin(a)

        monkeypatch.setitem(expr_module._SCALAR_HELPERS, "_sin", counted_sin)
        wave = sin(x * y)
        e = wave * x + wave * y
        assert compile_expression(e, ["x", "y"]).scalar(0.3, 0.7) == tree_walk(e, {"x": 0.3, "y": 0.7})
        assert len(calls) == 1

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            compile_expression(x + y, ["x"])

    def test_variable_names_need_not_be_python_names(self):
        fn = compile_expression(var("lambda") * var("sin"), ["lambda", "sin"])
        assert fn.scalar(2.0, 3.0) == 6.0


class TestIsZero:
    def test_witness(self):
        assert is_zero(x - y) == "nonzero"

    def test_exact_identity(self):
        assert is_zero((x + y) ** 2 - x**2 - 2 * x * y - y**2) == "zero"

    def test_pythagorean_never_nonzero(self):
        assert is_zero(sin(x) ** 2 + cos(x) ** 2 - 1) in ("zero", "unknown")
        assert is_zero(sin(x) ** 2 + cos(x) ** 2 - 1) != "nonzero"

    def test_transcendental_witness(self):
        assert is_zero(sin(x) - x) == "nonzero"

    def test_zero_never_claimed_with_witness(self, rng):
        """Anything certified zero has no numeric witness above 1e-6."""
        names = ("x", "y")
        for _ in range(100):
            e = random_polynomial(rng, names)
            e = e - e  # certified zero by construction
            assert is_zero(e) == "zero"
            for _ in range(10):
                assert abs(evaluate(e, random_point(rng, names))) <= 1e-6

    def test_zero_verdict_sound_on_random_expressions(self, rng):
        """For arbitrary rational-function expressions: a "zero" verdict is
        never contradicted by a numeric witness above 1e-6."""
        names = ("x", "y")
        for _ in range(150):
            a = random_polynomial(rng, names)
            b = random_polynomial(rng, names)
            picks = [a * b, a - b, a / (b + const(5)) if b != const(-5) else a,
                     (a + b) ** 2 - a**2 - 2 * a * b - b**2]
            e = picks[rng.randrange(len(picks))]
            if is_zero(e) != "zero":
                continue
            for _ in range(30):
                try:
                    value = evaluate(e, random_point(rng, names))
                except DomainError:
                    continue
                assert abs(value) <= 1e-6

    def test_tiny_constant_is_nonzero_exactly(self):
        assert is_zero(const(Fraction(1, 10**12))) == "nonzero"

    def test_polynomials_are_nonzero_without_a_probe(self, monkeypatch):
        probed = []
        probe = expr_module._probe_for_witness

        def checked(e):
            for t in _terms_of(e):
                if all(isinstance(b, Var) and type(k) is int and k > 0
                       for b, k in map(expr_module._as_power, expr_module._as_term(t)[1])):
                    continue
                probed.append(e)
                return probe(e)
            raise AssertionError(f"a polynomial was probed: {e}")

        monkeypatch.setattr(expr_module, "_probe_for_witness", checked)
        tiny = const(Fraction(1, 10**12))
        # every probe of the first falls under the probe threshold
        for e in (tiny * x, x - y, (x + y) ** 2 - x**2 - y**2, x**3 * y - tiny, tiny * x**2 * y**5 + 1):
            assert is_zero(e) == "nonzero", e
        assert probed == []
        # a negative or fractional power, or a function, still asks for a witness
        assert is_zero(tiny * sin(x)) == "unknown"
        assert is_zero(power(x, -1) + y) == "nonzero"
        assert is_zero(power(x, Fraction(1, 2)) + y) == "nonzero"
        assert len(probed) == 3

    def test_no_probe_in_the_domain_is_unknown(self):
        # x - 3 < 0 at every probe of the box [-2, 2]
        assert is_zero(ln(x - 3)) == "unknown"

    def test_a_term_undefined_everywhere_is_unknown(self):
        # 0^-k has no value anywhere, so neither verdict can be backed
        z = power(x - x, -1)
        assert z == Pow(ZERO, -1)
        for e in (z, x + z, x * z, power(x - x, Fraction(-3, 2)) + y, x * z - 1):
            assert is_zero(e) == "unknown"
        # a nonzero base to a negative power is still cleared
        assert is_zero(power(x + 1, -1) + power(x - 1, -1) - 2 * x * power(x**2 - 1, -1)) == "zero"
        assert is_zero(power(x + 1, -1) - power(x + 2, -1)) == "nonzero"


class TestSubstitute:
    def test_simple(self):
        assert substitute(x**2 + y, {"x": y}) == y**2 + y

    def test_into_function(self):
        assert substitute(sin(x), {"x": x + y}) == sin(x + y)

    def test_free_variables(self):
        assert free_variables(x * y + sin(x)) == {"x", "y"}
        assert free_variables(const(3)) == frozenset()


class TestVariableSet:
    def test_order_and_positions(self):
        vs = VariableSet(["a", "b", "c"])
        assert vs.dimension == 3
        assert vs.position("b") == 2
        assert vs.name_at(3) == "c"
        assert list(vs) == ["a", "b", "c"]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            VariableSet(["a", "a"])

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            VariableSet(["2x"])
        with pytest.raises(ValueError):
            VariableSet([])

    def test_unknown_position(self):
        with pytest.raises(UnknownVariableError):
            VariableSet(["a"]).position("b")


# Hypothesis strategies for small raw trees.

_names = st.sampled_from(["x", "y", "z"])


_exponents = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]),
)


def _exprs(depth=3):
    leaf = st.one_of(
        st.integers(-5, 5).map(const),
        st.fractions(-5, 5, max_denominator=6).map(const),
        _names.map(var),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda p: p[0] + p[1]),
        st.tuples(sub, sub).map(lambda p: p[0] * p[1]),
        st.tuples(sub, _exponents).map(lambda p: power(p[0], p[1])
                                       if not (p[0] == ZERO and p[1] < 0) else p[0]),
        sub.map(sin),
        sub.map(exp),
    )


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_factories_are_canonical_fixpoints(e):
    assert substitute(e, {}) == e


@settings(max_examples=200, deadline=None)
@given(_exprs(2), _exprs(2))
def test_operations_commute_numerically(a, b):
    """a+b and b+a (and products) normalize to the same tree."""
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=150, deadline=None)
@given(_exprs(2))
def test_evaluation_matches_structural_rebuild(e):
    rng = random.Random(7)
    p = {n: rng.uniform(0.5, 1.5) for n in ("x", "y", "z")}
    try:
        first = evaluate(e, p)
    except DomainError:
        return
    assert evaluate(substitute(e, {}), p) == pytest.approx(first, rel=1e-9, abs=1e-9)


def _rationals_in(e):
    if isinstance(e, Const):
        yield e.value
    elif isinstance(e, Pow):
        yield e.exponent
        yield from _rationals_in(e.base)
    elif isinstance(e, (Add, Mul)):
        for child in e.terms if isinstance(e, Add) else e.factors:
            yield from _rationals_in(child)
    elif not isinstance(e, Var):
        yield from _rationals_in(e.arg)


def _assert_one_representation(e):
    for q in _rationals_in(e):
        assert type(q) is int or (type(q) is Fraction and q.denominator > 1), repr(q)


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_integral_rationals_are_plain_ints(e):
    """Every Const value and Pow exponent is an int when integral and a
    Fraction with denominator > 1 otherwise: never a bool or a float."""
    _assert_one_representation(e)
    for name in ("x", "y"):
        _assert_one_representation(differentiate(e, name))
    _assert_one_representation(substitute(e, {"y": x * var("z"), "z": const(Fraction(1, 2))}))
    reparsed = parse(f"vars x, y, z\nscalar s = {to_text(e)}\n").find("s").expr
    _assert_one_representation(reparsed)
    assert reparsed == e


@settings(max_examples=200, deadline=None)
@given(_exprs(), _names)
def test_derivative_matches_the_reference(e, v):
    _assert_matches_reference(e, v)


_scales = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
# pairs (k, t) with their negations (-k, t) in any order, scales with denominators up to 12
_cancelling_pairs = st.lists(st.tuples(st.fractions(-3, 3, max_denominator=12), _exprs(2)),
                             max_size=3).flatmap(lambda pairs: st.permutations(pairs + [(-k, t) for k, t in pairs]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.tuples(_scales, _exprs(2)), max_size=4), _cancelling_pairs))
def test_signed_sums_match_scaling_then_adding(pairs):
    """One pass over (k, tree) pairs gives the sum of the scaled trees."""
    combined = expr_module._combine(pairs)
    assert combined == add(*[expr_module.mul(const(k), t) for k, t in pairs])
    if all(pairs.count((-k, t)) == pairs.count((k, t)) for k, t in pairs):
        assert combined is ZERO   # every pair met its negation
    _assert_one_representation(combined)
    trees = [t for _, t in pairs]
    if len(trees) == 2:
        a, b = trees
        minus = const(-1)
        assert a - b == add(a, expr_module.mul(minus, b)) and 1 - a == add(ONE, expr_module.mul(minus, a))
        assert -a == expr_module.mul(minus, a)
