"""Shared random generators for the property suites, the tree-walk
reference for compiled evaluation, and a recorder of the expansion bound's checks.

Everything is seeded; the suites are deterministic across runs.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from skewforms import expr as expr_module
from skewforms.expr import Add, Const, Expression, Func, Mul, Pow, Var, VariableSet, ZERO, const, var
from skewforms.forms import DifferentialForm


def random_polynomial(rng: random.Random, names, max_degree: int = 3,
                      max_terms: int = 3) -> Expression:
    """Random polynomial with small nonzero integer coefficients and total
    degree at most max_degree."""
    total = ZERO
    for _ in range(rng.randint(1, max_terms)):
        term = const(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        for _ in range(rng.randint(0, max_degree)):
            term = term * var(rng.choice(names))
        total = total + term
    return total


def random_form(rng: random.Random, variables: VariableSet, degree: int,
                max_degree: int = 3, density: float = 0.8) -> DifferentialForm:
    keys = list(itertools.combinations(range(1, variables.dimension + 1), degree))
    coeffs = {}
    for key in keys:
        if rng.random() < density:
            coeffs[key] = random_polynomial(rng, variables.names, max_degree)
    if not coeffs and keys:
        coeffs[keys[0]] = random_polynomial(rng, variables.names, max_degree)
    return DifferentialForm(variables, degree, coeffs)


def random_point(rng: random.Random, names, lo: float = -2.0, hi: float = 2.0):
    return {name: rng.uniform(lo, hi) for name in names}


RAW_CONSTANTS = (-3, -1, 2, 4, 8, Fraction(9, 4), Fraction(-3, 4), Fraction(1, 8))
RAW_EXPONENTS = (2, 3, -1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2),
                 Fraction(1, 3), Fraction(2, 3))


def random_raw_tree(rng: random.Random, depth: int = 3) -> Expression:
    """A tree built from the node classes directly, so not canonical: sums
    and products of two or three parts, powers, sin and exp over x, y, z and
    constants with exact roots (4, 8, 9/4, 1/8) and without (-3, -1, -3/4, 2).
    Rebuilding it through the factories runs every single-base power rule."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(rng.choice(RAW_CONSTANTS))
        return Var(rng.choice("xyz"))
    kind = rng.randrange(5)
    if kind < 2:
        parts = tuple(random_raw_tree(rng, depth - 1) for _ in range(rng.randint(2, 3)))
        return Add(parts) if kind == 0 else Mul(parts)
    if kind < 4:
        return Pow(random_raw_tree(rng, depth - 1), rng.choice(RAW_EXPONENTS))
    return Func(rng.choice(("sin", "exp")), random_raw_tree(rng, depth - 1))


def tree_walk(e, point):
    """Node-by-node evaluation, the reference for compiled scalar mode.

    Sums by math.fsum.  Where no intermediate value overflows, it raises, or
    returns a complex or non-finite value, wherever scalar mode must raise
    DomainError.
    """
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        return point[e.name]
    if isinstance(e, Add):
        return math.fsum(tree_walk(t, point) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= tree_walk(f, point)
        return out
    if isinstance(e, Pow):
        base = tree_walk(e.base, point)
        r = e.exponent
        return base ** int(r) if r.denominator == 1 else base ** float(r)
    functions = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log}
    return functions[e.name](tree_walk(e.arg, point))


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture
def product_counts(monkeypatch):
    """The product count of each check of the 10^5 expansion bound, in order."""
    counts = []

    class Budget(int):
        def __lt__(self, products):   # products > budget asks the budget first
            counts.append(products)
            return int.__lt__(self, products)

    monkeypatch.setattr(expr_module, "_MAX_EXPANSION_PRODUCTS", Budget(100_000))
    return counts


VARSETS = {
    2: VariableSet(["x", "y"]),
    3: VariableSet(["x", "y", "z"]),
    4: VariableSet(["x", "y", "z", "w"]),
}
