"""Exterior algebra: degree-p skew-symmetric forms over a coordinate set.

A form is a sparse map from strictly increasing 1-based index tuples to
coefficient expressions.  Terms are accumulated in one place, which sums the
(sign, coefficient) parts of each key in one pass: the constructor takes
(index tuple, coefficient) pairs whose tuples may be unsorted or repeated,
signs each by its permutation and drops repeated indices; a - b signs b's by -1.
Structurally zero coefficients are dropped, so the dd = 0 identity is a
structural test.

Degrees above the space dimension collapse to a canonical zero form of the
clamped degree rather than erroring, matching the algebra (Lambda^k = 0 for
k > n).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Sequence

from .expr import (
    Expression,
    VariableSet,
    ZERO,
    ONE,
    const,
    differentiate,
    free_variables,
    is_zero,
    mul,
    substitute,
    to_text,
    _Record,
    _combine,
    _signed_sum_text,
    _sum_of_products,
    _term_texts,
)

__all__ = [
    "FormError",
    "DifferentialForm",
    "Parameterization",
    "sort_index_tuple",
    "wedge",
    "exterior_derivative",
    "commutator",
    "pullback",
    "zero_verdict",
    "form_to_text",
]


class FormError(ValueError):
    """Invalid form construction or an operation outside its preconditions."""


def sort_index_tuple(indices: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort indices, returning (sign, sorted tuple); sign 0 on repeats.

    Insertion sort counting inversions -- O(p^2), fine for p <= 4.
    """
    out: list[int] = []
    sign = 1
    for idx in indices:
        pos = len(out)
        while pos > 0 and out[pos - 1] > idx:
            pos -= 1
        if pos > 0 and out[pos - 1] == idx:
            return 0, ()
        sign *= -1 if (len(out) - pos) % 2 else 1
        out.insert(pos, idx)
    return sign, tuple(out)


def _coerce_coeff(c) -> Expression:
    if isinstance(c, Expression):
        return c
    if isinstance(c, (int, Fraction)):
        return const(c)
    raise FormError(f"coefficient must be an Expression or rational, got {c!r}")


class DifferentialForm:
    """Sparse skew-symmetric form of a fixed degree over a VariableSet."""

    __slots__ = ("vars", "degree", "_coeffs")

    def __init__(self, variables: VariableSet, degree: int,
                 coeffs: Mapping[Sequence[int], Expression]
                 | Iterable[tuple[Sequence[int], Expression]] | None = None):
        """Build a form from a mapping or from (index tuple, coefficient) pairs;
        unsorted tuples get their permutation sign, repeated indices drop the
        term and the terms of each key are summed."""
        n = variables.dimension
        if not 0 <= degree <= n:
            raise FormError(f"degree must be between 0 and {n}, got {degree}")
        if isinstance(coeffs, Mapping):
            coeffs = coeffs.items()
        parts: dict[tuple[int, ...], list[tuple[int, Expression]]] = {}
        for raw_idx, raw_c in coeffs or ():
            idx = tuple(int(i) for i in raw_idx)
            if len(idx) != degree:
                raise FormError(f"index tuple {idx} has length {len(idx)}, expected {degree}")
            for i in idx:
                if not 1 <= i <= n:
                    raise FormError(f"coordinate index {i} outside 1..{n}")
            sign, key = sort_index_tuple(idx)
            c = _coerce_coeff(raw_c)
            if sign and c != ZERO:
                parts.setdefault(key, []).append((sign, c))
        self.vars = variables
        self.degree = degree
        self._coeffs = _summed(parts)

    @classmethod
    def zero(cls, variables: VariableSet, degree: int) -> "DifferentialForm":
        return cls(variables, degree)

    @classmethod
    def scalar(cls, variables: VariableSet, value) -> "DifferentialForm":
        return cls(variables, 0, {(): _coerce_coeff(value)})

    @classmethod
    def one_form(cls, variables: VariableSet, coefficients) -> "DifferentialForm":
        coefficients = list(coefficients)
        if len(coefficients) != variables.dimension:
            raise FormError("one coefficient per coordinate is required")
        return cls(variables, 1, {(i,): c for i, c in enumerate(coefficients, start=1)})

    @classmethod
    def basis(cls, variables: VariableSet, name: str) -> "DifferentialForm":
        """The basis 1-form d<name>."""
        return cls(variables, 1, {(variables.position(name),): ONE})

    @property
    def coefficients(self) -> dict[tuple[int, ...], Expression]:
        return dict(self._coeffs)

    def items(self):
        return self._coeffs.items()

    def coefficient(self, indices: Sequence[int]) -> Expression:
        """Coefficient for an index tuple; unsorted tuples get the sign."""
        sign, key = sort_index_tuple(tuple(indices))
        if sign == 0:
            return ZERO
        c = self._coeffs.get(key, ZERO)
        return -c if sign < 0 and c != ZERO else c

    def is_structurally_zero(self) -> bool:
        return not self._coeffs

    def map_coefficients(self, fn) -> "DifferentialForm":
        return DifferentialForm(self.vars, self.degree,
                                {k: fn(c) for k, c in self._coeffs.items()})

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign*other, each shared key summed in one pass."""
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if self.vars != other.vars:
            raise FormError("forms live over different variable sets")
        if self.degree != other.degree:
            if self.is_structurally_zero():
                return other if sign > 0 else -other
            if other.is_structurally_zero():
                return self
            raise FormError(f"cannot add forms of degree {self.degree} and {other.degree}")
        parts = {k: [(1, c)] for k, c in self.items()}
        for k, c in other.items():
            parts.setdefault(k, []).append((sign, c))
        return DifferentialForm(self.vars, self.degree, _summed(parts))

    def __neg__(self):
        return self.map_coefficients(lambda c: -c)

    def __mul__(self, scalar):
        if isinstance(scalar, DifferentialForm):
            return NotImplemented
        s = _coerce_coeff(scalar)
        return self.map_coefficients(lambda c: mul(s, c))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if self.vars != other.vars:
            return False
        if self.is_structurally_zero() and other.is_structurally_zero():
            return True  # graded zeros are identified
        return self.degree == other.degree and self._coeffs == other._coeffs

    __hash__ = None

    def __str__(self):
        return form_to_text(self)

    def __repr__(self):
        return f"DifferentialForm({form_to_text(self)})"


def _summed(parts: dict[tuple[int, ...], list[tuple[int, Expression]]]) -> dict[tuple[int, ...], Expression]:
    """Sum each key's (sign, coefficient) parts in one pass; one positive part keeps its object."""
    return {k: c for k, ps in sorted(parts.items())
            if (c := ps[0][1] if ps[0][0] > 0 and len(ps) == 1 else _combine(ps)) != ZERO}


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product; repeated indices annihilate, signs from sorting.  The signed
    products a_I*b_J of each output key are summed in one expansion (``_sum_of_products``)."""
    if a.vars != b.vars:
        raise FormError("forms live over different variable sets")
    n = a.vars.dimension
    total = a.degree + b.degree
    if total > n:
        return DifferentialForm.zero(a.vars, n)
    products: dict[tuple[int, ...], list[tuple[int, tuple[Expression, Expression]]]] = {}
    for (ia, ca), (ib, cb) in itertools.product(a.items(), b.items()):
        sign, key = sort_index_tuple(ia + ib)
        if sign:
            products.setdefault(key, []).append((sign, (ca, cb)))
    return DifferentialForm(a.vars, total, {key: _sum_of_products(ps) for key, ps in products.items()})


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """d: degree p -> p+1; the d of an n-form is the canonical zero form."""
    n = a.vars.dimension
    if a.degree >= n:
        return DifferentialForm.zero(a.vars, n)
    names = a.vars.names
    return DifferentialForm(a.vars, a.degree + 1, (((j,) + idx, differentiate(c, names[j - 1]))
                                                   for idx, c in a.items()
                                                   for j in range(1, n + 1) if j not in idx))


def zero_verdict(*forms: DifferentialForm) -> str:
    """Three-valued zero test over every coefficient of the forms: "nonzero"
    at the first nonzero coefficient, "zero" when every one is zero and
    "unknown" otherwise."""
    verdict = "zero"
    for form in forms:
        for _, c in form.items():
            v = is_zero(c)
            if v == "nonzero":
                return v
            if v == "unknown":
                verdict = v
    return verdict


def commutator(a: DifferentialForm) -> DifferentialForm:
    """The commutator of a 1-form as the 2-form d(a): coefficient((alpha, beta))
    is K_ab = d(a_b)/dx^a - d(a_a)/dx^b, and coefficient((beta, alpha)) is -K_ab."""
    if a.degree != 1:
        raise FormError(f"commutator needs a 1-form, got degree {a.degree}")
    return exterior_derivative(a)


class Parameterization(_Record):
    """Map from an m-dimensional parameter space into the coordinate space."""

    __slots__ = __match_args__ = ("params", "coords")

    def __init__(self, params: VariableSet, coords: Sequence[Expression]):
        coords = tuple(_coerce_coeff(c) for c in coords)
        for c in coords:
            extra = free_variables(c) - set(params.names)
            if extra:
                raise FormError(f"coordinate expression uses undeclared parameters: {sorted(extra)}")
        self.params = params
        self.coords = coords

    def jacobian(self) -> list[list[Expression]]:
        return [[differentiate(c, t) for t in self.params.names] for c in self.coords]


def pullback(a: DifferentialForm, chart: Parameterization) -> DifferentialForm:
    """Restrict a form along a parameterization: substitute coordinates and
    replace each dx^i by the differential of its coordinate expression."""
    n = a.vars.dimension
    if len(chart.coords) != n:
        raise FormError(f"parameterization must supply {n} coordinate expressions")
    m = chart.params.dimension
    if m >= n:
        raise FormError("parameter count must be smaller than the space dimension")
    if a.degree > m:
        return DifferentialForm.zero(chart.params, m)
    subs = {name: chart.coords[i] for i, name in enumerate(a.vars.names)}
    jac = chart.jacobian()
    pairs = []
    for idx, c in a.items():
        c0 = substitute(c, subs)
        for choice in itertools.permutations(range(1, m + 1), a.degree):
            term = c0
            for i, j in zip(idx, choice):
                term = mul(term, jac[i - 1][j - 1])
            pairs.append((choice, term))
    return DifferentialForm(chart.params, a.degree, pairs)


def _basis_text(variables: VariableSet, idx: tuple[int, ...]) -> str:
    return "^".join("d" + variables.name_at(i) for i in idx)


def form_to_text(a: DifferentialForm) -> str:
    """Canonical text: terms sorted by index tuple, signs pulled out front."""
    if a.is_structurally_zero():
        return "0"
    if a.degree == 0:
        return to_text(a.coefficient(()))
    terms = []
    for idx, c in a.items():
        coeff, parts = _term_texts(c)
        terms.append((coeff, parts + [_basis_text(a.vars, idx)]))
    return _signed_sum_text(terms)
