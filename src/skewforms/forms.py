"""Exterior algebra: degree-p skew-symmetric forms over a coordinate set.

A form is a sparse map from strictly increasing 1-based index tuples to
coefficient expressions.  One accumulator sums the (sign, coefficient) parts of
each key in one pass: the constructor's (index tuple, coefficient) pairs, signed
by their permutations (repeated indices drop), a sum's signed forms, and for d
the signed partial maps of each key, with eta's coefficient by -1 in d(a) - eta.
Structurally zero coefficients are dropped, so dd = 0 is a structural test.

The public constructor checks what a caller gives.  ``_trusted`` checks nothing: it
takes a dict canonical by construction (strictly increasing int key tuples of the
degree, in order, Expression coefficients, no ZERO) from ``basis``, ``scalar``,
``map_coefficients`` (after coercing), sums, d, ``wedge`` and the Hodge star.

Degrees above the space dimension collapse to a canonical zero form of the
clamped degree rather than erroring, matching the algebra (Lambda^k = 0 for
k > n).
"""

from __future__ import annotations

import itertools
import operator
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
    _assemble,
    _combine,
    _partial,
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
            try:
                idx = tuple(map(operator.index, raw_idx))
            except TypeError:
                raise FormError(f"coordinate indices must be integers, got {raw_idx!r}") from None
            if len(idx) != degree:
                raise FormError(f"index tuple {idx} has length {len(idx)}, expected {degree}")
            for i in idx:
                if not 1 <= i <= n:
                    raise FormError(f"coordinate index {i} outside 1..{n}")
            sign, key = sort_index_tuple(idx)
            c = _coerce_coeff(raw_c)
            if sign and c != ZERO:
                parts.setdefault(key, []).append((sign, c))
        self.vars, self.degree, self._coeffs = variables, degree, _summed(parts)

    @classmethod
    def zero(cls, variables: VariableSet, degree: int) -> "DifferentialForm":
        return cls(variables, degree)

    @classmethod
    def scalar(cls, variables: VariableSet, value) -> "DifferentialForm":
        return _trusted(variables, 0, {} if (c := _coerce_coeff(value)) is ZERO else {(): c})

    @classmethod
    def one_form(cls, variables: VariableSet, coefficients) -> "DifferentialForm":
        coefficients = list(coefficients)
        if len(coefficients) != variables.dimension:
            raise FormError("one coefficient per coordinate is required")
        return cls(variables, 1, {(i,): c for i, c in enumerate(coefficients, start=1)})

    @classmethod
    def basis(cls, variables: VariableSet, name: str) -> "DifferentialForm":
        """The basis 1-form d<name>."""
        return _trusted(variables, 1, {(variables.position(name),): ONE})

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
        return _trusted(self.vars, self.degree, {k: c for k, old in self._coeffs.items()
                                                 if (c := _coerce_coeff(fn(old))) is not ZERO})

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
        return _sum_of_forms(((1, self), (sign, other)), {})

    def __neg__(self):
        return self.map_coefficients(lambda c: -c)

    def __mul__(self, scalar):
        if isinstance(scalar, DifferentialForm):
            return NotImplemented
        s = _coerce_coeff(scalar)
        return self.map_coefficients(lambda c: s if c is ONE else mul(s, c))

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


def _trusted(variables: VariableSet, degree: int, coeffs: dict[tuple[int, ...], Expression]) -> DifferentialForm:
    """A form over a dict that is canonical by construction (see the module docstring), unchecked."""
    form = object.__new__(DifferentialForm)
    form.vars, form.degree, form._coeffs = variables, degree, coeffs
    return form


def _summed(parts: dict[tuple[int, ...], list[tuple[int, Expression | dict]]]) -> dict[tuple[int, ...], Expression]:
    """Sum each key's (sign, tree or monomial map) parts in one pass; one positive tree keeps its object."""
    return {k: c for k, ps in sorted(parts.items())
            if (c := _combine(ps) if len(ps) > 1 or ps[0][0] < 0 or type(ps[0][1]) is dict else ps[0][1]) != ZERO}


def _sum_of_forms(signed: Iterable[tuple[int, DifferentialForm]], parts: dict) -> DifferentialForm:
    """The sum of sign*form over (sign, form) pairs of one degree and variable set, plus the key parts given."""
    for sign, form in signed:
        for k, c in form.items():
            parts.setdefault(k, []).append((sign, c))
    return _trusted(form.vars, form.degree, _summed(parts))


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
    return _trusted(a.vars, total, {key: c for key, ps in sorted(products.items())
                                    if (c := _assemble(_sum_of_products(ps))) is not ZERO})


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """d: degree p -> p+1; the d of an n-form is the canonical zero form."""
    return _derivative_minus(a, _trusted(a.vars, min(a.degree + 1, a.vars.dimension), {}))


def _derivative_minus(a: DifferentialForm, eta: DifferentialForm) -> DifferentialForm:
    """d(a) - eta for an eta of d(a)'s degree (any zero form where a has top degree): each key's signed
    partial maps (``expr._partial``) and eta's coefficient summed in one pass, no tree for a key that cancels."""
    n, names = a.vars.dimension, a.vars.names
    if eta.vars != a.vars:
        raise FormError("forms live over different variable sets")
    parts: dict[tuple[int, ...], list] = {}
    for idx, c in a.items() if a.degree < n else ():
        for j in itertools.filterfalse(idx.__contains__, range(1, n + 1)):
            sign, key = sort_index_tuple((j, *idx))
            parts.setdefault(key, []).append((sign, _partial(c, names[j - 1])))
    return _sum_of_forms(((-1, eta),), parts)


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
