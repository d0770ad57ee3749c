"""Exterior algebra: wedge, exterior derivative, commutator, pullback."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from skewforms import expr as expr_module, forms
from skewforms.dsl import Document, FormDecl, parse, print_document
from skewforms.expr import (
    Add, Const, DomainError, Mul, VariableSet, ZERO, ONE, const, cos, differentiate, evaluate, exp,
    power, sin, to_text, var,
)
from skewforms.forms import (
    DifferentialForm,
    FormError,
    Parameterization,
    commutator,
    exterior_derivative,
    form_to_text,
    pullback,
    sort_index_tuple,
    wedge,
    zero_verdict,
)

from conftest import VARSETS, random_form, random_point, random_polynomial

x, y, z = var("x"), var("y"), var("z")
V2 = VARSETS[2]
V3 = VARSETS[3]


def d(form):
    return exterior_derivative(form)


class TestIndexTuples:
    def test_sorting_signs(self):
        assert sort_index_tuple((1, 2)) == (1, (1, 2))
        assert sort_index_tuple((2, 1)) == (-1, (1, 2))
        assert sort_index_tuple((3, 1, 2)) == (1, (1, 2, 3))
        assert sort_index_tuple((1, 1)) == (0, ())
        assert sort_index_tuple(()) == (1, ())

    def test_unsorted_keys_fold_sign(self):
        a = DifferentialForm(V2, 2, {(2, 1): ONE})
        assert a.coefficient((1, 2)) == -ONE
        assert a.coefficient((2, 1)) == ONE

    def test_repeated_index_annihilates(self):
        a = DifferentialForm(V2, 2, {(1, 1): x})
        assert a.is_structurally_zero()

    def test_bad_indices_rejected(self):
        with pytest.raises(FormError):
            DifferentialForm(V2, 1, {(3,): ONE})
        with pytest.raises(FormError):
            DifferentialForm(V2, 1, {(1, 2): ONE})
        with pytest.raises(FormError):
            DifferentialForm(V2, 5, {})


class TestAccumulator:
    @staticmethod
    def pairwise(pairs):
        """Reference: fold each sign, drop repeated indices and add each term
        to the running coefficient of its key, one pair at a time."""
        acc = {}
        for idx, c in pairs:
            sign, key = sort_index_tuple(idx)
            if sign == 0:
                continue
            if sign < 0:
                c = -c
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
        return {k: c for k, c in sorted(acc.items()) if c != ZERO}

    def test_pairs_match_pairwise_accumulation(self, rng):
        for n in (2, 3, 4):
            vs = VARSETS[n]
            for _ in range(60):
                p = rng.randint(1, n)
                pairs = [(tuple(rng.randint(1, n) for _ in range(p)),
                          random_polynomial(rng, vs.names, 2))
                         for _ in range(rng.randint(0, 8))]
                if p >= 2 and pairs and rng.random() < 0.5:
                    idx, c = rng.choice(pairs)  # a swapped copy cancels the term
                    pairs.append(((idx[1], idx[0]) + idx[2:], c))
                rng.shuffle(pairs)
                assert DifferentialForm(vs, p, pairs).coefficients == self.pairwise(pairs)

    def test_sums_and_differences_match_negating_then_adding(self, rng):
        for n in (2, 3, 4):
            for p in range(n + 1):
                for _ in range(8):
                    a, b = random_form(rng, VARSETS[n], p), random_form(rng, VARSETS[n], p)
                    negated = [(k, -c) for k, c in b.items()]
                    assert (a + b).coefficients == self.pairwise([*a.items(), *b.items()])
                    assert (a - b).coefficients == self.pairwise([*a.items(), *negated])
                    assert (b - a) == -(a - b) and (a - a).is_structurally_zero()

    def test_a_key_with_one_positive_part_keeps_its_object(self):
        c, e = x * y + 1, sin(x) - y
        a = DifferentialForm(V2, 2, [((1, 2), c)])
        b = DifferentialForm(V2, 1, [((2,), c), ((1,), e), ((1,), e)])
        assert a.coefficient((1, 2)) is c and b.coefficient((2,)) is c
        assert b.coefficient((1,)) == 2 * e
        assert DifferentialForm(V2, 2, [((2, 1), c)]).coefficient((1, 2)) == -c
        dx = DifferentialForm.basis(V2, "x")
        assert (b - dx).coefficient((2,)) is c and (dx - b).coefficient((2,)) == -c

    def test_mapping_and_pairs_agree(self):
        coeffs = {(2, 1): x, (1, 2): y, (2, 2): ONE}
        assert DifferentialForm(V2, 2, coeffs) == DifferentialForm(V2, 2, coeffs.items())
        assert DifferentialForm(V2, 2, coeffs).coefficient((1, 2)) == y - x


class TestZeroVerdict:
    UNKNOWN = sin(x) ** 2 + cos(x) ** 2 - 1   # beyond the zero test

    def test_empty_form_is_zero(self):
        assert zero_verdict(DifferentialForm.zero(V2, 1)) == "zero"
        assert zero_verdict(DifferentialForm.zero(V2, 1), DifferentialForm.zero(V2, 2)) == "zero"

    def test_nonzero_in_any_form_wins(self):
        unknown = DifferentialForm.scalar(V2, self.UNKNOWN)
        nonzero = DifferentialForm(V2, 1, {(2,): x})
        zero = DifferentialForm.zero(V2, 1)
        assert zero_verdict(unknown) == "unknown"
        assert zero_verdict(unknown, nonzero) == "nonzero"
        assert zero_verdict(nonzero, unknown) == "nonzero"
        assert zero_verdict(DifferentialForm(V2, 1, {(1,): self.UNKNOWN, (2,): x})) == "nonzero"
        assert zero_verdict(zero, unknown, zero) == "unknown"

    def test_stops_at_first_nonzero(self, monkeypatch):
        calls = []
        real = forms.is_zero
        monkeypatch.setattr(forms, "is_zero", lambda c: calls.append(c) or real(c))
        a = DifferentialForm(V3, 1, {(1,): ONE, (2,): self.UNKNOWN, (3,): y})
        assert zero_verdict(a, a) == "nonzero"
        assert calls == [ONE]


class TestWedge:
    def test_dx_wedge_dx_is_zero(self):
        dx = DifferentialForm.basis(V2, "x")
        assert wedge(dx, dx).is_structurally_zero()

    def test_antisymmetry_of_basis(self):
        dx = DifferentialForm.basis(V2, "x")
        dy = DifferentialForm.basis(V2, "y")
        assert wedge(dx, dy) == -wedge(dy, dx)

    def test_coefficient_product(self):
        dx = DifferentialForm.basis(V2, "x")
        dy = DifferentialForm.basis(V2, "y")
        got = wedge(y * dx, x * dy)
        assert got == DifferentialForm(V2, 2, {(1, 2): x * y})

    def test_degree_overflow_clamps_to_zero_form(self):
        top = DifferentialForm(V2, 2, {(1, 2): ONE})
        dx = DifferentialForm.basis(V2, "x")
        out = wedge(top, dx)
        assert out.is_structurally_zero()

    def test_mismatched_variables_rejected(self):
        with pytest.raises(FormError):
            wedge(DifferentialForm.basis(V2, "x"), DifferentialForm.basis(V3, "x"))

    def test_graded_antisymmetry_random(self, rng):
        for n in (2, 3, 4):
            vs = VARSETS[n]
            for _ in range(30):
                p = rng.randint(0, n - 1)
                q = rng.randint(0, n - 1)
                a = random_form(rng, vs, p)
                b = random_form(rng, vs, q)
                sign = const((-1) ** (p * q))
                assert wedge(a, b) == sign * wedge(b, a)

    @staticmethod
    def reference(a, b):
        """The product as one mul per pair of coefficients, the pairs of each key summed by the form."""
        return DifferentialForm(a.vars, a.degree + b.degree, ((ia + ib, expr_module.mul(ca, cb))
                                                              for ia, ca in a.items()
                                                              for ib, cb in b.items()
                                                              if set(ia).isdisjoint(ib)))

    @staticmethod
    def coefficient(rng, names):
        """1-3 terms with fractional coefficients over the variables, sin and exp; one in four
        times a factor whose base is not a variable or function, or whose exponent is not an
        integer: (1 + x)^-1, x^(1/2) or 2^(1/2)."""
        xs = [var(name) for name in names]
        atoms = xs + [sin(xs[0]), exp(xs[-1])]
        total = ZERO
        for _ in range(rng.randint(1, 3)):
            term = const(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 6])))
            for _ in range(rng.randint(0, 3)):
                term = term * power(rng.choice(atoms), rng.choice([1, 1, 2, -1, -2]))
            total = total + term
        if rng.random() < 0.25:
            total = total * rng.choice([power(1 + xs[0], -1), power(xs[0], Fraction(1, 2)),
                                        power(const(2), Fraction(1, 2))])
        return total

    def test_each_key_is_the_sum_of_its_products(self, monkeypatch):
        expand, depth, calls = expr_module._expand_atoms, [0], []

        def spy(products):
            if not depth[0]:
                calls.append(len(products))   # a call of wedge's own, not of a mul it made
            depth[0] += 1
            try:
                return expand(products)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(expr_module, "_expand_atoms", spy)
        rng = random.Random(2030)
        cancelled = 0
        for n in (2, 3, 4):
            vs = VARSETS[n]
            for _ in range(60):
                p, q = rng.choice([(p, q) for p in (1, 2) for q in (1, 2) if p + q <= n])
                a = DifferentialForm(vs, p, {k: self.coefficient(rng, vs.names)
                                             for k in itertools.combinations(range(1, n + 1), p)
                                             if rng.random() < 0.8})
                if p == q and rng.random() < 0.3:
                    b = a   # an odd form: the two products of each key cancel
                else:
                    b = DifferentialForm(vs, q, {k: self.coefficient(rng, vs.names)
                                                 for k in itertools.combinations(range(1, n + 1), q)
                                                 if rng.random() < 0.8})
                want = self.reference(a, b)
                calls.clear()
                got = wedge(a, b)
                assert got.degree == want.degree == p + q
                assert [k for k, _ in got.items()] == [k for k, _ in want.items()]
                assert all(got.coefficient(k) is c for k, c in want.items())
                pairs = collections.Counter(tuple(sorted(ia + ib)) for ia, _ in a.items() for ib, _ in b.items()
                                            if set(ia).isdisjoint(ib))
                # every key's products go through _expand_atoms together, in one call
                assert sorted(calls) == sorted(pairs.values())
                cancelled += len(pairs) - len(want.coefficients)
        assert cancelled > 20
        # a sum times a power of a sum meets it as mul does: (1 + x)*(1 + x)^-1 is 1
        for ca, cb in ((1 + x, power(1 + x, -1)), (-2 - 2 * x, y * power(1 + x, -1))):
            a, b = DifferentialForm(V2, 1, {(1,): ca}), DifferentialForm(V2, 1, {(2,): cb})
            want = expr_module.mul(ca, cb)
            assert want in (ONE, -2 * y) and wedge(a, b).coefficient((1, 2)) is want
            assert wedge(b, a) == -wedge(a, b)

    def test_each_product_meets_the_bound_as_its_mul(self, product_counts):
        rng, checked = random.Random(2031), 0
        for n in (3, 4):
            vs = VARSETS[n]
            for _ in range(20):
                a, b = (DifferentialForm(vs, p, {k: self.coefficient(rng, vs.names)
                                                 for k in itertools.combinations(range(1, n + 1), p)})
                        for p in (1, n - 2))
                a = a + DifferentialForm(vs, 1, {(1,): 3, (2,): x * y})   # a constant and a monomial
                product_counts.clear()
                wedge(a, b)
                counts = sorted(product_counts)
                product_counts.clear()
                for ia, ca in a.items():
                    for ib, cb in b.items():
                        if set(ia).isdisjoint(ib):
                            expr_module.mul(ca, cb)
                assert counts == sorted(product_counts)
                checked += len(counts)
        assert checked > 200
        sums = [expr_module.add(*[power(v, k) for k in range(1, 401)]) for v in (x, y)]
        with pytest.raises(DomainError) as by_mul:
            expr_module.mul(*sums)
        product_counts.clear()
        with pytest.raises(DomainError) as by_wedge:
            wedge(DifferentialForm(V2, 1, {(1,): sums[0]}), DifferentialForm(V2, 1, {(2,): sums[1]}))
        assert str(by_wedge.value) == str(by_mul.value) == "expansion needs more than 100000 term products"
        assert product_counts == [400, 400 + 400 * 400]


class TestExteriorDerivative:
    def test_gradient(self):
        f = DifferentialForm.scalar(V2, x**2 + y**2)
        assert d(f) == DifferentialForm(V2, 1, {(1,): 2 * x, (2,): 2 * y})

    def test_y_dx(self):
        w = DifferentialForm(V2, 1, {(1,): y})
        assert d(w) == DifferentialForm(V2, 2, {(1, 2): const(-1)})

    def test_dd_zero_specific(self):
        w = DifferentialForm(V2, 1, {(1,): x * y, (2,): exp(x)})
        assert d(d(w)).is_structurally_zero()

    def test_dd_zero_random(self, rng):
        for n in (2, 3, 4):
            vs = VARSETS[n]
            for p in range(n):
                for _ in range(20):
                    a = random_form(rng, vs, p)
                    assert d(d(a)).is_structurally_zero()

    def test_leibniz_random(self, rng):
        for n in (2, 3):
            vs = VARSETS[n]
            for _ in range(25):
                p = rng.randint(0, n - 1)
                q = rng.randint(0, n - 1)
                a = random_form(rng, vs, p)
                b = random_form(rng, vs, q)
                sign = const((-1) ** p)
                lhs = d(wedge(a, b))
                rhs = wedge(d(a), b) + sign * wedge(a, d(b))
                assert lhs == rhs

    def test_top_degree_returns_zero(self):
        top = DifferentialForm(V2, 2, {(1, 2): x})
        assert d(top).is_structurally_zero()

    def test_repeated_indices_are_not_differentiated(self, monkeypatch):
        w = DifferentialForm.one_form(V3, [x * y, y * z, z * x])
        expected = d(w)
        calls = []
        real = forms.differentiate
        monkeypatch.setattr(forms, "differentiate", lambda e, v: calls.append(v) or real(e, v))
        assert d(w) == expected
        assert len(calls) == 6  # not 9: d(w_i)/dx^i would only be dropped


class TestCommutator:
    def test_gradient_commutes(self):
        f = x**3 * y + sin(x)
        w = DifferentialForm.one_form(V2, [differentiate(f, "x"), differentiate(f, "y")])
        K = commutator(w)
        assert zero_verdict(K) == "zero"

    def test_y_dx(self):
        w = DifferentialForm(V2, 1, {(1,): y})
        K = commutator(w)
        assert K.coefficient((1, 2)) == const(-1)

    def test_exact_form_zero(self):
        w = DifferentialForm.one_form(V2, [2 * x * y, x**2])
        assert zero_verdict(commutator(w)) == "zero"

    def test_commutator_matches_derivative(self, rng):
        """Commutator zero iff exterior derivative zero; components equal the
        2-form coefficients and K_ab = d(w_b)/dx^a - d(w_a)/dx^b."""
        for _ in range(25):
            w = random_form(rng, V3, 1)
            K = commutator(w)
            dw = d(w)
            for a, b in ((1, 2), (1, 3), (2, 3)):
                assert K.coefficient((a, b)) == dw.coefficient((a, b))
                k_ab = (differentiate(w.coefficient((b,)), V3.names[a - 1])
                        - differentiate(w.coefficient((a,)), V3.names[b - 1]))
                assert K.coefficient((a, b)) == k_ab
                assert K.coefficient((b, a)) == -k_ab
            assert (zero_verdict(K) == "zero") == (zero_verdict(dw) == "zero")

    def test_wrong_degree(self):
        with pytest.raises(FormError):
            commutator(DifferentialForm.scalar(V2, x))

    def test_antisymmetric_lookup(self):
        w = DifferentialForm(V2, 1, {(1,): y})
        K = commutator(w)
        assert K.coefficient((2, 1)) == ONE
        assert K.coefficient((1, 1)) == ZERO


class TestPullback:
    def test_curve_substitution(self):
        t = var("t")
        chart = Parameterization(VariableSet(["t"]), [t, const(2)])
        w = DifferentialForm(V2, 1, {(1,): y})  # y dx
        assert pullback(w, chart) == DifferentialForm(VariableSet(["t"]), 1, {(1,): const(2)})

    def test_degree_above_parameters_collapses(self):
        t = var("t")
        chart = Parameterization(VariableSet(["t"]), [t, t**2])
        top = DifferentialForm(V2, 2, {(1, 2): x})
        assert pullback(top, chart).is_structurally_zero()

    def test_naturality_with_d(self, rng):
        """d commutes with pullback on random 0- and 1-forms and curves."""
        t = var("t")
        pvars = VariableSet(["t"])
        for _ in range(20):
            chart = Parameterization(
                pvars, [random_polynomial(rng, ("t",)), random_polynomial(rng, ("t",))])
            f = DifferentialForm.scalar(V2, random_polynomial(rng, ("x", "y")))
            assert d(pullback(f, chart)) == pullback(d(f), chart)
        surface = VariableSet(["u", "v"])
        u, v = var("u"), var("v")
        for _ in range(10):
            chart = Parameterization(
                surface,
                [random_polynomial(rng, ("u", "v")),
                 random_polynomial(rng, ("u", "v")),
                 random_polynomial(rng, ("u", "v"))])
            w = random_form(rng, V3, 1)
            assert d(pullback(w, chart)) == pullback(d(w), chart)

    def test_parameter_count_must_be_smaller(self):
        chart = Parameterization(V2, [x, y])
        w = DifferentialForm(V2, 1, {(1,): y})
        with pytest.raises(FormError):
            pullback(w, chart)

    def test_wrong_coordinate_count(self):
        t = var("t")
        chart = Parameterization(VariableSet(["t"]), [t])
        w = DifferentialForm(V2, 1, {(1,): y})
        with pytest.raises(FormError):
            pullback(w, chart)


class TestFormAlgebra:
    def test_zero_forms_compare_equal(self):
        assert DifferentialForm.zero(V2, 1) == DifferentialForm.zero(V2, 2)
        assert DifferentialForm(V2, 1, {(1,): x - x}) == DifferentialForm.zero(V2, 1)

    def test_addition_and_scaling(self):
        dx = DifferentialForm.basis(V2, "x")
        dy = DifferentialForm.basis(V2, "y")
        assert (dx + dy) - dx == dy
        assert 2 * dx == DifferentialForm(V2, 1, {(1,): const(2)})

    def test_degree_mismatch_rejected(self):
        dx = DifferentialForm.basis(V2, "x")
        f = DifferentialForm.scalar(V2, x)
        with pytest.raises(FormError):
            dx + f

    def test_text_rendering(self):
        dx = DifferentialForm.basis(V2, "x")
        dy = DifferentialForm.basis(V2, "y")
        assert form_to_text(y * dx + x * dy) == "y*dx + x*dy"
        assert form_to_text(DifferentialForm.zero(V2, 2)) == "0"
        assert form_to_text(-dx) == "-dx"
        assert form_to_text((x + y) * dx) == "(x + y)*dx"

    def test_finite_difference_oracle(self, rng):
        """Coefficients of d match a central-difference cofactor assembly."""
        import itertools
        h = 1e-5
        for n in (2, 3):
            vs = VARSETS[n]
            for p in range(n):
                for _ in range(4):
                    a = random_form(rng, vs, p)
                    da = d(a)
                    for _ in range(5):
                        point = random_point(rng, vs.names)
                        for key in itertools.combinations(range(1, n + 1), p + 1):
                            fd = 0.0
                            for slot, j in enumerate(key):
                                rest = key[:slot] + key[slot + 1:]
                                coeff = a.coefficient(rest)
                                up = dict(point)
                                dn = dict(point)
                                name = vs.name_at(j)
                                up[name] += h
                                dn[name] -= h
                                partial = (evaluate(coeff, up) - evaluate(coeff, dn)) / (2 * h)
                                fd += (-1) ** slot * partial
                            sym = evaluate(da.coefficient(key), point)
                            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


def _reference_form_text(a):
    """The renderer form_to_text replaced: one branch per coefficient shape."""
    if a.is_structurally_zero():
        return "0"
    if a.degree == 0:
        return to_text(a.coefficient(()))
    chunks = []
    for idx, c in a.items():
        basis = "^".join("d" + a.vars.name_at(i) for i in idx)
        negative = False
        if isinstance(c, Const):
            negative = c.value < 0
            mag = abs(c.value)
            body = basis if mag == 1 else f"{to_text(const(mag))}*{basis}"
        elif isinstance(c, Mul) and isinstance(c.factors[0], Const) and c.factors[0].value < 0:
            negative = True
            body = f"{to_text(-c)}*{basis}"
        elif isinstance(c, Add):
            body = f"({to_text(c)})*{basis}"
        else:
            body = f"{to_text(c)}*{basis}"
        if not chunks:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


def _random_text_coefficient(rng, names):
    """±1, ±p/q, a signed product, a sum, a power or a function."""
    u, v = (var(rng.choice(names)) for _ in range(2))
    c = const(Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.choice([1, 1, 3, 7])))
    return rng.choice([
        lambda: const(rng.choice([-1, 1])),
        lambda: c,
        lambda: c * u * v,
        lambda: c * sin(u) * v ** 2,
        lambda: u + c * v,
        lambda: c - u * v,
        lambda: (u + 1) ** -1,
        lambda: c * (u - v) ** Fraction(1, 2),
        lambda: u ** 3,
        lambda: exp(c * u),
        lambda: -cos(u + v),
        lambda: const(2) ** Fraction(1, 2) * u,
    ])()


class TestTextMatchesReferenceRenderer:
    def test_random_forms_render_as_before_and_parse_back(self):
        rng = random.Random(777)
        for _ in range(200):
            vs = VARSETS[rng.choice((2, 3))]
            degree = rng.randint(0, vs.dimension)
            keys = list(itertools.combinations(range(1, vs.dimension + 1), degree))
            a = DifferentialForm(vs, degree, {key: _random_text_coefficient(rng, vs.names)
                                              for key in keys if rng.random() < 0.8})
            assert form_to_text(a) == _reference_form_text(a)
            doc = Document(vs, None, [FormDecl("a", a)])
            assert parse(print_document(doc)).find("a").form == a
