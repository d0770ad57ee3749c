"""Classification engines: closure, relations, integrability, loci, Stokes."""

import gc
import itertools
import math
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from skewforms import analysis, expr as expr_module
from skewforms.dsl import parse
from skewforms.expr import (
    Add, Const, DomainError, Mul, Pow, UnknownVariableError, Var, VariableSet, ZERO, ONE,
    compile_expression, const, cos, differentiate, evaluate, exp, free_variables, ln, mul, sin,
    substitute, var, _emit, _exponents, _terms,
)
from skewforms.forms import DifferentialForm, commutator, exterior_derivative, zero_verdict
from skewforms.duality import Metric
from skewforms.analysis import (
    AnalysisError,
    characteristic_curve,
    classification_table,
    classify_closure,
    classify_relation,
    find_pseudostructure,
    frobenius_test,
    potential_at,
    reconstruct_potential,
    stokes_check,
)

from conftest import VARSETS, random_form, random_polynomial, tree_walk

x, y, z = var("x"), var("y"), var("z")
V2 = VARSETS[2]
V3 = VARSETS[3]
BOX2 = [(-1.0, 1.0), (-1.0, 1.0)]


class TestClassifyClosure:
    def test_gradient_field(self):
        a = DifferentialForm.one_form(V2, [2 * x, 2 * y])
        v = classify_closure(a)
        assert v.closed == "closed"
        assert v.exact == "exact"
        assert v.potential == x**2 + y**2

    def test_unclosed(self):
        a = DifferentialForm.one_form(V2, [y, ZERO])
        v = classify_closure(a)
        assert v.closed == "unclosed"
        assert v.exact == "inexact"
        assert v.potential is None

    def test_cauchy_riemann_closed(self):
        u = 3 * x**2 * y - y**3
        a = DifferentialForm.one_form(V2, [differentiate(u, "x"), differentiate(u, "y")])
        assert classify_closure(a).closed == "closed"

    def test_closed_transcendental_unknown_exact(self):
        a = DifferentialForm.one_form(V2, [exp(x) * sin(y), exp(x) * (-sin(y)) * const(-1)])
        # a = d(exp(x) sin(y)) has cos coefficient; build it honestly
        f = exp(x) * sin(y)
        a = DifferentialForm.one_form(V2, [differentiate(f, "x"), differentiate(f, "y")])
        v = classify_closure(a)
        assert v.closed == "closed"
        assert v.exact == "unknown"
        assert "polynomial" in v.notes

    def test_unverified_potential_is_never_a_definite_no(self):
        # d(a) = (2*2^(1/2) - 8^(1/2)) dx^dy is 0, but the zero test sees only
        # roundoff, and the residual of the homotopy potential is the same
        root2, root8 = const(2) ** Fraction(1, 2), const(8) ** Fraction(1, 2)
        v = classify_closure(DifferentialForm.one_form(V2, [root8 * y, 2 * root2 * x]))
        assert "homotopy potential did not verify" in v.notes
        assert v.closed in ("closed", "unknown") and v.exact in ("exact", "unknown")
        assert v.residual is not None and v.potential is None

    def test_zero_form_classification(self):
        assert classify_closure(DifferentialForm.scalar(V2, ZERO)).exact == "exact"
        v = classify_closure(DifferentialForm.scalar(V2, const(3)))
        assert v.closed == "closed"
        assert v.exact == "inexact"

    def test_two_form_closed(self):
        a = DifferentialForm(V3, 2, {(1, 2): z})
        v = classify_closure(a)
        assert v.closed == "unclosed"
        b = DifferentialForm(V3, 2, {(1, 2): x})
        v = classify_closure(b)
        assert v.closed == "closed"
        assert v.exact == "unknown"

    def test_dd_always_closed(self, rng):
        for n in (2, 3):
            vs = VARSETS[n]
            for p in range(n - 1):
                for _ in range(10):
                    a = random_form(rng, vs, p)
                    assert classify_closure(exterior_derivative(a)).closed == "closed"

    def test_potentials_verify(self, rng):
        """Reconstructed potential always satisfies d(phi) = a exactly."""
        for _ in range(25):
            f = random_polynomial(rng, ("x", "y"))
            a = DifferentialForm.one_form(V2, [differentiate(f, "x"), differentiate(f, "y")])
            v = classify_closure(a)
            assert v.exact == "exact"
            rebuilt = exterior_derivative(DifferentialForm.scalar(V2, v.potential))
            assert rebuilt == a

    def test_numeric_potential(self):
        f = exp(x) * sin(y)
        a = DifferentialForm.one_form(V2, [differentiate(f, "x"), differentiate(f, "y")])
        value = potential_at(a, {"x": 1.0, "y": 1.0})
        assert value == pytest.approx(math.e * math.sin(1.0), abs=1e-10)


class TestClassifyRelation:
    def test_identical(self):
        phi = DifferentialForm.scalar(V2, x * y)
        eta = DifferentialForm.one_form(V2, [y, x])
        rel = classify_relation(phi, eta)
        assert rel.verdict == "identical"
        assert rel.residual.is_structurally_zero()

    def test_nonidentical_commutator(self):
        phi = DifferentialForm.scalar(V2, x * y)
        eta = DifferentialForm.one_form(V2, [y, ZERO])
        rel = classify_relation(phi, eta)
        assert rel.verdict == "nonidentical"
        assert rel.eta_commutator.coefficient((1, 2)) == const(-1)

    def test_nonidentical_residual_only(self):
        """Closed eta that is not d(phi): zero commutator, nonzero residual."""
        phi = DifferentialForm.scalar(V2, x)
        eta = DifferentialForm.one_form(V2, [y, x])  # closed, but != dx
        rel = classify_relation(phi, eta)
        assert rel.verdict == "nonidentical"
        assert zero_verdict(rel.eta_commutator) == "zero"
        assert not rel.residual.is_structurally_zero()

    def test_degree_mismatch(self):
        with pytest.raises(AnalysisError):
            classify_relation(DifferentialForm.scalar(V2, x),
                              DifferentialForm(V2, 2, {(1, 2): ONE}))

    def test_random_identities(self, rng):
        for _ in range(20):
            f = random_polynomial(rng, ("x", "y"))
            phi = DifferentialForm.scalar(V2, f)
            assert classify_relation(phi, exterior_derivative(phi)).verdict == "identical"
            spoiled = exterior_derivative(phi) + DifferentialForm(V2, 1, {(1,): y})
            assert classify_relation(phi, spoiled).verdict == "nonidentical"


class TestFrobenius:
    def test_contact_form(self):
        a = DifferentialForm.one_form(V3, [-y, ZERO, ONE])  # dz - y dx
        assert frobenius_test(a) == "nonintegrable"

    def test_radial_closed(self):
        a = DifferentialForm.one_form(V3, [x, y, z])
        assert frobenius_test(a) == "integrable"

    def test_z_dz(self):
        a = DifferentialForm.one_form(V3, [ZERO, ZERO, z])
        assert frobenius_test(a) == "integrable"

    def test_integrable_but_unclosed(self):
        # z dz + z dx has dw = dz^dx, w^dw = 0? w = z dx + z dz:
        # dw = dz^dx; w^dw = z dz^dz^dx + z dx^dz^dx = 0
        a = DifferentialForm.one_form(V3, [z, ZERO, z])
        assert frobenius_test(a) == "integrable"
        assert zero_verdict(exterior_derivative(a)) == "nonzero"

    def test_preconditions(self):
        with pytest.raises(AnalysisError):
            frobenius_test(DifferentialForm.one_form(V2, [x, y]))
        with pytest.raises(AnalysisError):
            frobenius_test(DifferentialForm.scalar(V3, x))

    def test_closed_forms_always_integrable(self, rng):
        for n in (3, 4):
            vs = VARSETS[n]
            for _ in range(10):
                f = random_polynomial(rng, vs.names)
                a = exterior_derivative(DifferentialForm.scalar(vs, f))
                assert frobenius_test(a) == "integrable"


class TestCharacteristicCurve:
    def test_line(self):
        pts = characteristic_curve(x + y, V2, (1.0, 0.0), steps=100, h=1e-2)
        for px, py in pts:
            assert abs(px + py - 1.0) < 1e-9

    def test_circle(self):
        pts = characteristic_curve(x**2 + y**2, V2, (1.0, 0.0), steps=1000, h=1e-3)
        drift = max(abs(px**2 + py**2 - 1.0) for px, py in pts)
        assert drift < 1e-9

    def test_hyperbola(self):
        pts = characteristic_curve(x * y, V2, (2.0, 0.5), steps=1000, h=1e-3)
        drift = max(abs(px * py - 1.0) for px, py in pts)
        assert drift < 1e-9

    def test_critical_point_truncates(self):
        pts = characteristic_curve(x**2 + y**2, V2, (0.0, 0.0), steps=100, h=1e-3)
        assert len(pts) == 1  # gradient vanishes at the start

    def test_dimension_check(self):
        with pytest.raises(AnalysisError):
            characteristic_curve(x, V3, (0.0, 0.0, 0.0))

    def test_step_size_must_be_positive_and_finite(self):
        for h in (math.nan, math.inf, 0.0, -1e-3):
            with pytest.raises(AnalysisError, match="step size"):
                characteristic_curve(x + y, V2, (1.0, 0.0), steps=10, h=h)

    def test_step_count_is_bounded(self):
        # the start is a critical point, so an unchecked call returns at once
        for steps in (0, -1, analysis.MAX_CURVE_STEPS + 1):
            with pytest.raises(AnalysisError, match="step count"):
                characteristic_curve(x**2 + y**2, V2, (0.0, 0.0), steps=steps)

    def test_start_needs_two_finite_coordinates(self):
        for start in ((1.0,), (1.0, 0.0, 3.0), (math.nan, 0.0), (0.0, math.inf)):
            with pytest.raises(AnalysisError, match="start point"):
                characteristic_curve(x + y, V2, start, steps=10)

    def test_phi_must_be_finite_at_the_start(self):
        with pytest.raises(AnalysisError, match="not finite at the start point"):
            characteristic_curve(ln(x), V2, (-1.0, 0.0))
        assert characteristic_curve(ln(x), V2, (1.0, 0.0), steps=5, h=1e-2)[0] == (1.0, 0.0)


def _compiled(e, names):
    return compile_expression(e, names).scalar


def _walked(e, names):
    """e as a function of the coordinates by the fsum tree walk, with scalar
    mode's DomainError, for trees whose values do not overflow."""
    def f(*values):
        try:
            value = tree_walk(e, dict(zip(names, values)))
        except (ArithmeticError, ValueError, TypeError):
            raise DomainError("the tree walk raised") from None
        if not (isinstance(value, float) and math.isfinite(value)):
            raise DomainError("value is not finite")
        return value
    return f


def _reference_curve(phi, variables, start, steps, h, evaluator=_compiled):
    """characteristic_curve as one call per evaluation of phi_x, phi_y or
    phi, each made by ``evaluator(tree, names)``: the reference for the
    generated RK4 loop.  Returns the points, phi at each, and where the loop
    stopped: "steps", "critical", "stage 1" to "stage 4" (the field left the
    domain), "level" (phi did) or "point" (phi is finite at the new point,
    but a coordinate is not)."""
    xn, yn = variables.names
    level = evaluator(phi, variables.names)
    try:
        levels = [level(*map(float, start))]
    except DomainError:
        raise AnalysisError("phi is not finite at the start point") from None
    phi_x = evaluator(differentiate(phi, xn), variables.names)
    phi_y = evaluator(differentiate(phi, yn), variables.names)

    def field(x, y):
        return -phi_y(x, y), phi_x(x, y)

    points = [(float(start[0]), float(start[1]))]
    x, y = points[0]
    for _ in range(steps):
        stop = "stage 1"
        try:
            k1 = field(x, y)
            if math.hypot(*k1) < analysis.CRITICAL_GRADIENT_TOL:
                return points, levels, "critical"
            stop = "stage 2"
            k2 = field(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
            stop = "stage 3"
            k3 = field(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1])
            stop = "stage 4"
            k4 = field(x + h * k3[0], y + h * k3[1])
            nx = x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            ny = y + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            stop = "level"
            lv = level(nx, ny)
        except DomainError:
            return points, levels, stop
        if not (math.isfinite(nx) and math.isfinite(ny)):
            return points, levels, "point"
        x, y = nx, ny
        points.append((x, y))
        levels.append(lv)
    return points, levels, "steps"


def _hex_points(points):
    return [(float.hex(px), float.hex(py)) for px, py in points]


class TestCurveMatchesReference:
    """The generated loop gives the reference's points, and phi at each, bit for bit."""

    def _check(self, phi, start, steps, h, evaluator=_compiled):
        want, want_levels, stop = _reference_curve(phi, V2, start, steps, h, evaluator)
        got, levels = analysis._curve_and_levels(phi, V2, start, steps, h)
        assert _hex_points(got) == _hex_points(want), (phi, start, steps, h)
        assert list(map(float.hex, levels)) == list(map(float.hex, want_levels)), (phi, start, steps, h)
        assert characteristic_curve(phi, V2, start, steps, h) == got
        return stop

    def test_seeded_phis(self):
        rng = random.Random(5150)

        def r():
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4]))

        # (phi, x range of the start): polynomial, sin/exp, a constant gradient,
        # and phis whose field or level leaves the domain
        families = [
            (lambda: random_polynomial(rng, V2.names), (-1.5, 1.5)),
            (lambda: r() * sin(x * y) + x**2 + r() * exp(r() * y) * x, (-1.5, 1.5)),
            (lambda: r() * x + r() * y, (-1.5, 1.5)),
            (lambda: y + r() * x ** Fraction(5, 2), (0.0, 0.3)),
            (lambda: ln(x) + r() * y, (0.01, 0.3)),
            (lambda: (x - 1) ** -1 + r() * y, (0.5, 1.5)),
            (lambda: r() * exp(x**2 + y**2), (-1.5, 1.5)),
        ]
        stops = set()
        for make, (lo, hi) in families:
            for _ in range(12):
                start = (rng.uniform(lo, hi), rng.uniform(-1.5, 1.5))
                stops.add(self._check(make(), start, rng.choice([1, 5, 60, 400]),
                                      rng.choice([1e-3, 1e-2, 0.1, 0.7])))
        assert stops >= {"steps", "stage 2", "stage 3", "stage 4", "level"}

    def test_seeded_phis_against_the_tree_walk(self):
        # a reference that shares no code with the emitter: the field and the
        # level by the fsum tree walk
        rng = random.Random(8128)
        families = [
            lambda: random_polynomial(rng, V2.names),
            lambda: random_polynomial(rng, V2.names) + sin(x * y) - 2 * cos(x - y),
            lambda: exp(y / 3) * x + x * y**2 / 5,
        ]
        stops = set()
        for make in families:
            for _ in range(8):
                start = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                stops.add(self._check(make(), start, rng.choice([1, 5, 60, 200]),
                                      rng.choice([1e-3, 1e-2, 0.1]), _walked))
        assert "steps" in stops

    def test_stops_at_the_first_step(self):
        # the field leaves the domain at the start: d/dx x^(1/2) = 1/2*x^(-1/2)
        assert self._check(x ** Fraction(1, 2) + y, (0.0, 0.5), 10, 1e-2) == "stage 1"
        assert self._check(x**2 + y**2, (0.0, 0.0), 10, 1e-2) == "critical"
        assert self._check(x**2 + y**2, (1.0, 0.0), 1, 1e-2) == "steps"
        assert self._check(x * y, (0.0, 0.0), 1, 1e-2) == "critical"
        # stage 1 raises after the start point and phi there are appended
        assert analysis._curve_and_levels(x ** Fraction(1, 2) + y, V2, (0.0, 0.5), 10, 1e-2) == (
            [(0.0, 0.5)], [0.5])

    def test_critical_gradient_threshold(self):
        # constant fields (-phi_y, phi_x) at the 1e-12 bound; the loop tests each
        # component against it before hypot, the reference calls hypot alone
        cases = [((7e-13, 7e-13), "critical"),   # hypot 9.9e-13
                 ((7.1e-13, 7.1e-13), "steps"),  # each within the bound, hypot 1.004e-12
                 ((1e-12, 0.0), "steps"),        # hypot exactly at the bound
                 ((-1e-12, 5e-13), "steps")]
        for (fx, fy), stop in cases:
            phi = const(Fraction(fy)) * x - const(Fraction(fx)) * y
            assert self._check(phi, (0.25, -0.5), 5, 0.1) == stop, (fx, fy)

    def test_overflow_of_a_product_stops_the_curve(self):
        # a product overflows to inf without raising: in phi_y = 3*c*y^2 at the
        # start, and in phi = c*x*y at the first new point, where the field
        # (-c*x, c*y) is finite
        assert self._check(const(72 * 10**305) * y**3, (0.0, 2.9), 10, 1e-3) == "stage 1"
        assert self._check(const(17 * 10**305) * x * y, (100.0, 1.0), 10, 1 / 1.7e306) == "level"

    def test_a_later_stage_that_overflows_stops_the_curve(self):
        # phi = c*x*y - c*x*y^2: the field (2*c*x*y - c*x, c*y - c*y^2) is
        # finite at stage 1, and at stage 2, 3 or 4 of that step a product
        # overflows to inf without raising, or both terms of a sum do and
        # give inf - inf = NaN; no stage value is checked on its own
        phi = const(5 * 10**306) * x * y * (1 - y)
        # (start, h, where the reference stops, points before it)
        cases = [((1.0, 0.5), 4e-307, "stage 2", 3),   # inf
                 ((1.0, 0.7), 3e-307, "stage 3", 3),
                 ((1.0, 0.6), 3e-307, "stage 4", 3),
                 ((0.5, 0.5), 1e-306, "stage 3", 2),   # NaN
                 ((0.5, 0.3), 1e-306, "stage 4", 2)]
        for start, h, stop, count in cases:
            assert self._check(phi, start, 10, h) == stop
            assert len(characteristic_curve(phi, V2, start, 10, h)) == count
        phi = const(5 * 10**307) * x * y * (1 - y)        # NaN at the first step
        assert self._check(phi, (1.0, 0.5), 10, 5.6e-307) == "stage 2"

    def test_an_infinite_point_stops_the_curve(self):
        # each stage value -phi_y = -3*c*y^2 is finite, but their RK4 sum is
        # not; phi does not depend on x, so it stays finite at (-inf, 2.9)
        phi = const(7 * 10**306) * y**3
        assert self._check(phi, (0.0, 2.9), 10, 1e-3) == "point"
        assert characteristic_curve(phi, V2, (0.0, 2.9), 10, 1e-3) == [(0.0, 2.9)]

    def test_constant_gradient_emits_no_statements(self):
        lines, values = _emit([differentiate(2 * x - y / 3, n) for n in V2.names],
                              {"x": "_a0", "y": "_a1"})
        assert lines == [] and values == ["2.0", "-0.3333333333333333"]
        assert self._check(2 * x - y / 3, (0.25, -1.0), 50, 0.1) == "steps"

    def test_equal_subtrees_are_computed_once(self):
        # phi_y and phi_x of sin(x*y) are built apart but share cos(x*y)
        phi = sin(x * y)
        lines, _ = _emit([differentiate(phi, "y"), differentiate(phi, "x")],
                         {"x": "_a0", "y": "_a1"})
        assert sum("_cos(" in line for line in lines) == 1
        assert self._check(phi, (0.5, 0.5), 200, 1e-2) == "steps"

    def test_stage_one_reuses_the_level_lines(self, monkeypatch):
        # x*y is computed for the level, reused by stage 1 and computed again
        # by stages 2-4; cos(x*y) once by stage 1 and by each later stage
        sources = []
        monkeypatch.setattr(analysis, "_function_code", lambda source: sources.append(source)
                            or expr_module._function_code(source))
        assert self._check(sin(x * y) + x / 7, (0.5, 0.5), 30, 1e-2) == "steps"
        (source,) = set(sources)
        assert source.count("_a0 * _a1") == 4 and source.count("_cos(") == 4

    def test_unknown_variable_and_bad_start_raise_as_before(self):
        with pytest.raises(UnknownVariableError):
            characteristic_curve(x + var("z"), V2, (1.0, 0.0), steps=10)
        with pytest.raises(UnknownVariableError):
            _reference_curve(x + var("z"), V2, (1.0, 0.0), 10, 1e-3)
        for phi, start in ((ln(x), (-1.0, 0.0)), ((x - 1) ** -1, (1.0, 0.0))):
            with pytest.raises(AnalysisError, match="not finite at the start point"):
                characteristic_curve(phi, V2, start, steps=10)
            with pytest.raises(AnalysisError, match="not finite at the start point"):
                _reference_curve(phi, V2, start, 10, 1e-3)


class TestCompileOnce:
    """Each generated source is compiled once per process, and the cache
    holds no nodes: a document parsed again, after the first one's nodes
    died, runs on the code objects compiled for the first."""

    TEXT = ("vars x, y\n"
            "scalar phi = x^2 + y^2 + 3/7*sin(x*y)\n"
            "form w = -1/3*y^3*dx + (1/3*x^3 - 1/4*x)*dy\n"
            "form g = exp(x)*sin(5/7*y)*dx + x*cos(y)*dy\n")

    def _run(self):
        doc = parse(self.TEXT)
        curve = characteristic_curve(doc.find("phi").expr, doc.vars, (1.0, 0.0), 50, 1e-2)
        # 21 x 21 nodes: scalar mode
        report = find_pseudostructure(doc.find("w").form, Metric.euclidean(doc.vars), BOX2, 21)
        # exp and sin are not polynomial: the Gauss-Legendre fallback
        stokes = stokes_check(doc.find("g").form, (0.0, 1.0, 0.0, 1.0))
        return weakref.ref(doc.find("phi").expr), (curve, report.locus.points, report.intensity, stokes)

    def test_a_second_parse_compiles_nothing(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return compile(*args)

        monkeypatch.setattr(expr_module, "compile", counted, raising=False)
        expr_module._function_code.cache_clear()
        first, results = self._run()
        gc.collect()
        assert first() is None and len(calls) >= 5
        calls.clear()
        again, results_again = self._run()
        assert calls == [] and results_again == results


class TestPseudostructure:
    def test_hyperplane_locus(self):
        xi = VariableSet(["xi1", "xi2"])
        xi1, xi2 = var("xi1"), var("xi2")
        a = DifferentialForm.one_form(xi, [xi2**2, xi1 * xi2])
        rep = find_pseudostructure(a, Metric.euclidean(xi), BOX2, 101)
        assert rep.locus.kind == "hyperplane"
        assert rep.locus.hyperplane == ("xi2", 0.0)
        K = commutator(a)
        for p in rep.locus.points:
            point = dict(zip(xi.names, p))
            assert all(abs(evaluate(c, point)) < 1e-6 for _, c in K.items())
        assert rep.intensity == pytest.approx(0.02, abs=1e-12)
        assert rep.restricted_form.is_structurally_zero()
        assert classify_closure(rep.restricted_form).closed == "closed"

    def test_closed_everywhere(self):
        a = DifferentialForm.one_form(V2, [2 * x, 2 * y])
        rep = find_pseudostructure(a, Metric.euclidean(V2), BOX2, 21)
        assert rep.locus.kind == "whole_box"
        assert rep.intensity == 0.0

    def test_constant_commutator_empty(self):
        a = DifferentialForm.one_form(V2, [y, ZERO])
        rep = find_pseudostructure(a, Metric.euclidean(V2), BOX2, 21)
        assert rep.locus.kind == "empty"
        assert rep.locus.description == "no structure realized"

    def test_sign_change_locus_points(self):
        """Nonaligned zero set: found numerically by bisection, |K| <= tol."""
        a = DifferentialForm.one_form(V2, [ZERO, (x - y) * x + x])
        # K_12 = d/dx((x-y)x + x) = 2x - y + 1, a slanted line
        rep = find_pseudostructure(a, Metric.euclidean(V2), BOX2, 41, tol=1e-6)
        assert rep.locus.kind == "points"
        assert rep.locus.points
        K = commutator(a)
        for p in rep.locus.points:
            point = dict(zip(V2.names, p))
            assert all(abs(evaluate(c, point)) <= 1e-6 for _, c in K.items())

    def test_3d_scan(self):
        a = DifferentialForm.one_form(V3, [z * y, ZERO, ZERO])
        # K_12 = -z, K_13 = -y, K_23 = 0: common zero locus is the x-axis
        rep = find_pseudostructure(a, Metric.euclidean(V3),
                                   [(-1, 1)] * 3, 11)
        assert rep.locus.points
        for p in rep.locus.points:
            assert abs(p[1]) <= 1e-6 and abs(p[2]) <= 1e-6

    def test_preconditions(self):
        with pytest.raises(AnalysisError):
            find_pseudostructure(DifferentialForm.scalar(V2, x),
                                 Metric.euclidean(V2), BOX2, 11)
        with pytest.raises(AnalysisError):
            find_pseudostructure(DifferentialForm.one_form(V2, [x, y]),
                                 Metric.euclidean(V2), BOX2, 2)

    def test_grid_node_count_is_bounded(self, monkeypatch):
        from skewforms.balance import BalanceSystem, build_relation, equilibrium_scan

        def no_grid(*args, **kwargs):
            raise AssertionError("an oversized grid must be rejected before it is built")

        monkeypatch.setattr(np, "linspace", no_grid)
        over = analysis.MAX_GRID_NODES + 1
        a2 = DifferentialForm.one_form(V2, [y**2, x * y])
        a3 = DifferentialForm.one_form(V3, [z * y, ZERO, ZERO])
        relation = build_relation(BalanceSystem(V2, (y**2, x * y)))
        for form, grid in ((a2, 100_000), (a2, [3, over // 3 + 1]), (a3, 216), (a3, [over, 3, 3])):
            with pytest.raises(AnalysisError, match="grid"):
                find_pseudostructure(form, Metric.euclidean(form.vars),
                                     [(-1, 1)] * form.vars.dimension, grid)
        with pytest.raises(AnalysisError, match="grid"):
            equilibrium_scan(relation, BOX2, 100_000)

    def test_box_needs_finite_increasing_ranges(self):
        from skewforms.balance import BalanceSystem, build_relation, equilibrium_scan

        a = DifferentialForm.one_form(V2, [y**2, x * y])
        relation = build_relation(BalanceSystem(V2, (y**2, x * y)))
        inf = math.inf
        for bad in ([(-inf, inf), (0.0, 1.0)], [(-1e308, 1e308), (0.0, 1.0)],
                    [(0.0, 1.0), (0.0, math.nan)], [(1.0, 0.0), (0.0, 1.0)],
                    [(0.0, 0.0), (0.0, 1.0)]):
            with pytest.raises(AnalysisError):
                find_pseudostructure(a, Metric.euclidean(V2), bad, 11)
            with pytest.raises(AnalysisError):
                equilibrium_scan(relation, bad, 11)

    def test_tolerance_must_be_positive_and_finite(self):
        from skewforms.balance import BalanceSystem, build_relation, equilibrium_scan

        # a locus on an axis, a closed form and a commutator that vanishes nowhere
        for actions in ((y**2, x * y), (y, x), (y, -x)):
            a = DifferentialForm.one_form(V2, list(actions))
            relation = build_relation(BalanceSystem(V2, actions))
            for tol in (math.nan, math.inf, 0.0, -1e-6):
                with pytest.raises(AnalysisError, match="tolerance"):
                    find_pseudostructure(a, Metric.euclidean(V2), BOX2, 11, tol)
                with pytest.raises(AnalysisError, match="tolerance"):
                    equilibrium_scan(relation, BOX2, 11, tol)

    def test_constant_commutator_component_builds_no_grid(self, monkeypatch):
        # K_xy = 2 vanishes nowhere, K_xz = z, K_yz = 0
        a = DifferentialForm.one_form(V3, [-y, x, 1 + x * z])

        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(np, "linspace", no_grid)
        monkeypatch.setattr(np, "meshgrid", no_grid)
        monkeypatch.setattr(analysis, "_linspace", no_grid)
        for grid in (11, 17):  # the scalar path, then the array path
            rep = find_pseudostructure(a, Metric.euclidean(V3), [(-1, 1)] * 3, grid)
            assert rep.locus.kind == "empty"
            assert rep.locus.description == "no structure realized"
            assert rep.locus.points == [] and rep.locus.hyperplane is None
            assert rep.intensity == 0.0
            assert rep.dual_condition_residual == x
            assert rep.restricted_form is None and rep.chart is None
            assert str(rep.commutator) == "2*dx^dy + z*dx^dz"

    def test_component_without_variables_that_is_not_a_constant_node(self):
        # exp(-20) and 4*exp(4/3) + 3*exp(3/2) read no coordinate, yet they are not
        # Const nodes, so the scan runs: every node is a hit, or none is
        tiny = DifferentialForm.one_form(V2, [ZERO, x * exp(const(-20))])
        big = DifferentialForm.one_form(V2, [3 * exp(const(Fraction(3, 2))) * (1 - y),
                                             4 * x * exp(const(Fraction(4, 3)))])
        for grid in (5, 65):  # the scalar path, then the array path
            rep = find_pseudostructure(tiny, Metric.euclidean(V2), BOX2, grid)
            assert len(rep.locus.points) == grid**2
            assert rep.intensity == pytest.approx(math.exp(-20), rel=1e-15)
            assert find_pseudostructure(big, Metric.euclidean(V2), BOX2, grid).locus.kind == "empty"

    # K_xy = 1/2 - x^2 - y^2 - z^2, a spherical shell; K_xz = -2yz; K_yz = 0
    SHELL = DifferentialForm.one_form(V3, [x**2 * y + y**3 / 3 + y * z**2 - y / 2, ZERO, ZERO])

    def test_array_bisection_matches_scalar_bisection_per_edge(self):
        shell = compile_expression(commutator(self.SHELL).coefficient((1, 2)), V3.names)
        axis_nodes = np.linspace(-1.0, 1.0, 31)
        values = shell.array(*np.meshgrid(axis_nodes, axis_nodes, axis_nodes, indexing="ij"))
        for axis in range(3):
            lead = np.take(values, range(30), axis=axis)
            trail = np.take(values, range(1, 31), axis=axis)
            flips = np.argwhere(lead * trail < 0)
            lo = axis_nodes[flips].T
            hi = lo.copy()
            hi[axis] = axis_nodes[flips[:, axis] + 1]
            held = lead[tuple(flips.T)], trail[tuple(flips.T)]  # both bisections start from them
            roots = analysis._bisect_edges(shell, lo.copy(), axis, held[0], hi[axis], 1e-6)
            expected = [_scalar_bisect(shell.scalar, lo[:, k].tolist(), hi[:, k].tolist(), 1e-6,
                                       (held[0][k], held[1][k])) for k in range(len(flips))]
            got = []
            for k, r in enumerate(roots.tolist()):  # NaN: no root on edge k
                point = lo[:, k].tolist()
                point[axis] = r
                got.append(None if math.isnan(r) else point)
            assert got == expected
            assert sum(root is not None for root in expected) > 500

    def test_array_bisection_edge_cases(self):
        # (component, x at the lo end, x at the hi end) of an edge along x at y = 0.  The scan
        # bisects only strict sign changes of finite values it already holds, so an edge whose
        # end value is zero, non-finite or of the other end's sign never reaches the bisection
        edges = [
            (x - y, -0.3, 0.7, True),      # a root inside
            (x**-1, -1.0, 1.0, False),     # the first midpoint, x = 0, outside the domain
        ]
        for e, lo, hi, has_root in edges:
            fn = compile_expression(e, V2.names)
            held = fn.scalar(lo, 0.0), fn.scalar(hi, 0.0)
            point = np.array([[lo], [0.0]])
            roots = analysis._bisect_edges(fn, point, 0, np.array(held[:1]), np.array([hi]), 1e-6)
            expected = _scalar_bisect(fn.scalar, [lo, 0.0], [hi, 0.0], 1e-6, held)
            assert [None if math.isnan(r) else [r, 0.0] for r in roots.tolist()] == [expected]
            assert (expected is not None) == has_root

    # the numeric workload's shell and axis shapes: in the shell, K_xy = -2*y and
    # K_xz = 5/7*y - 2*z read no x and K_yz = 5/7*x reads x alone; in the axis,
    # K_xz = 11/6*y and K_yz = 11/6*x read one coordinate each
    SHELL_WORKLOAD = DifferentialForm.one_form(
        V3, [x**2 + y**2 + z**2 - Fraction(1, 3), ZERO, Fraction(5, 7) * x * y])
    AXIS_WORKLOAD = DifferentialForm.one_form(V3, [ZERO, ZERO, Fraction(11, 6) * x * y])

    def test_scan_matches_scalar_bisection_per_edge(self):
        """Each component is scanned on its own grid, which is smaller along
        an axis it does not read; the reference scans the whole box."""
        rng = random.Random(1919)
        box, tol = [(-1.0, 1.0)] * 3, 1e-6
        # K_yz = y^2 + z - 2/3 alone: a surface of roots repeated along x
        cylinder = DifferentialForm.one_form(V3, [ZERO, ZERO, y**3 / 3 + y * z - Fraction(2, 3) * y])
        cases = [(self.SHELL, 31), (self.SHELL_WORKLOAD, 22), (self.SHELL_WORKLOAD, 31),
                 (self.AXIS_WORKLOAD, 24), (self.AXIS_WORKLOAD, 25),
                 (DifferentialForm.one_form(V3, [z * y, ZERO, ZERO]), 26), (cylinder, 23)]
        cases += [(random_form(rng, V3, 1), rng.randint(21, 31)) for _ in range(6)]
        kinds, sizes = set(), []
        for a, grid in cases:
            rep = find_pseudostructure(a, Metric.euclidean(V3), box, grid, tol)
            points, intensity = _scalar_bisection_locus(a, box, grid, tol)
            assert rep.locus.points == points
            assert float.hex(rep.intensity) == float.hex(intensity)
            kinds.add(rep.locus.kind)
            sizes.append(len(points))
        assert sizes[0] > 100 and sizes[2] == 1 and sizes[4] == 25 and sizes[6] > 1000
        assert kinds == {"points", "empty"}

    def test_each_edge_of_a_component_is_bisected_once(self, monkeypatch):
        received = []
        bisect = analysis._bisect_edges

        def counting(fn, point, d, f_a, b, tol):
            received.append(len(f_a))
            return bisect(fn, point, d, f_a, b, tol)

        monkeypatch.setattr(analysis, "_bisect_edges", counting)
        grid = 101
        rep = find_pseudostructure(self.SHELL_WORKLOAD, Metric.euclidean(V3), [(-1.0, 1.0)] * 3, grid)
        assert rep.locus.points == [(0.0, 0.0, 0.0)]
        # the sign-change edges of each component's own array, which has size
        # 1 along an axis the component does not read
        axis_nodes = np.linspace(-1.0, 1.0, grid)
        mesh = np.meshgrid(axis_nodes, axis_nodes, axis_nodes, indexing="ij", sparse=True)
        own = 0
        for _, c in commutator(self.SHELL_WORKLOAD).items():
            values = compile_expression(c, V3.names).array(*mesh)
            for axis in range(3):
                if values.shape[axis] > 1:
                    v = np.moveaxis(values, axis, 0)
                    own += np.count_nonzero(v[:-1] * v[1:] < 0)
        # all of K_xz = 5/7*y - 2*z on its 101 x 101 grid; the box repeats them 101 times
        assert own == 132
        assert sum(received) == own

    def test_intensity_skips_nodes_where_a_component_is_not_finite(self, monkeypatch):
        # K_xy = -2*y*(1 - 2*x)^-1 is not finite at the nodes x = 1/2, next to the
        # locus line x = y = 0, where K_xz = 2*x + 3*x^2 reads 1.75; the largest
        # |K| on the other nodes next to the locus is |K_xy| = 1 at (0, +-1/2)
        a = DifferentialForm.one_form(V3, [ZERO, y * ln(x - Fraction(1, 2)), x**2 + x**3])
        box = [(-1.0, 1.0)] * 3
        for bound, evaluator in ((analysis.SCALAR_SCAN_NODES, _scalar_nodes), (0, _array_nodes)):
            monkeypatch.setattr(analysis, "SCALAR_SCAN_NODES", bound)  # the scalar path, then the array path
            rep = find_pseudostructure(a, Metric.euclidean(V3), box, 5, 1e-6)
            assert (rep.locus.points, rep.intensity) == _scalar_bisection_locus(a, box, 5, 1e-6, evaluator)
            assert len(rep.locus.points) == 10 and rep.intensity == 1.0

    def test_scan_holds_no_box_sized_float_array(self):
        # no component of the shell reads every coordinate, but between them they
        # read all three; the grid hits are those of K_xz = 5/7*y - 2*z, the
        # component with the fewest, spread along x and checked against the
        # others, so no mask spans the box (201^3 bools would take 7.7 MiB).
        # K_xy = -2*y reads only axes K_xz reads, so the roots of K_xz are
        # checked against it before they are spread along x, and only the
        # few that pass are spread (1.3 MiB at the peak).  The axis
        # workload's hits read (x, y).  A float array over the box would
        # take 61.8 MiB
        def scan(form):
            tracemalloc.start()
            try:
                rep = find_pseudostructure(form, Metric.euclidean(V3), [(-1.0, 1.0)] * 3, 201)
                return rep, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rep, peak = scan(self.SHELL_WORKLOAD)
        assert rep.locus.points == [(0.0, 0.0, 0.0)]
        assert peak < 2 * 2**20
        rep, peak = scan(self.AXIS_WORKLOAD)
        assert len(rep.locus.points) == 201 and {p[:2] for p in rep.locus.points} == {(0.0, 0.0)}
        assert peak < 4 * 2**20

    def test_intensity_gathers_a_large_locus_in_blocks(self, monkeypatch):
        # the plane z = 3/10 at grid 101: 20,402 locus points, a grid hit and a
        # bisection root beside each of its nodes.  The scan's peak is 8.83 MiB;
        # one gather over all of them held 20,402 x 27 x 3 int64 indices (35.5 MiB)
        a = parse("vars x, y, z\nform b = (z - 3/10)^2*dx\n").find("b").form

        def peak():
            tracemalloc.start()
            try:
                rep = find_pseudostructure(a, Metric.euclidean(V3), [(-1.0, 1.0)] * 3, 101)
                assert len(rep.locus.points) == 20402
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = (8.83 + 0.5) * 2**20
        assert peak() < bound
        monkeypatch.setattr(analysis, "_GATHER_BLOCK", 10**6)  # one gather: the bound tells it
        assert peak() > bound

    def test_points_stay_finite_near_the_float_limit(self, monkeypatch):
        # K_xy = y reads no x, so x must stay a node coordinate: 0.5*(c + c)
        # would overflow above about 9e307
        a = DifferentialForm.one_form(V2, [ZERO, x * y])
        box = [(1e308, 1.6e308), (-1.0, 1.0)]
        for bound in (analysis.SCALAR_SCAN_NODES, 0):  # the scalar path, then the array path
            monkeypatch.setattr(analysis, "SCALAR_SCAN_NODES", bound)
            rep = find_pseudostructure(a, Metric.euclidean(V2), box, [3, 4])
            assert rep.locus.points == [(1e308, 0.0), (1.3e308, 0.0), (1.6e308, 0.0)]
            for point in rep.locus.points:
                assert all(math.isfinite(c) and lo <= c <= hi for c, (lo, hi) in zip(point, box))


def _per_offset_intensity(comp_values, nodes, shape):
    """The intensity as one pass per neighbour offset: the reference for ``analysis._intensity``."""
    intensity = 0.0
    for offsets in itertools.product((-1, 0, 1), repeat=len(shape)):
        near = nodes + offsets
        near = near[((near >= 0) & (near < shape)).all(axis=1)]
        k = np.abs([np.broadcast_to(arr, shape)[tuple(near.T)] for arr in comp_values])
        intensity = max(intensity, float(k[:, np.isfinite(k).all(axis=0)].max(initial=0.0)))
    return intensity


class TestIntensityGather:
    """The intensity's gather per block of locus nodes reads what one pass per offset reads."""

    @pytest.mark.parametrize("shape, owns", [
        ((40, 50), [(40, 50), (1, 50)]),
        ((11, 12, 13), [(11, 12, 13), (11, 1, 13), (1, 12, 1)]),
    ])
    @pytest.mark.parametrize("count", [0, 1, 1024, 1025])  # 1,024 locus nodes fill one gather block
    def test_gather_matches_the_per_offset_loop(self, shape, owns, count):
        rng = np.random.default_rng(count + len(shape))
        values = []
        for own in owns:  # one own grid per component, with NaN and signed inf entries
            arr = rng.standard_normal(own) * 10.0 ** rng.integers(-3, 4, own)
            picks = rng.permutation(arr.size)[:arr.size // 5]
            arr.reshape(-1)[picks] = rng.choice([np.nan, np.inf, -np.inf], picks.size)
            values.append(arr)
        n = len(shape)
        nodes = rng.integers(0, shape, (count, n))
        # a corner first, then nodes moved onto a face of the box
        nodes[:1] = [[rng.choice([0, m - 1]) for m in shape]]
        for node in nodes[1::3]:
            axis = rng.integers(n)
            node[axis] = rng.choice([0, shape[axis] - 1])
        got = analysis._intensity(values, nodes, shape)
        assert float.hex(got) == float.hex(_per_offset_intensity(values, nodes, shape))
        if count >= 1024:
            # the largest |K| at the last node, a corner no other node is next to: the
            # last block is read
            nodes[-1], nodes[:-1, 0] = 0, np.maximum(nodes[:-1, 0], 2)
            for arr in values:
                arr[(0,) * n] = 1.0
            values[0][(0,) * n] = -1e9
            assert analysis._intensity(values, nodes, shape) == 1e9
            assert analysis._intensity(values, nodes[:-1], shape) < 1e9


class TestScalarScan:
    """Grids of at most SCALAR_SCAN_NODES nodes are scanned in scalar mode alone."""

    def test_nodes_are_numpy_linspace_bit_for_bit(self):
        rng = random.Random(4096)
        boxes = [(-1.0, 1.0), (1e308, 1.6e308), (0.0, 5e-324), (-1e-310, 1e-310), (0.1, 0.7)]
        boxes += [tuple(sorted((rng.uniform(-50, 50), rng.uniform(-50, 50)))) for _ in range(40)]
        for lo, hi in boxes:
            for m in (3, 4, 7, 21, 64, 101):
                want = [float.hex(v) for v in np.linspace(lo, hi, m).tolist()]
                assert [float.hex(v) for v in analysis._linspace(lo, hi, m)] == want, (lo, hi, m)

    def test_scan_matches_the_scalar_reference(self):
        """Points and intensity bits are those of the reference scan with
        every node value read in scalar mode, on seeded 2-D and 3-D forms up
        to the bound, with ln, negative powers and roots that leave the
        domain at some nodes."""
        rng = random.Random(2718)

        def r():
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 4]))

        def factor(names):
            u = random_polynomial(rng, names, 2, 2) + r()
            return rng.choice([ONE, ONE, ln(u), u ** -1, u ** -2, u ** Fraction(1, 2), exp(u / 3), sin(u)])

        def form(variables):
            names = variables.names
            return DifferentialForm.one_form(
                variables, [random_polynomial(rng, names) * factor(names) for _ in names])

        cases = [(form(V2), [(-1.0, 1.0), (-0.5, 1.5)], rng.choice([5, 11, 21, 40, 64])) for _ in range(30)]
        cases += [(form(V3), [(-1.0, 1.0)] * 3, rng.choice([3, 5, 8, 16])) for _ in range(8)]
        # c*dz alone: K_xz = c_x and K_yz = c_y vanish together on curves
        for _ in range(8):
            c = random_polynomial(rng, V3.names) * factor(V3.names)
            cases.append((DifferentialForm.one_form(V3, [ZERO, ZERO, c]),
                          [(-1.0, 1.0), (-0.5, 1.5), (-1.0, 1.0)], rng.choice([5, 9, 15, 16])))
        cases += [(TestPseudostructure.SHELL, [(-1.0, 1.0)] * 3, 15),
                  (TestPseudostructure.SHELL_WORKLOAD, [(-1.0, 1.0)] * 3, 15)]
        assert all(grid ** len(box) <= analysis.SCALAR_SCAN_NODES for _, box, grid in cases)
        kinds, total, gaps = set(), 0, 0
        for a, box, grid in cases:
            rep = find_pseudostructure(a, Metric.euclidean(a.vars), box, grid)
            if rep.locus.kind == "whole_box":
                continue  # a closed form: no commutator component to scan
            points, intensity = _scalar_bisection_locus(a, box, grid, analysis.DEFAULT_TOL, _scalar_nodes)
            assert rep.locus.points == points, (a, grid)
            assert float.hex(rep.intensity) == float.hex(intensity), (a, grid)
            kinds.add(rep.locus.kind)
            total += len(points)
            mesh = np.meshgrid(*[np.linspace(lo, hi, grid) for lo, hi in box], indexing="ij")
            gaps += any(np.isnan(_scalar_nodes(compile_expression(c, a.vars.names), mesh)).any()
                        for _, c in commutator(a).items())
        assert {"points", "empty"} <= kinds and total > 500 and gaps >= 5


class TestNodeIndices:
    """``_nodes`` gives np.argwhere's indices, so a scan reports the same."""

    def test_nodes_match_argwhere(self):
        rng = np.random.default_rng(2024)
        masks = []
        for shape in ((7, 5), (4, 6, 3), (1, 9), (3, 1, 4), (21, 21, 21)):
            masks += [rng.random(shape) < p for p in (0.0, 0.05, 0.5, 1.0)]  # p = 1: all true
        for shape, full in (((5, 1, 4), (5, 6, 4)), ((1, 8), (6, 8)), ((3, 4, 1), (3, 4, 5))):
            masks.append(np.broadcast_to(rng.random(shape) < 0.5, full))  # a read-only view
        for mask in masks:
            got, want = analysis._nodes(mask), np.argwhere(mask)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert not masks[0].any() and masks[3].all()

    def test_scans_match_argwhere(self, monkeypatch):
        rng = random.Random(808)
        xi = VariableSet(["xi1", "xi2"])
        xi1, xi2 = var("xi1"), var("xi2")
        cases = [
            (DifferentialForm.one_form(xi, [xi2**2, xi1 * xi2]), BOX2, 41),  # the hyperplane xi2 = 0
            (DifferentialForm.one_form(V3, [z * y, ZERO, ZERO]), [(-1, 1)] * 3, 11),
            (TestPseudostructure.SHELL, [(-1.0, 1.0)] * 3, 21),
        ]
        cases += [(random_form(rng, V2, 1), BOX2, rng.choice([11, 31])) for _ in range(8)]
        cases += [(random_form(rng, V3, 1), [(-1.0, 1.0)] * 3, rng.choice([7, 13]))
                  for _ in range(6)]

        def scan_all():
            return [find_pseudostructure(a, Metric.euclidean(a.vars), box, grid)
                    for a, box, grid in cases]

        # these grids are small enough for the scalar path, which takes no indices from a mask
        monkeypatch.setattr(analysis, "SCALAR_SCAN_NODES", 0)
        reports = scan_all()
        monkeypatch.setattr(analysis, "_nodes", np.argwhere)
        kinds = set()
        for got, want in zip(reports, scan_all()):
            assert got.locus.kind == want.locus.kind
            assert got.locus.hyperplane == want.locus.hyperplane
            assert got.locus.points == want.locus.points
            assert float.hex(got.intensity) == float.hex(want.intensity)
            kinds.add(got.locus.kind)
        assert {"hyperplane", "points"} <= kinds
        assert sum(len(r.locus.points) for r in reports) > 200


class _CountingExpression:
    """A compiled component that counts the elements it is evaluated at."""

    def __init__(self, fn):
        self.fn, self.count = fn, 0

    def scalar(self, *point):
        self.count += 1
        return self.fn.scalar(*point)

    def array(self, *arrays):
        out = self.fn.array(*arrays)
        self.count += np.size(out)
        return out


class TestScanEvaluations:
    """After the node pass, a scan evaluates a component only at its bisection
    midpoints and at the roots of the other components, in either mode."""

    def counts(self, monkeypatch, form, grid, bound):
        counted = []

        def counting(e, names):
            counted.append(_CountingExpression(compile_expression(e, names)))
            return counted[-1]

        monkeypatch.setattr(analysis, "compile_expression", counting)
        monkeypatch.setattr(analysis, "SCALAR_SCAN_NODES", bound)
        rep = find_pseudostructure(form, Metric.euclidean(form.vars), BOX2, grid)
        return rep, [c.count for c in counted]

    def test_one_component_is_evaluated_at_its_nodes_and_midpoints(self, monkeypatch):
        # K = x^2 + y^2 - 1/4, a circle through the grid hits (+-1/2, 0) and (0, +-1/2)
        circle = DifferentialForm.one_form(V2, [ZERO, x**3 / 3 + x * y**2 - x / 4])
        fn = compile_expression(commutator(circle).coefficient((1, 2)), V2.names)
        grid = 41
        axis_nodes = np.linspace(-1.0, 1.0, grid)
        mesh = np.meshgrid(axis_nodes, axis_nodes, indexing="ij")

        def array_value(*point):
            return float(fn.array(*[np.array([c]) for c in point])[0])

        for bound, nodes, value in ((analysis.SCALAR_SCAN_NODES, _scalar_nodes, fn.scalar),
                                    (0, _array_nodes, array_value)):  # the scalar path, then the array path
            # the midpoints of a bisection from the held values on every sign-change edge
            values, midpoints = nodes(fn, mesh), 0

            def counted(*point):
                nonlocal midpoints
                midpoints += 1
                return value(*point)

            for axis in range(2):
                lead = np.take(values, range(grid - 1), axis=axis)
                trail = np.take(values, range(1, grid), axis=axis)
                for node in np.argwhere(lead * trail < 0):
                    lo = axis_nodes[node].tolist()
                    hi = list(lo)
                    hi[axis] = float(axis_nodes[node[axis] + 1])
                    ends = lead[tuple(node)], trail[tuple(node)]
                    _scalar_bisect(counted, lo, hi, analysis.DEFAULT_TOL, ends)
            rep, counts = self.counts(monkeypatch, circle, grid, bound)
            assert len(rep.locus.points) == 84 and midpoints > 500
            assert counts == [grid**2 + midpoints]

    def test_grid_hits_are_not_evaluated_again(self, monkeypatch):
        # K = -xi2 vanishes on the grid line xi2 = 0 and changes sign on no edge
        xi = VariableSet(["xi1", "xi2"])
        xi1, xi2 = var("xi1"), var("xi2")
        a = DifferentialForm.one_form(xi, [xi2**2, xi1 * xi2])
        for bound in (analysis.SCALAR_SCAN_NODES, 0):  # the scalar path, then the array path
            rep, counts = self.counts(monkeypatch, a, 41, bound)
            assert rep.locus.kind == "hyperplane" and len(rep.locus.points) == 41
            assert counts == [41]  # the own grid of K: 1 x 41 nodes


def _scalar_bisect(f, lo, hi, tol, ends=None):
    """Bisect a scalar function along one grid edge: the reference for the
    array bisection of the pseudostructure scan.  ends, when given, are the
    values at lo and hi, which are then not evaluated."""
    try:
        f_lo, f_hi = (f(*lo), f(*hi)) if ends is None else ends
    except DomainError:
        return None
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        return None
    for _ in range(80):
        mid = [0.5 * (p + q) for p, q in zip(lo, hi)]
        try:
            f_mid = f(*mid)
        except DomainError:
            return None
        if abs(f_mid) <= tol:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return None


def _array_nodes(fn, mesh):
    """A compiled component at every node of the box, in array mode."""
    return np.broadcast_to(fn.array(*mesh), mesh[0].shape)


def _scalar_nodes(fn, mesh):
    """A compiled component at every node of the box, one scalar call per
    node, NaN where scalar mode raises."""
    def one(*point):
        try:
            return fn.scalar(*map(float, point))
        except DomainError:
            return math.nan
    with np.errstate(all="ignore"):  # libm leaves its status flags, which numpy would report
        return np.vectorize(one, otypes=[float])(*mesh)


def _scalar_bisection_locus(a, box, grid, tol, evaluator=_array_nodes):
    """The reference for the pseudostructure scan: grid nodes where every
    commutator component is within tol, then one scalar bisection per
    sign-change grid edge of each component, each root kept where every
    component is within tol.  Returns the points, rounded to 9 digits and
    sorted, and the largest finite |K| on the grid nodes next to the grid
    node that first gave each point.  Node values come from
    ``evaluator(compiled, mesh)``, over the whole box."""
    names = a.vars.names
    comps = [compile_expression(c, names) for _, c in commutator(a).items()]
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    values = [evaluator(c, mesh) for c in comps]

    def on_locus(point):
        try:
            return all(abs(c.scalar(*point)) <= tol for c in comps)
        except DomainError:
            return False

    max_abs = np.max(np.abs(values), axis=0)
    points = {}
    for node in np.argwhere(max_abs <= tol):
        points.setdefault(tuple(round(float(axes[d][i]), 9) for d, i in enumerate(node)), node)
    for c, v in zip(comps, values):
        for axis in range(len(names)):
            lead = np.take(v, range(grid - 1), axis=axis)
            trail = np.take(v, range(1, grid), axis=axis)
            for node in np.argwhere(lead * trail < 0):
                lo = [float(axes[d][i]) for d, i in enumerate(node)]
                hi = list(lo)
                hi[axis] = float(axes[axis][node[axis] + 1])
                root = _scalar_bisect(c.scalar, lo, hi, tol)
                if root is not None and on_locus(root):
                    points.setdefault(tuple(round(p, 9) for p in root), node)
    intensity = 0.0
    for node in points.values():
        for offsets in itertools.product((-1, 0, 1), repeat=len(names)):
            neighbor = tuple(node + offsets)
            if all(0 <= i < grid for i in neighbor) and np.isfinite(max_abs[neighbor]):
                intensity = max(intensity, float(max_abs[neighbor]))
    return sorted(points), intensity


class TestStokes:
    def test_x_dy_unit_square(self):
        a = DifferentialForm.one_form(V2, [ZERO, x])
        boundary, area, diff = stokes_check(a, (0, 1, 0, 1))
        assert boundary == pytest.approx(1.0, abs=1e-12)
        assert area == pytest.approx(1.0, abs=1e-12)
        assert diff < 1e-8

    def test_y_dx_unit_square(self):
        a = DifferentialForm.one_form(V2, [y, ZERO])
        boundary, area, diff = stokes_check(a, (0, 1, 0, 1))
        assert boundary == pytest.approx(-1.0, abs=1e-12)
        assert diff < 1e-8

    def test_exact_form_boundary_zero(self, rng):
        for _ in range(5):
            f = random_polynomial(rng, ("x", "y"))
            a = DifferentialForm.one_form(V2, [differentiate(f, "x"), differentiate(f, "y")])
            boundary, _, _ = stokes_check(a, (-0.5, 1.5, 0.0, 2.0))
            assert abs(boundary) < 1e-8

    def test_random_polynomial_forms(self, rng):
        for _ in range(20):
            a = random_form(rng, V2, 1)
            _, _, diff = stokes_check(a, (0, 1, 0, 1))
            assert diff < 1e-8

    def test_bad_rectangle(self):
        a = DifferentialForm.one_form(V2, [y, ZERO])
        with pytest.raises(AnalysisError):
            stokes_check(a, (1, 0, 0, 1))
        with pytest.raises(AnalysisError):
            stokes_check(a, (0, math.inf, 0, 1))
        for rect in ((0, 1, 0), (0, 1, 0, 1, 2)):
            with pytest.raises(AnalysisError, match="four numbers"):
                stokes_check(a, rect)

    def test_y_dx_unit_square_is_exact(self):
        a = DifferentialForm.one_form(V2, [y, ZERO])
        assert stokes_check(a, (0, 1, 0, 1)) == (-1.0, -1.0, 0.0)

    def test_polynomial_forms_skip_quadrature(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("polynomial coefficients reached Gauss-Legendre quadrature")
        monkeypatch.setattr(analysis, "_gauss_1d", no_quadrature)
        a = DifferentialForm.one_form(V2, [x**2 - y**2, -2 * x * y])
        assert stokes_check(a, (0, 1, 0, 1)) == (0.0, 0.0, 0.0)
        a = DifferentialForm.one_form(V2, [sin(const(1)) * y, ZERO])
        boundary, area, diff = stokes_check(a, (0, 1, 0, 1))
        assert boundary == area == -math.sin(1.0)
        assert diff == 0.0

    def test_random_polynomial_forms_match_sympy_exactly(self, rng):
        sympy = pytest.importorskip("sympy")
        xs, ys = sympy.symbols("x y")
        x0, x1, y0, y1 = -0.5, 1.5, 0.0, 2.0
        for _ in range(10):
            a = random_form(rng, V2, 1)
            a1, a2 = (sympy.sympify(str(a.coefficient((i,))).replace("^", "**"),
                                    rational=True) for i in (1, 2))
            integrand = sympy.diff(a2, xs) - sympy.diff(a1, ys)
            exact = sympy.integrate(integrand, (xs, sympy.Rational(x0), sympy.Rational(x1)),
                                    (ys, sympy.Rational(y0), sympy.Rational(y1)))
            boundary, area, diff = stokes_check(a, (x0, x1, y0, y1))
            assert boundary == area == float(exact)
            assert diff == 0.0

    def test_transcendental_form_uses_quadrature(self):
        a = DifferentialForm.one_form(V2, [exp(x) * sin(y), x * cos(y)])
        boundary, area, diff = stokes_check(a, (0, 1, 0, 1))
        expected = (2 - math.e) * math.sin(1.0)
        assert abs(boundary - expected) < 1e-8
        assert abs(area - expected) < 1e-8
        assert diff < 1e-8

    def test_gauss_table_matches_numpy(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert np.max(np.abs(np.array(analysis._GAUSS_NODES) - nodes)) <= 1e-15
        assert np.max(np.abs(np.array(analysis._GAUSS_WEIGHTS) - weights)) <= 1e-15


class TestClassificationTable:
    def test_paper_rows(self):
        assert classification_table(1, 2) == [(1, 2), (0, 3)]
        assert classification_table(0, 3) == [(0, 4)]
        assert classification_table(3, 3) == [(3, 1), (2, 2), (1, 3), (0, 4)]

    def test_formula_everywhere(self):
        for p in range(4):
            for n in range(1, 5):
                rows = classification_table(p, n)
                assert rows == [(k, n + 1 - k) for k in range(p, -1, -1)]

    def test_bounds(self):
        with pytest.raises(AnalysisError):
            classification_table(4, 2)
        with pytest.raises(AnalysisError):
            classification_table(1, 0)


class TestJacobianDeterminant:
    def test_identity_map(self):
        from skewforms.analysis import jacobian_determinant
        assert jacobian_determinant([x, y], V2) == ONE

    def test_degeneracy_locus(self):
        from skewforms.analysis import jacobian_determinant
        det = jacobian_determinant([x**2, y], V2)
        assert det == 2 * x  # degenerates on x = 0

    def test_linear_map(self):
        from skewforms.analysis import jacobian_determinant
        det = jacobian_determinant([2 * x + y, x - y], V2)
        assert det == const(-3)

    def test_three_dimensional(self):
        from skewforms.analysis import jacobian_determinant
        det = jacobian_determinant([x * y, y * z, z * x], V3)
        assert det == 2 * x * y * z

    def test_shape_check(self):
        from skewforms.analysis import jacobian_determinant
        with pytest.raises(AnalysisError):
            jacobian_determinant([x], V2)


class TestPotentialHelpers:
    def test_origin_centered(self):
        a = DifferentialForm.one_form(V2, [y, x])
        assert reconstruct_potential(a) == x * y

    def test_nonpolynomial_returns_none(self):
        a = DifferentialForm.one_form(V2, [sin(y), ZERO])
        assert reconstruct_potential(a) is None

    def test_requires_one_form(self):
        with pytest.raises(AnalysisError):
            reconstruct_potential(DifferentialForm.scalar(V2, x))


# --- the substitution-based integrator, kept as a reference --------------------
#
# Before potentials and exact Stokes integrals read each term's degree, they
# substituted x -> t*x (or x -> lo + (hi - lo)*t) and integrated the result
# over t in [0, 1].  The per-term rule must give the same trees and floats.


def _reference_polynomial_in(e, names):
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Add):
        return all(_reference_polynomial_in(t, names) for t in e.terms)
    if isinstance(e, Mul):
        return all(_reference_polynomial_in(f, names) for f in e.factors)
    if isinstance(e, Pow):
        if not (free_variables(e.base) & names):
            return True
        return (e.exponent.denominator == 1 and e.exponent >= 0
                and _reference_polynomial_in(e.base, names))
    return not (free_variables(e.arg) & names)  # Func


def _reference_fresh_name(base, taken):
    name = base
    while name in taken:
        name += "_"
    return name


def _reference_integrate_unit_interval(e, t):
    out = ZERO
    for term in e.terms if isinstance(e, Add) else (e,):
        degree = 0
        rest = []
        for f in term.factors if isinstance(term, Mul) else (term,):
            base, exponent = (f.base, f.exponent) if isinstance(f, Pow) else (f, 1)
            if isinstance(base, Var) and base.name == t:
                if exponent.denominator != 1 or exponent < 0:
                    return None
                degree += exponent
            elif t in free_variables(f):
                return None
            else:
                rest.append(f)
        out = out + mul(const(Fraction(1, degree + 1)), *rest)
    return out


def _reference_potential(a):
    names = a.vars.names
    if not all(_reference_polynomial_in(c, set(names)) for _, c in a.items()):
        return None
    t = _reference_fresh_name("t", set(names))
    scale = {name: mul(var(t), var(name)) for name in names}
    total = ZERO
    for i, name in enumerate(names, start=1):
        ai = a.coefficient((i,))
        if ai == ZERO:
            continue
        integrated = _reference_integrate_unit_interval(substitute(ai, scale), t)
        if integrated is None:
            return None
        total = total + mul(var(name), integrated)
    return total


def _reference_integrate(e, name, lo, hi):
    t = _reference_fresh_name("t", free_variables(e) | {name})
    scaled = substitute(e, {name: const(lo) + const(hi - lo) * var(t)})
    unit = _reference_integrate_unit_interval(scaled, t)
    return None if unit is None else mul(const(hi - lo), unit)


def _reference_stokes_exact(a1, a2, integrand, xn, yn, rect):
    x0, x1, y0, y1 = rect
    inner = _reference_integrate(integrand, yn, y0, y1)
    area = None if inner is None else _reference_integrate(inner, xn, x0, x1)
    if area is None:
        return None
    edges = (
        _reference_integrate(substitute(a1, {yn: const(y0)}), xn, x0, x1),
        _reference_integrate(substitute(a2, {xn: const(x1)}), yn, y0, y1),
        _reference_integrate(substitute(a1, {yn: const(y1)}), xn, x0, x1),
        _reference_integrate(substitute(a2, {xn: const(x0)}), yn, y0, y1),
    )
    if None in edges:
        return None
    boundary = edges[0] + edges[1] - edges[2] - edges[3]
    return evaluate(boundary, {}), evaluate(area, {}), abs(evaluate(boundary - area, {}))


def _random_coefficient(rng, names, parameters):
    """A sum of up to three terms: a rational times up to three factors, mostly
    coordinates, sometimes a parameter, a radical, sin(1), a negative or
    fractional power, or exp/sin of a coordinate."""
    u, v = var(names[0]), var(names[1])
    odd = [const(2) ** Fraction(1, 2), sin(const(1)), u ** -1, (u + v) ** -1,
           u ** Fraction(1, 2), exp(u), sin(v)] + [var(p) for p in parameters]
    total = ZERO
    for _ in range(rng.randint(1, 3)):
        term = const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])))
        for _ in range(rng.randint(0, 3)):
            term = term * (rng.choice(odd) if rng.random() < 0.2 else var(rng.choice(names)))
        total = total + term
    return total


class TestDegreeRuleMatchesSubstitution:
    def test_exponents_match_the_polynomial_reference(self):
        rng = random.Random(4241)
        nones = 0
        for _ in range(300):
            vs = VARSETS[rng.choice((2, 3))]
            parameters = ("p",) if rng.random() < 0.3 else ()
            for term in _terms(_random_coefficient(rng, vs.names, parameters)):
                split = _exponents(term, vs.names)
                polynomial = _reference_polynomial_in(term, set(vs.names))
                assert (split is not None) == polynomial, str(term)
                if split is None:
                    nones += 1
                    continue
                exponents, rest = split
                assert len(exponents) == vs.dimension
                assert free_variables(rest).isdisjoint(vs.names)
                powers = [var(name) ** k for name, k in zip(vs.names, exponents)]
                assert mul(rest, *powers) == term, str(term)
        assert 30 < nones < 270  # both kinds of answer are exercised

    def test_potentials_match_the_substitution_reference(self):
        rng = random.Random(4242)
        nones = 0
        for _ in range(300):
            vs = VARSETS[rng.choice((2, 3))]
            parameters = ("p",) if rng.random() < 0.3 else ()
            a = DifferentialForm.one_form(
                vs, [_random_coefficient(rng, vs.names, parameters) for _ in vs.names])
            got = reconstruct_potential(a)
            expected = _reference_potential(a)
            assert got == expected, str(a)
            assert str(got) == str(expected)
            nones += got is None
        assert 30 < nones < 270  # both kinds of answer are exercised

    def test_stokes_integrals_match_the_substitution_reference(self):
        rng = random.Random(4243)
        rects = ((0.0, 1.0, 0.0, 1.0), (-0.5, 1.5, 0.0, 2.0), (0.25, 0.75, -1.0, 0.5))
        exact = 0
        for _ in range(150):
            a1, a2 = (_random_coefficient(rng, V2.names, ()) for _ in range(2))
            a = DifferentialForm.one_form(V2, [a1, a2])
            integrand = differentiate(a2, "x") - differentiate(a1, "y")
            for corners in rects:
                rect = tuple(Fraction(c) for c in corners)
                expected = _reference_stokes_exact(a1, a2, integrand, "x", "y", rect)
                assert analysis._stokes_exact(a1, a2, integrand, "x", "y", rect) == expected
                if expected is not None:
                    exact += 1
                    result = stokes_check(a, corners)
                    assert [v.hex() for v in result] == [v.hex() for v in expected]
        assert 30 < exact < 420
