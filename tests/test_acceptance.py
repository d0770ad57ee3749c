"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them; failures surface through the assertions themselves).
"""

import itertools
import random

from skewforms.expr import (
    VariableSet, ZERO, ONE, const, differentiate, evaluate, exp, sin, var,
)
from skewforms.forms import (
    DifferentialForm, exterior_derivative, wedge, zero_verdict,
)
from skewforms.duality import Metric, hodge_star
from skewforms.analysis import (
    characteristic_curve, classification_table, frobenius_test, stokes_check,
)
from skewforms.balance import BalanceSystem, build_relation, equilibrium_scan
from skewforms.dsl import DslError, parse, print_document

from conftest import VARSETS, random_form, random_point, random_polynomial
from test_dsl import random_document

x, y, z = var("x"), var("y"), var("z")
V2, V3 = VARSETS[2], VARSETS[3]


def report(number: int, text: str):
    print(f"PASS  criterion {number:2d}: {text}")


def gradient(f, vs):
    return DifferentialForm.one_form(vs, [differentiate(f, n) for n in vs.names])


def test_criterion_01_dd_is_zero_symbolically():
    """dd = 0 for 200 random polynomial forms per degree 0..n-1, n in 2..4."""
    rng = random.Random(101)
    checked = 0
    for n in (2, 3, 4):
        vs = VARSETS[n]
        for p in range(n):
            for _ in range(200):
                a = random_form(rng, vs, p)
                assert exterior_derivative(exterior_derivative(a)).is_structurally_zero()
                checked += 1
    assert checked == 200 * (2 + 3 + 4)
    report(1, f"dd = 0 symbolically on {checked} random forms, zero failures")


def test_criterion_02_graded_antisymmetry_and_leibniz():
    """wedge(a,b) = (-1)^pq wedge(b,a) and d(a^b) = da^b + (-1)^p a^db."""
    rng = random.Random(102)
    checked = 0
    for n in (2, 3, 4):
        vs = VARSETS[n]
        for _ in range(200):
            p = rng.randint(0, n - 1)
            q = rng.randint(0, n - 1)
            a = random_form(rng, vs, p)
            b = random_form(rng, vs, q)
            assert wedge(a, b) == const((-1) ** (p * q)) * wedge(b, a)
            lhs = exterior_derivative(wedge(a, b))
            rhs = (wedge(exterior_derivative(a), b)
                   + const((-1) ** p) * wedge(a, exterior_derivative(b)))
            assert lhs == rhs
            checked += 1
    report(2, f"graded antisymmetry and Leibniz rule on {checked} random pairs")


def test_criterion_03_planar_dual_example():
    """*(f_x dx + f_y dy) = -f_y dx + f_x dy exactly; dual closure tracks
    the zero test of the Laplacian."""
    g = Metric.euclidean(V2)
    for f in (x**2 - y**2, exp(x) * sin(y), x**3 * y + x * y, x**2):
        fx, fy = differentiate(f, "x"), differentiate(f, "y")
        theta = DifferentialForm.one_form(V2, [fx, fy])
        assert hodge_star(theta, g) == DifferentialForm.one_form(V2, [-fy, fx])
    for f, verdict in ((x**2 - y**2, "zero"), (exp(x) * sin(y), "zero"), (x**2, "nonzero")):
        assert zero_verdict(exterior_derivative(hodge_star(gradient(f, V2), g))) == verdict
    report(3, "planar dual reproduces -f_y dx + f_x dy; harmonic closure verdicts")


def test_criterion_04_cauchy_riemann_detection():
    """Both conditions hold for a conjugate pair; a +x perturbation of v
    flips exactly one of the two verdicts."""
    g = Metric.euclidean(V2)
    u, v = x**2 - y**2, -2 * x * y

    theta = DifferentialForm.one_form(V2, [u, v])
    before = (zero_verdict(exterior_derivative(theta)) == "zero",
              zero_verdict(exterior_derivative(hodge_star(theta, g))) == "zero")
    assert before == (True, True)

    perturbed = DifferentialForm.one_form(V2, [u, v + x])
    after = (zero_verdict(exterior_derivative(perturbed)) == "zero",
             zero_verdict(exterior_derivative(hodge_star(perturbed, g))) == "zero")
    flips = sum(b != a for b, a in zip(before, after))
    assert flips == 1
    assert after == (False, True)
    report(4, "Cauchy-Riemann pair closes both forms; perturbation flips exactly one")


def test_criterion_05_hodge_involution_sign():
    """**a = (-1)^{p(n-p)} * (signature product) * a for all p, n <= 4,
    Euclidean and one mixed signature."""
    rng = random.Random(105)
    checked = 0
    for n in (2, 3, 4):
        vs = VARSETS[n]
        for signature in ((1,) * n, (1,) * (n - 1) + (-1,)):
            g = Metric(vs, signature)
            s = g.signature_product()
            for p in range(n + 1):
                for _ in range(5):
                    a = random_form(rng, vs, p)
                    want = const(((-1) ** (p * (n - p))) * s) * a
                    assert hodge_star(hodge_star(a, g), g) == want
                    checked += 1
    report(5, f"Hodge involution sign verified on {checked} random forms")


def test_criterion_06_finite_difference_oracle():
    """Symbolic exterior-derivative coefficients match a central-difference
    cofactor assembly within 1e-6 relative at 50 random points per form."""
    rng = random.Random(106)
    h = 1e-5
    forms_checked = 0
    for n in (2, 3):
        vs = VARSETS[n]
        for p in range(n):
            for _ in range(3):
                a = random_form(rng, vs, p)
                da = exterior_derivative(a)
                for _ in range(50):
                    point = random_point(rng, vs.names)
                    for key in itertools.combinations(range(1, n + 1), p + 1):
                        fd = 0.0
                        for slot, j in enumerate(key):
                            rest = key[:slot] + key[slot + 1:]
                            coeff = a.coefficient(rest)
                            name = vs.name_at(j)
                            up = dict(point, **{name: point[name] + h})
                            dn = dict(point, **{name: point[name] - h})
                            fd += ((-1) ** slot
                                   * (evaluate(coeff, up) - evaluate(coeff, dn)) / (2 * h))
                        sym = evaluate(da.coefficient(key), point)
                        assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))
                forms_checked += 1
    report(6, f"finite-difference oracle on {forms_checked} forms x 50 points")


def test_criterion_07_stokes_identity():
    """|boundary - area| < 1e-8 for 20 random polynomial 1-forms on the
    unit square."""
    rng = random.Random(107)
    worst = 0.0
    for _ in range(20):
        a = random_form(rng, V2, 1)
        _, _, diff = stokes_check(a, (0.0, 1.0, 0.0, 1.0))
        worst = max(worst, diff)
        assert diff < 1e-8
    report(7, f"Stokes boundary vs area on 20 random 1-forms, worst |diff| = {worst:.2e}")


def test_criterion_08_characteristic_level_drift():
    """Level-set drift < 1e-6 over 10^4 RK4 steps, h = 1e-3."""
    cases = [(x + y, (1.0, 0.0)), (x**2 + y**2, (1.0, 0.0)), (x * y, (2.0, 0.5))]
    worst = 0.0
    for phi, start in cases:
        pts = characteristic_curve(phi, V2, start, steps=10_000, h=1e-3)
        assert len(pts) == 10_001
        target = evaluate(phi, dict(zip(V2.names, start)))
        drift = max(abs(evaluate(phi, {"x": px, "y": py}) - target) for px, py in pts)
        worst = max(worst, drift)
        assert drift < 1e-6
    report(8, f"characteristic curves stay on level sets, worst drift = {worst:.2e}")


def test_criterion_09_frobenius_integrability():
    """Contact form nonintegrable; every closed 1-form integrable."""
    contact = DifferentialForm.one_form(V3, [-y, ZERO, ONE])  # dz - y dx
    assert frobenius_test(contact) == "nonintegrable"
    rng = random.Random(109)
    closed_checked = 0
    for n in (3, 4):
        vs = VARSETS[n]
        for _ in range(25):
            f = random_polynomial(rng, vs.names)
            a = exterior_derivative(DifferentialForm.scalar(vs, f))
            assert frobenius_test(a) == "integrable"
            closed_checked += 1
    report(9, f"contact form nonintegrable; {closed_checked} closed forms integrable")


def test_criterion_10_balance_scan():
    """A = (xi2^2, xi1*xi2): locus xi2 = 0 with |K| < 1e-6 at every reported
    point; A = (xi2, xi1): identical with psi = xi1*xi2 and d(psi) = omega."""
    vs = VariableSet(["xi1", "xi2"])
    xi1, xi2 = var("xi1"), var("xi2")

    degenerate = build_relation(BalanceSystem(vs, (xi2**2, xi1 * xi2)))
    assert degenerate.verdict == "nonidentical"
    scan = equilibrium_scan(degenerate, [(-1.0, 1.0), (-1.0, 1.0)], 101)
    assert scan.structure.locus.hyperplane == ("xi2", 0.0)
    assert scan.structure.locus.points
    K = degenerate.commutator
    for p in scan.structure.locus.points:
        point = dict(zip(vs.names, p))
        assert all(abs(evaluate(c, point)) < 1e-6 for _, c in K.items())

    consistent = build_relation(BalanceSystem(vs, (xi2, xi1)))
    assert consistent.verdict == "identical"
    assert consistent.psi == xi1 * xi2
    rebuilt = exterior_derivative(DifferentialForm.scalar(vs, consistent.psi))
    assert rebuilt == consistent.omega
    report(10, "balance scan: locus xi2 = 0 with |K| < 1e-6; psi = xi1*xi2 verified")


def test_criterion_11_classification_table():
    """Pseudostructure dimensions follow n+1-k verbatim for p <= 3, n <= 4."""
    for p in range(4):
        for n in range(1, 5):
            rows = classification_table(p, n)
            assert rows == [(k, n + 1 - k) for k in range(p, -1, -1)]
    assert classification_table(1, 2) == [(1, 2), (0, 3)]
    assert classification_table(0, 3) == [(0, 4)]
    assert classification_table(3, 3) == [(3, 1), (2, 2), (1, 3), (0, 4)]
    report(11, "classification table matches n+1-k for all p <= 3, n <= 4")


def test_criterion_12_parser_round_trip_and_robustness():
    """parse(print(doc)) identity on 500 fuzzed documents; no abort on 10^5
    random byte strings; golden CLI outputs byte-stable."""
    rng = random.Random(112)
    for _ in range(500):
        doc = random_document(rng)
        text = print_document(doc)
        assert parse(text) == doc
        assert print_document(parse(text)) == text

    blob_rng = random.Random(0xB17E5)
    for _ in range(100_000):
        blob = bytes(blob_rng.randrange(256) for _ in range(blob_rng.randrange(0, 24)))
        try:
            parse(blob)
        except DslError:
            pass

    from test_cli import GOLDEN, GOLDEN_RUNS, run_cli
    for name, argv in sorted(GOLDEN_RUNS.items()):
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")
    report(12, "500 fuzzed round-trips, 100000 byte fuzz inputs, goldens byte-stable")
