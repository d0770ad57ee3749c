"""Cross-checks against an independent CAS (sympy), when available.

sympy is not a runtime dependency of the package, only of its ``test``
extra; these tests exercise the same quantities through a completely
separate code path and skip silently where sympy is absent.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from skewforms.expr import evaluate, to_text, var
from skewforms.forms import DifferentialForm, commutator, exterior_derivative
from skewforms.analysis import reconstruct_potential, stokes_check

from conftest import VARSETS, random_form, random_polynomial

V2 = VARSETS[2]
V3 = VARSETS[3]


def to_sympy(e):
    """Parse the canonical text with sympy: an independent reading."""
    return sympy.sympify(to_text(e).replace("^", "**"), rational=True)


class TestAgainstSympy:
    def test_commutator_components(self):
        rng = random.Random(31)
        xs = sympy.symbols("x y z")
        for _ in range(20):
            w = random_form(rng, V3, 1)
            K = commutator(w)
            a = [to_sympy(w.coefficient((i,))) for i in (1, 2, 3)]
            for i, j in ((1, 2), (1, 3), (2, 3)):
                comp = K.coefficient((i, j))
                want = sympy.diff(a[j - 1], xs[i - 1]) - sympy.diff(a[i - 1], xs[j - 1])
                assert sympy.simplify(to_sympy(comp) - want) == 0

    def test_exterior_derivative_two_form(self):
        rng = random.Random(32)
        xs = sympy.symbols("x y z")
        for _ in range(15):
            w = random_form(rng, V3, 2)
            dw = exterior_derivative(w)
            c12 = to_sympy(w.coefficient((1, 2)))
            c13 = to_sympy(w.coefficient((1, 3)))
            c23 = to_sympy(w.coefficient((2, 3)))
            want = (sympy.diff(c23, xs[0]) - sympy.diff(c13, xs[1])
                    + sympy.diff(c12, xs[2]))
            assert sympy.simplify(to_sympy(dw.coefficient((1, 2, 3))) - want) == 0

    def test_potential_against_sympy_gradient(self):
        rng = random.Random(33)
        xs = sympy.symbols("x y")
        for _ in range(15):
            f = random_polynomial(rng, ("x", "y"))
            from skewforms.expr import differentiate
            a = DifferentialForm.one_form(
                V2, [differentiate(f, "x"), differentiate(f, "y")])
            pot = reconstruct_potential(a)
            assert pot is not None
            sym_pot = to_sympy(pot)
            sym_f = to_sympy(f)
            # potentials agree up to the constant fixed by phi(0) = 0
            diff = sympy.simplify(sym_pot - (sym_f - sym_f.subs({s: 0 for s in xs})))
            assert diff == 0

    def test_stokes_against_sympy_exact_integrals(self):
        rng = random.Random(34)
        xs, ys = sympy.symbols("x y")
        for _ in range(5):
            a = random_form(rng, V2, 1)
            boundary, area, _ = stokes_check(a, (0.0, 1.0, 0.0, 1.0))
            a1 = to_sympy(a.coefficient((1,)))
            a2 = to_sympy(a.coefficient((2,)))
            integrand = sympy.diff(a2, xs) - sympy.diff(a1, ys)
            exact = sympy.integrate(sympy.integrate(integrand, (xs, 0, 1)), (ys, 0, 1))
            assert abs(area - float(exact)) < 1e-10
            assert abs(boundary - float(exact)) < 1e-10

    def test_canonical_text_evaluates_identically(self):
        """sympy's reading of the printed text matches our evaluation."""
        rng = random.Random(35)
        for _ in range(25):
            e = random_polynomial(rng, ("x", "y"))
            s = to_sympy(e)
            for _ in range(5):
                px, py = rng.uniform(-2, 2), rng.uniform(-2, 2)
                ours = evaluate(e, {"x": px, "y": py})
                theirs = float(s.subs({"x": px, "y": py}))
                assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-12)
