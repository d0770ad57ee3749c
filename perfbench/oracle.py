"""References for the numeric workload, from sympy's reading of the
generated text: an evaluator independent of skewforms.

For each op this gives what its check needs: the scalar of a
characteristic curve, the commutator components of a scanned 1-form, or
the exact Stokes integral.  Expressions travel to the worker as Python
source over ``math`` so the worker never imports sympy.
"""

from __future__ import annotations

from fractions import Fraction

import sympy


def _sym(text: str, names):
    local = {n: sympy.Symbol(n) for n in names}
    local["ln"] = sympy.log
    return sympy.sympify(text.replace("^", "**"), locals=local, rational=True)


def _source(expr) -> str:
    return sympy.pycode(expr, fully_qualified_modules=True)


def _commutator(coeffs, names):
    xs = [sympy.Symbol(n) for n in names]
    a = [_sym(c, names) for c in coeffs]
    return [sympy.diff(a[j], xs[i]) - sympy.diff(a[i], xs[j])
            for i in range(len(xs)) for j in range(i + 1, len(xs))]


def numeric_refs(spec) -> dict:
    out = []
    for op in spec["ops"]:
        doc, names = op["doc"], spec["names"][op["doc"]]
        kind = op["kind"]
        if kind == "characteristics":
            out.append({"phi": _source(_sym(spec["scalars"][(doc, op["scalar"])], names))})
        elif kind in ("pseudostructure", "balance_scan"):
            key = (doc, op.get("form") or op.get("system"))
            out.append({"comps": [_source(k) for k in _commutator(spec["coefficients"][key], names)]})
        elif kind == "stokes":
            x, y = (sympy.Symbol(n) for n in names)
            a1, a2 = (_sym(c, names) for c in spec["coefficients"][(doc, op["form"])])
            x0, x1, y0, y1 = (sympy.Rational(Fraction(v)) for v in op["rect"])
            exact = sympy.integrate(sympy.diff(a2, x) - sympy.diff(a1, y), (x, x0, x1), (y, y0, y1))
            out.append({"exact": float(sympy.N(exact, 30))})
        else:
            out.append({})
    return {"ops": out}
