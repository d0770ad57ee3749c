"""Classification engines for forms and relations.

Closed/exact verdicts with potential reconstruction, identical vs
nonidentical relations, Frobenius integrability, characteristic curves,
pseudostructure (degenerate-locus) detection, Stokes checks, and
the (p, k, n) classification table.  Potentials and exact Stokes
integrals read each term's exponents (i, j, ...) in the coordinates off
``expr._exponents`` and integrate it as x^i y^j ..., substituting nothing.

A characteristic curve runs as one RK4 loop generated for its phi from the
statements of ``expr._emit``; a pseudostructure scan holds each commutator
component on its own grid, of size 1 along an axis it does not read, and
reads its grid hits, bisection end values and intensity from those values.  A
grid of at most SCALAR_SCAN_NODES nodes is scanned in scalar mode alone and
never imports numpy; a larger one in array mode, taking grid-node indices
from each mask by one flat index scan, in np.argwhere's order.

Verdicts are three-valued throughout; "unknown" zero tests propagate and
are never coerced into a definite answer.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import FunctionType
from typing import Sequence

from .expr import (
    Const,
    DomainError,
    Expression,
    VariableSet,
    ZERO,
    compile_expression,
    differentiate,
    evaluate,
    free_variables,
    mul,
    substitute,
    var,
    _SCALAR_HELPERS,
    _Record,
    _assemble,
    _combine,
    _emit,
    _exponents,
    _function_code,
    _sum_of_products,
    _terms,
)
from .forms import (
    DifferentialForm,
    Parameterization,
    commutator,
    exterior_derivative,
    pullback,
    wedge,
    zero_verdict,
    _derivative_minus,
)
from .duality import Metric, hodge_star

__all__ = [
    "AnalysisError",
    "ClosureVerdict",
    "Relation",
    "Locus",
    "StructureReport",
    "classify_closure",
    "classify_relation",
    "reconstruct_potential",
    "frobenius_test",
    "characteristic_curve",
    "find_pseudostructure",
    "jacobian_determinant",
    "stokes_check",
    "classification_table",
]

CRITICAL_GRADIENT_TOL = 1e-12
# 201^3 fits; a component that reads every coordinate holds this many floats
MAX_GRID_NODES = 10_000_000
# a scan of at most this many nodes runs in scalar mode alone and never imports numpy
SCALAR_SCAN_NODES = 4096
MAX_CURVE_STEPS = 1_000_000  # each returned curve point holds about 112 bytes
DEFAULT_STEPS = 10_000  # RK4 steps of a characteristic curve
DEFAULT_STEP = 1e-3  # RK4 step size
DEFAULT_TOL = 1e-6  # |K| bound of a pseudostructure point
_GATHER_BLOCK = 1024  # locus nodes per intensity gather: 1,024 x 27 x 3 int64 indices in 3-D, 0.66 MB


class AnalysisError(ValueError):
    """An analysis operation was called outside its preconditions."""


# --- closure and exactness ---------------------------------------------------


class ClosureVerdict(_Record):
    """closed is "closed", "unclosed" or "unknown", exact "exact", "inexact" or
    "unknown"; derivative is d(a), residual d(potential) - a once a potential is built."""

    __slots__ = __match_args__ = ("closed", "exact", "potential", "notes", "derivative", "residual")

    def __init__(self, closed: str, exact: str, potential: Expression | None = None, notes: str = "",
                 derivative: DifferentialForm | None = None, residual: DifferentialForm | None = None):
        self.closed, self.exact, self.potential, self.notes = closed, exact, potential, notes
        self.derivative, self.residual = derivative, residual


def reconstruct_potential(a: DifferentialForm) -> Expression | None:
    """Potential of a 1-form by homotopy integration from the origin.

    phi(x) = sum_i x_i * integral_0^1 a_i(t*x) dt, evaluated exactly for
    polynomial coefficients: a term of degree m in the coordinates scales
    as t^m, so it contributes x_i * term / (m + 1).  Valid on star-shaped
    domains about the origin.  Returns None when a coefficient is not
    polynomial.
    """
    if a.degree != 1:
        raise AnalysisError("potential reconstruction needs a 1-form")
    names = a.vars.names
    parts, scales = [], {}   # scales: 1/(m + 1) for a term of degree m, one Fraction per degree
    for (i,), ai in a.items():
        for term in _terms(ai):
            split = _exponents(term, names)
            if split is None:
                return None
            m = sum(split[0])
            parts.append((scales.get(m) or scales.setdefault(m, Fraction(1, m + 1)), mul(var(names[i - 1]), term)))
    return _combine(parts)


def classify_closure(a: DifferentialForm) -> ClosureVerdict:
    """Closed/exact verdicts; reconstructs potentials of exact 1-forms.

    The one exactness decision: a 1-form is exact when its reconstructed
    potential leaves a residual d(potential) - a certified zero.
    """
    derivative = exterior_derivative(a)
    closed = {"zero": "closed", "nonzero": "unclosed", "unknown": "unknown"}[zero_verdict(derivative)]
    notes: list[str] = []

    if closed == "unclosed":
        return ClosureVerdict(closed, "inexact", derivative=derivative)

    if a.degree == 0:
        v = zero_verdict(a)
        if v == "zero":
            return ClosureVerdict(closed, "exact", None, "zero 0-form", derivative)
        exact = "inexact" if v == "nonzero" else "unknown"
        return ClosureVerdict(closed, exact, None, "only the zero 0-form is exact", derivative)

    if a.degree == 1:
        potential = reconstruct_potential(a)
        if potential is not None:
            residual = _derivative_minus(DifferentialForm.scalar(a.vars, potential), a)
            if zero_verdict(residual) == "zero":
                if closed != "closed":
                    notes.append("closure certified via the reconstructed potential")
                notes.append("potential valid on star-shaped domains about the origin")
                return ClosureVerdict("closed", "exact", potential, "; ".join(notes),
                                      derivative, residual)
            notes.append("homotopy potential did not verify")
            return ClosureVerdict(closed, "unknown", None, "; ".join(notes), derivative, residual)
        if closed == "closed":
            notes.append("potential reconstruction needs polynomial coefficients")
        return ClosureVerdict(closed, "unknown", None, "; ".join(notes), derivative)

    if closed == "closed":
        notes.append("potential reconstruction implemented for 1-forms only")
    return ClosureVerdict(closed, "unknown", None, "; ".join(notes), derivative)


# --- relations ----------------------------------------------------------------


class Relation(_Record):
    """A relation d(phi) = eta with its verdict ("identical", "nonidentical" or
    "unknown"), the residual d(phi) - eta and, when eta is a 1-form, d(eta)."""

    __slots__ = __match_args__ = ("phi", "eta", "verdict", "residual", "eta_commutator")

    def __init__(self, phi: DifferentialForm, eta: DifferentialForm, verdict: str,
                 residual: DifferentialForm, eta_commutator: DifferentialForm | None):
        self.phi, self.eta, self.verdict = phi, eta, verdict
        self.residual, self.eta_commutator = residual, eta_commutator


def classify_relation(phi: DifferentialForm, eta: DifferentialForm) -> Relation:
    """Identical iff d(phi) - eta vanishes and eta is closed; nonidentical
    whenever either the residual or d(eta) has a nonzero coefficient."""
    expected = phi.degree + 1
    if eta.degree != expected:
        # a top-degree phi forces eta = 0; accept the clamped zero form there
        if not (expected > eta.vars.dimension and eta.is_structurally_zero()):
            raise AnalysisError(
                f"relation needs deg(eta) = deg(phi)+1, got {eta.degree} and {phi.degree}")
    residual = _derivative_minus(phi, eta)
    d_eta = exterior_derivative(eta)
    verdict = {"zero": "identical", "nonzero": "nonidentical",
               "unknown": "unknown"}[zero_verdict(residual, d_eta)]
    return Relation(phi, eta, verdict, residual, d_eta if eta.degree == 1 else None)


# --- integrability -------------------------------------------------------------


def _determinant(matrix: list[list[Expression]]) -> Expression:
    """The cofactor expansion along the first row, its signed products summed in one expansion."""
    if len(matrix) == 1:
        return matrix[0][0]
    return _assemble(_sum_of_products([((-1) ** j, (entry, _determinant([row[:j] + row[j + 1:] for row in matrix[1:]])))
                                       for j, entry in enumerate(matrix[0]) if entry != ZERO]))


def jacobian_determinant(exprs: Sequence[Expression],
                         variables: VariableSet) -> Expression:
    """Determinant of the Jacobian of a coordinate map.

    One of the degeneracy functionals: its zero locus is where the
    transformation degenerates (alongside commutator components and the
    Frobenius expression w ^ dw).
    """
    exprs = list(exprs)
    if len(exprs) != variables.dimension:
        raise AnalysisError("a square Jacobian needs one expression per coordinate")
    matrix = [[differentiate(e, name) for name in variables.names] for e in exprs]
    return _determinant(matrix)


def frobenius_test(a: DifferentialForm) -> str:
    """Integrability of the kernel distribution of a 1-form: w ^ dw = 0.

    Integral surfaces of an integrable 1-form are candidate pseudostructures.
    """
    if a.degree != 1:
        raise AnalysisError(f"frobenius test needs a 1-form, got degree {a.degree}")
    if a.vars.dimension < 3:
        raise AnalysisError("frobenius test needs dimension >= 3")
    v = zero_verdict(wedge(a, exterior_derivative(a)))
    return {"zero": "integrable", "nonzero": "nonintegrable", "unknown": "unknown"}[v]


# --- characteristic curves ------------------------------------------------------


def _rk4_kernel(phi: Expression, names: Sequence[str]) -> FunctionType:
    """Generate the RK4 loop of ``characteristic_curve`` for one phi.

    ``kernel(x, y, steps, h)`` returns the curve's points and phi at each,
    none where phi is not finite at the start.  Each stage computes the field
    (-phi_y, phi_x) inline, from one straight-line body, and no stage value is
    checked: one that is not finite stays so through the RK4 sum, and a point
    is appended only once it and phi there are finite.  The statements come
    from ``expr._emit``, as ``compile_expression`` emits them, so every value
    is the one that evaluating phi and its derivatives one call at a time gives.
    phi and its partials are emitted together; phi's own lines, up to phi's
    temporary, run in the level's ``try`` block, and stage 1 runs the rest,
    reusing phi's temporaries.  Stages 2-4 run the partials emitted alone.
    Stage 1 stops where hypot(phi_y, phi_x) < 1e-12, calling hypot only once both
    lie within that bound: the same test, as hypot is never below either of them.
    """
    xn, yn = names
    args = {xn: "_a0", yn: "_a1"}
    partials = [differentiate(phi, yn), differentiate(phi, xn)]
    lines, (level, phi_y, phi_x) = _emit([phi, *partials], args)
    cut = int(level[2:]) + 1 if level.startswith("_t") else 0  # phi's lines end at _t<k>
    field_lines, (field_y, field_x) = _emit(partials, args)
    tol = repr(CRITICAL_GRADIENT_TOL)

    def block(*lines: str) -> str:
        return "".join(f"            {line}\n" for line in lines)

    def stage(k: int, x: str, y: str) -> str:
        return block(f"_a0, _a1 = {x}, {y}", *field_lines, f"_k{k}x, _k{k}y = -({field_y}), {field_x}")

    source = ("def _rk4(_x, _y, _steps, _h):\n"
              "    _points, _levels = [], []\n"
              "    _add_point, _add_level, _n, _hh, _h6 = _points.append, _levels.append, 0, 0.5 * _h, _h / 6.0\n"
              "    while True:\n"
              "        try:\n"
              + block("_a0, _a1 = _x, _y", *lines[:cut], f"_lv = {level}")
              + "        except (_DomainError, *_ARITH):\n"
              "            return _points, _levels\n"
              "        if not (_isfinite(_lv) and _isfinite(_x) and _isfinite(_y)):\n"
              "            return _points, _levels\n"
              "        _add_point((_x, _y))\n"
              "        _add_level(_lv)\n"
              "        if (_n := _n + 1) > _steps:\n"
              "            return _points, _levels\n"
              "        try:\n"
              + block(*lines[cut:], f"_k1x, _k1y = -({phi_y}), {phi_x}",
                      f"if -{tol} < _k1x < {tol} and -{tol} < _k1y < {tol} and _hypot(_k1x, _k1y) < {tol}:",
                      "    return _points, _levels")
              + stage(2, "_x + _hh * _k1x", "_y + _hh * _k1y")
              + stage(3, "_x + _hh * _k2x", "_y + _hh * _k2y")
              + stage(4, "_x + _h * _k3x", "_y + _h * _k3y")
              + block("_x, _y = (_x + _h6 * (_k1x + 2.0 * _k2x + 2.0 * _k3x + _k4x),",
                      "          _y + _h6 * (_k1y + 2.0 * _k2y + 2.0 * _k3y + _k4y))")
              + "        except (_DomainError, *_ARITH):\n"
              "            return _points, _levels\n")
    return FunctionType(_function_code(source),
                        dict(_SCALAR_HELPERS, _hypot=math.hypot, _isfinite=math.isfinite))


def _curve_and_levels(phi: Expression, variables: VariableSet, start: Sequence[float],
                      steps: int, h: float) -> tuple[list[tuple[float, float]], list[float]]:
    """``characteristic_curve``'s points and the value of phi at each."""
    if variables.dimension != 2:
        raise AnalysisError("characteristic curves are computed in two dimensions")
    if len(start) != 2 or not all(math.isfinite(v) for v in start):
        raise AnalysisError("start point needs two finite coordinates x, y")
    if not 1 <= steps <= MAX_CURVE_STEPS:
        raise AnalysisError(f"step count must be between 1 and {MAX_CURVE_STEPS}")
    if not 0 < h < math.inf:
        raise AnalysisError("step size must be positive and finite")
    points, levels = _rk4_kernel(phi, variables.names)(float(start[0]), float(start[1]), steps, float(h))
    if not points:
        raise AnalysisError("phi is not finite at the start point")
    return points, levels


def characteristic_curve(phi: Expression, variables: VariableSet,
                         start: Sequence[float], steps: int = DEFAULT_STEPS,
                         h: float = DEFAULT_STEP) -> list[tuple[float, float]]:
    """Integrate the level-set direction field (-phi_y, phi_x) with RK4.

    Stops early (partial polyline) if the gradient magnitude drops below
    1e-12 or evaluation leaves the domain; every returned point is finite
    and admits a finite value of phi.  The loop is one function generated
    for phi (``_rk4_kernel``), with no call per field evaluation.
    """
    return _curve_and_levels(phi, variables, start, steps, h)[0]


# --- pseudostructure detection ---------------------------------------------------


class Locus(_Record):
    """kind is "empty", "whole_box", "hyperplane" or "points"."""

    __slots__ = __match_args__ = ("kind", "description", "hyperplane", "points")

    def __init__(self, kind: str, description: str, hyperplane: tuple[str, float] | None = None,
                 points: list[tuple[float, ...]] | None = None):
        self.kind, self.description, self.hyperplane = kind, description, hyperplane
        self.points = [] if points is None else points


class StructureReport(_Record):
    """Detected pseudostructure: where the components of ``commutator``,
    d(a) of the scanned 1-form, vanish."""

    __slots__ = __match_args__ = ("locus", "restricted_form", "dual_condition_residual",
                                  "intensity", "chart", "commutator")

    def __init__(self, locus: Locus, restricted_form: DifferentialForm | None,
                 dual_condition_residual: Expression, intensity: float,
                 chart: Parameterization | None = None, commutator: DifferentialForm | None = None):
        self.locus, self.restricted_form, self.intensity = locus, restricted_form, intensity
        self.dual_condition_residual, self.chart, self.commutator = dual_condition_residual, chart, commutator


def _axis_zero_hyperplane(comm: DifferentialForm, box) -> tuple[str, float] | None:
    """Check symbolically whether some coordinate hyperplane x_i = 0 inside
    the box lies in the common zero locus of all commutator components."""
    for name, (lo, hi) in zip(comm.vars.names, box):
        if not lo <= 0.0 <= hi:
            continue
        if zero_verdict(comm.map_coefficients(lambda c: substitute(c, {name: ZERO}))) == "zero":
            return name, 0.0
    return None


def _hyperplane_chart(variables: VariableSet, axis_name: str) -> Parameterization:
    params = VariableSet([n for n in variables.names if n != axis_name])
    coords = [ZERO if n == axis_name else var(n) for n in variables.names]
    return Parameterization(params, coords)


def _nodes(mask: np.ndarray) -> np.ndarray:
    """(m, n) indices of the m true entries of an n-D mask, in C order: what
    np.argwhere gives, from one flat index scan."""
    import numpy as np

    return np.stack(np.unravel_index(np.flatnonzero(mask), mask.shape), axis=1)


def _spread(nodes: np.ndarray, own: tuple, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Repeat (m, n) indices on a grid of shape own (1 along an axis it does not read) along those
    axes of shape, in C order (alike for any shape that bounds them), and give the row each repeats."""
    import numpy as np

    spread = np.indices([s if o == 1 else 1 for s, o in zip(shape, own)]).reshape(len(shape), -1).T
    out = (nodes[:, None] + spread).reshape(-1, len(shape))
    order = np.argsort(np.ravel_multi_index(out.T, shape), kind="stable")
    return out[order], order // len(spread)


def _bisect_edges(fn, point: np.ndarray, d: int, f_a: np.ndarray, b: np.ndarray,
                  tol: float) -> np.ndarray:
    """The scalar pass's ``bisect`` on m grid edges at once.  Edge k leaves column k of the
    (n, m) points along axis d, where the component holds the value f_a[k], for coordinate
    b[k], where it holds a finite value of the other sign.  Only row d of point moves, and
    is overwritten; the root is the first of at most 80 midpoints with |K| <= tol.
    Returns the root coordinate of each edge, NaN where none is found."""
    import numpy as np

    roots, live, a = np.full(len(f_a), np.nan), np.arange(len(f_a)), point[d].copy()
    for _ in range(80):
        if not live.size:
            break
        point[d] = mid = 0.5 * (a + b)
        f_mid = fn.array(*point)
        hit = np.abs(f_mid) <= tol
        roots[live[hit]] = mid[hit]
        left = f_a * f_mid < 0
        a, b, f_a = np.where(left, a, mid), np.where(left, mid, b), np.where(left, f_a, f_mid)
        keep = ~np.isnan(f_mid) & ~hit
        live, point, a, b, f_a = live[keep], point[:, keep], a[keep], b[keep], f_a[keep]
    return roots


def _array_scan(comps: Sequence[Expression], names: Sequence[str], box, shape: tuple,
                tol: float) -> tuple[list[tuple[float, ...]], float]:
    """The node pass of ``find_pseudostructure`` in array mode: the sorted locus points,
    rounded to 9 digits, and the intensity (``_intensity``)."""
    import numpy as np

    n = len(shape)
    axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(box, shape)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    compiled = [compile_expression(c, names) for c in comps]
    # each component on its own grid: size 1 along an axis it does not read,
    # so its sign changes are found, bisected and bounded once along that axis
    comp_values = [v.reshape(v.shape or (1,) * n) for v in (fn.array(*mesh) for fn in compiled)]

    def coords(nodes: np.ndarray) -> np.ndarray:
        """(n, m) coordinates of m grid nodes given by their (m, n) indices."""
        return np.stack([axes[d][nodes[:, d]] for d in range(n)])

    def on_locus(fns, points: np.ndarray) -> np.ndarray:  # where every one of fns is within tol
        keep = np.ones(points.shape[1], dtype=bool)
        for fn in fns:
            keep &= np.abs(fn.array(*points)) <= tol
        return keep

    with np.errstate(all="ignore"):
        # grid hits, decided by the own-grid values: the own-grid hits of the component
        # that hits the fewest box nodes, spread over the box where every component is within tol
        masks = [np.abs(arr) <= tol for arr in comp_values]
        fewest = min(masks, key=lambda mask: np.count_nonzero(mask) / mask.size)
        hits = _spread(_nodes(fewest), fewest.shape, shape)[0]
        for mask in masks:
            hits = hits[np.broadcast_to(mask, shape)[tuple(hits.T)]]
        found_nodes, found_roots = [hits], [coords(hits)]
        # then the sign-change edges of each own grid, each bisected once from its held values;
        # a root is checked against the other components: once, before it is spread, against
        # the fixed ones, which read only axes its own component reads, and at each box edge
        # against the rest
        for fn, arr in zip(compiled, comp_values):
            others = [(o, all(m <= s for m, s in zip(v.shape, arr.shape)))
                      for o, v in zip(compiled, comp_values) if o is not fn]
            fixed, varying = [o for o, f in others if f], [o for o, f in others if not f]
            for axis in range(n):
                if arr.shape[axis] == 1:
                    continue  # constant along this axis: no sign change
                v = np.moveaxis(arr, axis, 0)
                flip = np.moveaxis(v[:-1] * v[1:] < 0, 0, axis)
                flips = _nodes(flip)
                roots = coords(flips)
                roots[axis] = _bisect_edges(fn, roots.copy(), axis, arr[tuple(flips.T)],
                                            axes[axis][flips[:, axis] + 1], tol)
                found = np.flatnonzero(~np.isnan(roots[axis]))
                found = found[on_locus(fixed, roots[:, found])]
                # repeat each root on every edge of the box that broadcasts onto its edge
                box_edges, source = _spread(flips[found], flip.shape, shape)
                box_roots = coords(box_edges)
                box_roots[axis] = roots[axis, found[source]]
                keep = on_locus(varying, box_roots)
                found_nodes.append(box_edges[keep])
                found_roots.append(box_roots[:, keep])
    nodes = np.concatenate(found_nodes)

    accepted: dict[tuple[float, ...], int] = {}  # rounded point -> its first candidate
    for k, point in enumerate(np.concatenate(found_roots, axis=1).T.tolist()):
        accepted.setdefault(tuple(round(v, 9) for v in point), k)

    return sorted(accepted), _intensity(comp_values, nodes[list(accepted.values())], shape)


def _intensity(comp_values: Sequence[np.ndarray], nodes: np.ndarray, shape: tuple) -> float:
    """The largest |K| on grid nodes next to the (m, n) locus nodes where every component is
    finite, each read on its own grid (index 0 along an axis it does not read).  The 3^n
    neighbours of each block of at most _GATHER_BLOCK nodes are read in one gather."""
    import numpy as np

    n, intensity = len(shape), 0.0
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
    for start in range(0, len(nodes), _GATHER_BLOCK):
        near = (nodes[start:start + _GATHER_BLOCK, None] + offsets).reshape(-1, n)
        near = near[((near >= 0) & (near < shape)).all(axis=1)]
        k = np.abs([np.broadcast_to(arr, shape)[tuple(near.T)] for arr in comp_values])
        intensity = max(intensity, float(k[:, np.isfinite(k).all(axis=0)].max(initial=0.0)))
    return intensity


def _linspace(lo: float, hi: float, m: int) -> list[float]:
    """The m nodes of np.linspace(lo, hi, m), bit for bit."""
    step = (hi - lo) / (m - 1)
    return [i * step + lo if step else i / (m - 1) * (hi - lo) + lo for i in range(m - 1)] + [hi]


def _scalar_scan(comps: Sequence[Expression], names: Sequence[str], box, shape: tuple,
                 tol: float) -> tuple[list[tuple[float, ...]], float]:
    """``_array_scan`` in scalar mode alone, with NaN where scalar mode raises: the same
    candidates in the same order, each component on its own grid, and each edge bisected
    from its held end value by ``bisect``, the scalar twin of ``_bisect_edges``."""
    axes = [_linspace(lo, hi, m) for (lo, hi), m in zip(box, shape)]
    compiled = [compile_expression(c, names) for c in comps]
    owns = [tuple(m if name in free_variables(c) else 1 for name, m in zip(names, shape)) for c in comps]

    def value(fn, point) -> float:
        try:
            return fn.scalar(*point)
        except DomainError:
            return math.nan

    def at(node) -> list[float]:
        return [axes[d][i] for d, i in enumerate(node)]

    def k(c: int, node) -> float:  # component c at a box node, read on its own grid
        return own_values[c][tuple(i if m > 1 else 0 for i, m in zip(node, owns[c]))]

    def spread(node, own):  # the box nodes that a node of an own grid stands for, in C order
        return itertools.product(*[(i,) if m > 1 else range(s) for i, m, s in zip(node, own, shape)])

    def bisect(fn, point: list[float], d: int, f_a: float, b: float) -> float | None:  # sets point[d]
        a = point[d]
        for _ in range(80):
            point[d] = mid = 0.5 * (a + b)
            f_mid = value(fn, point)
            if abs(f_mid) <= tol:
                return mid
            if math.isnan(f_mid):
                return None
            a, b, f_a = (a, mid, f_a) if f_a * f_mid < 0 else (mid, b, f_mid)
        return None

    # each component on its own grid, in C order: index 0 along an axis it does not read
    own_values = [dict(zip(itertools.product(*map(range, own)), (value(fn, point) for point in
                           itertools.product(*[axis[:m] for axis, m in zip(axes, own)]))))
                  for fn, own in zip(compiled, owns)]
    # grid hits, decided by the own-grid values of the component that hits the fewest box nodes
    own_hits = [[node for node, v in values.items() if abs(v) <= tol] for values in own_values]
    fewest = min(range(len(comps)), key=lambda c: len(own_hits[c]) / len(own_values[c]))
    accepted: dict[tuple[float, ...], tuple[int, ...]] = {}  # rounded point -> its first candidate
    for node in sorted(node for own_node in own_hits[fewest] for node in spread(own_node, owns[fewest])
                       if all(abs(k(c, node)) <= tol for c in range(len(comps)))):
        accepted.setdefault(tuple(round(v, 9) for v in at(node)), node)
    # then the sign-change edges of each own grid, bisected and checked as in ``_array_scan``
    for fn, own, values in zip(compiled, owns, own_values):
        others = [(o, all(m <= s for m, s in zip(o_own, own)))
                  for o, o_own in zip(compiled, owns) if o is not fn]
        fixed, varying = [o for o, f in others if f], [o for o, f in others if not f]
        flat = list(values.values())
        for d in [d for d, m in enumerate(own) if m > 1]:
            edges, stride = [], math.prod(own[d + 1:])
            for j, (own_node, f_a) in enumerate(values.items()):
                if own_node[d] + 1 < own[d] and f_a * flat[j + stride] < 0:
                    point = at(own_node)
                    root = bisect(fn, point, d, f_a, axes[d][own_node[d] + 1])
                    if root is not None and all(abs(value(o, point)) <= tol for o in fixed):
                        edges += [(node, root) for node in spread(own_node, own)]
            for node, root in sorted(edges):
                point = at(node)
                point[d] = root
                if all(abs(value(o, point)) <= tol for o in varying):
                    accepted.setdefault(tuple(round(v, 9) for v in point), node)
    near = {tuple(i + o for i, o in zip(node, offsets)) for node in accepted.values()
            for offsets in itertools.product((-1, 0, 1), repeat=len(shape))}
    ks = [[abs(k(c, node)) for c in range(len(comps))] for node in near
          if all(0 <= i < s for i, s in zip(node, shape))]
    return sorted(accepted), max((max(row) for row in ks if all(map(math.isfinite, row))), default=0.0)


def find_pseudostructure(a: DifferentialForm, g: Metric, box, grid,
                         tol: float = DEFAULT_TOL) -> StructureReport:
    """Locate the zero locus of the commutator of a 1-form in a box.

    Symbolic pass: coordinate hyperplanes x_i = 0 are tested exactly and, on
    success, the form is pulled back onto the hyperplane.  Numeric pass:
    grid scan for direct hits and sign changes with bisection refinement;
    reported points satisfy |K| <= tol for every component.  Intensity is
    the largest commutator magnitude on grid nodes adjacent to the locus.
    Each component is scanned, bisected and bounded on its own grid, of
    size 1 along an axis it does not read, and its roots are then repeated
    along that axis.  Those values decide the grid hits, start each
    bisection and give the intensity, so a component is evaluated again
    only at its midpoints and at the roots of the others.  The result is
    what a scan of the whole box gives.

    A grid of at most SCALAR_SCAN_NODES nodes is scanned in scalar mode
    alone: every value the scan decides on or reports comes from
    ``CompiledExpression.scalar`` (libm and fsum), so the output does not
    depend on numpy, which it never imports.  A larger grid runs the same
    pass in array mode, whose sums and functions may round otherwise: where
    K is exactly 0 at a node, the two modes can give it opposite tiny signs
    and so bisect different edges next to it.
    """
    if a.degree != 1:
        raise AnalysisError("pseudostructure detection needs a 1-form")
    n = a.vars.dimension
    if n not in (2, 3):
        raise AnalysisError("pseudostructure detection supports dimensions 2 and 3")
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != n:
        raise AnalysisError(f"box must give {n} coordinate ranges")
    if not all(lo < hi and math.isfinite(hi - lo) for lo, hi in box):
        raise AnalysisError("box ranges must satisfy lo < hi with a finite width")
    if isinstance(grid, int):
        grid = [grid] * n
    grid = [int(gv) for gv in grid]
    if len(grid) != n or any(gv < 3 for gv in grid):
        raise AnalysisError("grid needs at least 3 nodes per axis")
    if math.prod(grid) > MAX_GRID_NODES:
        raise AnalysisError(f"grid needs at most {MAX_GRID_NODES} nodes in all")
    if not 0 < tol < math.inf:
        raise AnalysisError("tolerance must be positive and finite")

    comm = commutator(a)
    dual_derivative = exterior_derivative(hodge_star(a, g))
    top_key = tuple(range(1, n + 1))
    dual_residual = dual_derivative.coefficient(top_key)

    if zero_verdict(comm) == "zero":
        locus = Locus("whole_box", "entire box (form closed everywhere)")
        return StructureReport(locus, a, dual_residual, 0.0, None, comm)

    comps = [c for _, c in comm.items()]
    if any(isinstance(c, Const) and abs(c.value) > tol for c in comps):
        # this component vanishes nowhere, so neither can the commutator
        locus = Locus("empty", "no structure realized")
        return StructureReport(locus, None, dual_residual, 0.0, None, comm)

    scan = _scalar_scan if math.prod(grid) <= SCALAR_SCAN_NODES else _array_scan
    points, intensity = scan(comps, a.vars.names, box, tuple(grid), tol)

    hyperplane = _axis_zero_hyperplane(comm, box)
    restricted = None
    chart = None
    if hyperplane is not None:
        chart = _hyperplane_chart(a.vars, hyperplane[0])
        restricted = pullback(a, chart)

    if not points and hyperplane is None:
        locus = Locus("empty", "no structure realized")
        return StructureReport(locus, None, dual_residual, 0.0, None, comm)

    if hyperplane is not None:
        name, value = hyperplane
        locus = Locus("hyperplane", f"{name} = {value:g} (hyperplane)", hyperplane, points)
    else:
        locus = Locus("points", f"point cloud ({len(points)} points)", None, points)
    return StructureReport(locus, restricted, dual_residual, intensity, chart, comm)


# --- integral checks ---------------------------------------------------------


# The 16-node Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.leggauss(16)
# gives it, written out so that quadrature does not depend on the installed numpy.
_GAUSS_NODES = (
    -0.98940093499164994, -0.9445750230732326, -0.86563120238783176, -0.755404408355003,
    -0.61787624440264377, -0.45801677765722737, -0.28160355077925892, -0.095012509837637441,
    0.095012509837637441, 0.28160355077925892, 0.45801677765722737, 0.61787624440264377,
    0.755404408355003, 0.86563120238783176, 0.9445750230732326, 0.98940093499164994,
)
_GAUSS_WEIGHTS = (
    0.027152459411754176, 0.062253523938647456, 0.095158511682492605, 0.12462897125553407,
    0.14959598881657671, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.14959598881657671,
    0.12462897125553407, 0.095158511682492605, 0.062253523938647456, 0.027152459411754176,
)
_PANELS = 4  # 4 panels x 16 nodes = 64 nodes per edge
# the composite rule on [0, 1]: (node, weight) pairs of all panels
_UNIT_RULE = tuple(((p + 0.5 + 0.5 * node) / _PANELS, 0.5 * weight / _PANELS)
                   for p in range(_PANELS)
                   for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS))


def _gauss_1d(f, lo: float, hi: float) -> float:
    """Composite Gauss-Legendre quadrature on [lo, hi], summed with math.fsum."""
    width = hi - lo
    return math.fsum([weight * f(lo + width * t) for t, weight in _UNIT_RULE]) * width


def _stokes_exact(a1: Expression, a2: Expression, integrand: Expression, xn: str, yn: str,
                  rect: tuple[Fraction, ...]) -> tuple[float, float, float] | None:
    """Exact boundary and area integrals; None where a term of a1, a2 or the
    integrand is not polynomial in (x, y).  With M(lo, hi, k) the integral of
    t^k over [lo, hi], a term x^i y^j rest contributes rest*(y0^j - y1^j)*M_x(i)
    to the boundary from a1, rest*(x1^i - x0^i)*M_y(j) from a2, and
    rest*M_x(i)*M_y(j) to the area."""
    x0, x1, y0, y1 = rect
    splits = [[_exponents(term, (xn, yn)) for term in _terms(e)] for e in (a1, a2, integrand)]
    if any(None in terms for terms in splits):
        return None
    a1_terms, a2_terms, curl_terms = splits

    def m(lo: Fraction, hi: Fraction, k: int) -> Fraction:
        return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)

    boundary = _combine([*(((y0 ** j - y1 ** j) * m(x0, x1, i), rest) for (i, j), rest in a1_terms),
                         *(((x1 ** i - x0 ** i) * m(y0, y1, j), rest) for (i, j), rest in a2_terms)])
    area = _combine((m(x0, x1, i) * m(y0, y1, j), rest) for (i, j), rest in curl_terms)
    difference = evaluate(boundary - area, {})
    return evaluate(boundary, {}), evaluate(area, {}), abs(difference)


def stokes_check(a: DifferentialForm, rect) -> tuple[float, float, float]:
    """Boundary line integral vs area integral of d(a) on a rectangle.

    Returns (boundary, area, |difference|); counterclockwise orientation.
    Coefficients and a curl polynomial in the coordinates are integrated
    exactly, with the rectangle's corners read as the exact rationals their
    floats stand for.  Each integral is rounded to float once (correctly,
    when it is rational), and the difference is formed before rounding, so
    it is exactly 0.0 whenever Stokes' theorem holds.  Other coefficients
    fall back to composite Gauss-Legendre quadrature: four 16-node panels
    per edge and per axis of the area, summed with math.fsum.
    """
    if a.degree != 1 or a.vars.dimension != 2:
        raise AnalysisError("stokes check needs a 1-form in two dimensions")
    rect = [float(v) for v in rect]
    if len(rect) != 4:
        raise AnalysisError("rectangle needs four numbers x0, x1, y0, y1")
    x0, x1, y0, y1 = rect
    if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
        raise AnalysisError("rectangle corners must be finite")
    if not (x0 < x1 and y0 < y1):
        raise AnalysisError("rectangle must satisfy x0 < x1 and y0 < y1")
    xn, yn = a.vars.names
    a1 = a.coefficient((1,))
    a2 = a.coefficient((2,))
    integrand = differentiate(a2, xn) - differentiate(a1, yn)

    exact = _stokes_exact(a1, a2, integrand, xn, yn,
                          tuple(Fraction(v) for v in (x0, x1, y0, y1)))
    if exact is not None:
        return exact

    f1, f2, curl = (compile_expression(e, a.vars.names).scalar for e in (a1, a2, integrand))
    boundary = math.fsum((
        _gauss_1d(lambda x: f1(x, y0), x0, x1),
        _gauss_1d(lambda y: f2(x1, y), y0, y1),
        -_gauss_1d(lambda x: f1(x, y1), x0, x1),
        -_gauss_1d(lambda y: f2(x0, y), y0, y1),
    ))
    area = _gauss_1d(lambda x: _gauss_1d(lambda y: curl(x, y), y0, y1), x0, x1)
    return boundary, area, abs(boundary - area)


# --- classification table ------------------------------------------------------


def classification_table(p: int, n: int) -> list[tuple[int, int]]:
    """Rows (k, pseudostructure dimension n+1-k) for k = p down to 0.

    The dimension is reported verbatim even where it exceeds n.
    """
    if not 0 <= p <= 3:
        raise AnalysisError("the form degree p must be between 0 and 3")
    if n < 1:
        raise AnalysisError("the space dimension n must be at least 1")
    return [(k, n + 1 - k) for k in range(p, -1, -1)]
