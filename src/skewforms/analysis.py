"""Classification engines for forms and relations.

Closed/exact verdicts with potential reconstruction, identical vs
nonidentical relations, Frobenius integrability, characteristic curves,
pseudostructure (degenerate-locus) detection, Stokes checks, and
the (p, k, n) classification table.  Potentials and exact Stokes
integrals read each term's exponents (i, j, ...) in the coordinates off
``expr._exponents`` and integrate it as x^i y^j ..., substituting nothing.

A characteristic curve runs as one RK4 loop generated for its phi from the
statements of ``expr._emit``; a pseudostructure scan reads grid-node
indices from each mask by one flat index scan, in np.argwhere's order.

Verdicts are three-valued throughout; "unknown" zero tests propagate and
are never coerced into a definite answer.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import FunctionType
from typing import Mapping, Sequence

from .expr import (
    Const,
    Expression,
    VariableSet,
    ZERO,
    compile_expression,
    differentiate,
    evaluate,
    mul,
    substitute,
    var,
    _SCALAR_HELPERS,
    _Record,
    _combine,
    _emit,
    _exponents,
    _function_code,
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
    "potential_at",
    "frobenius_test",
    "characteristic_curve",
    "find_pseudostructure",
    "jacobian_determinant",
    "stokes_check",
    "classification_table",
]

CRITICAL_GRADIENT_TOL = 1e-12
MAX_GRID_NODES = 10_000_000  # 201^3 fits; each scanned array holds this many floats
MAX_CURVE_STEPS = 1_000_000  # each returned curve point holds about 112 bytes
DEFAULT_STEPS = 10_000  # RK4 steps of a characteristic curve
DEFAULT_STEP = 1e-3  # RK4 step size
DEFAULT_TOL = 1e-6  # |K| bound of a pseudostructure point


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
    parts = []
    for (i,), ai in a.items():
        for term in _terms(ai):
            split = _exponents(term, names)
            if split is None:
                return None
            parts.append((Fraction(1, sum(split[0]) + 1), mul(var(a.vars.name_at(i)), term)))
    return _combine(parts)


def potential_at(a: DifferentialForm, point: Mapping[str, float]) -> float:
    """Numeric homotopy potential at a point (for non-polynomial closed forms),
    by the Gauss-Legendre rule of ``stokes_check``, summed with math.fsum."""
    if a.degree != 1:
        raise AnalysisError("potential evaluation needs a 1-form")
    names = a.vars.names
    xs = [float(point[name]) for name in names]
    terms = [(xs[i - 1], compile_expression(ai, names).scalar)
             for i in range(1, len(names) + 1)
             if (ai := a.coefficient((i,))) != ZERO]
    return math.fsum([w * xi * f(*[t * v for v in xs])
                      for t, w in _UNIT_RULE for xi, f in terms])


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
            residual = exterior_derivative(DifferentialForm.scalar(a.vars, potential)) - a
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
    residual = exterior_derivative(phi) - eta
    d_eta = exterior_derivative(eta)
    verdict = {"zero": "identical", "nonzero": "nonidentical",
               "unknown": "unknown"}[zero_verdict(residual, d_eta)]
    return Relation(phi, eta, verdict, residual, d_eta if eta.degree == 1 else None)


# --- integrability -------------------------------------------------------------


def _determinant(matrix: list[list[Expression]]) -> Expression:
    if len(matrix) == 1:
        return matrix[0][0]
    return _combine(((-1) ** j, mul(entry, _determinant([row[:j] + row[j + 1:] for row in matrix[1:]])))
                    for j, entry in enumerate(matrix[0]) if entry != ZERO)


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
    """
    xn, yn = names
    args = {xn: "_a0", yn: "_a1"}
    level_lines, (level,) = _emit([phi], args)
    field_lines, (phi_y, phi_x) = _emit([differentiate(phi, yn), differentiate(phi, xn)], args)

    def block(*lines: str) -> str:
        return "".join(f"            {line}\n" for line in lines)

    def stage(k: int, x: str, y: str) -> str:
        return block(f"_a0, _a1 = {x}, {y}", *field_lines, f"_k{k}x, _k{k}y = -({phi_y}), {phi_x}")

    source = ("def _rk4(_x, _y, _steps, _h):\n"
              "    _points, _levels = [], []\n"
              "    while True:\n"
              "        try:\n"
              + block("_a0, _a1 = _x, _y", *level_lines, f"_lv = {level}")
              + "        except (_DomainError, *_ARITH):\n"
              "            return _points, _levels\n"
              "        if not (_isfinite(_lv) and _isfinite(_x) and _isfinite(_y)):\n"
              "            return _points, _levels\n"
              "        _points.append((_x, _y))\n"
              "        _levels.append(_lv)\n"
              "        if len(_points) > _steps:\n"
              "            return _points, _levels\n"
              "        try:\n"
              + stage(1, "_x", "_y")
              + block(f"if _hypot(_k1x, _k1y) < {CRITICAL_GRADIENT_TOL!r}:",
                      "    return _points, _levels")
              + stage(2, "_x + 0.5 * _h * _k1x", "_y + 0.5 * _h * _k1y")
              + stage(3, "_x + 0.5 * _h * _k2x", "_y + 0.5 * _h * _k2y")
              + stage(4, "_x + _h * _k3x", "_y + _h * _k3y")
              + block("_x, _y = (_x + _h / 6.0 * (_k1x + 2 * _k2x + 2 * _k3x + _k4x),",
                      "          _y + _h / 6.0 * (_k1y + 2 * _k2y + 2 * _k3y + _k4y))")
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


def _bisect_edges(fn, lo: np.ndarray, hi: np.ndarray,
                  tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Bisect a compiled component along m grid edges with (n, m) end points
    lo and hi, each edge as a scalar bisection would: an end point where it
    is exactly 0 is the root; otherwise the end values must be finite and
    not of one sign, and the root is the first of at most 80 midpoints with
    |K| <= tol.  Only coordinates that differ along some edge move.  Returns
    the (n, k) roots and the indices of their edges, in edge order.
    """
    import numpy as np

    f_lo, f_hi = fn.array(*lo), fn.array(*hi)
    valid = np.isfinite(f_lo) & np.isfinite(f_hi)
    at_lo = valid & (f_lo == 0.0)
    at_hi = valid & (f_hi == 0.0) & ~at_lo
    edges = [np.flatnonzero(at_lo), np.flatnonzero(at_hi)]
    roots = [lo[:, at_lo], hi[:, at_hi]]
    live = np.flatnonzero(valid & ~at_lo & ~at_hi & ~(f_lo * f_hi > 0))
    moving = (lo != hi).any(axis=1)
    point, a, b, f_a = lo[:, live], lo[moving][:, live], hi[moving][:, live], f_lo[live]
    for _ in range(80):
        if not live.size:
            break
        mid = 0.5 * (a + b)
        point[moving] = mid
        f_mid = fn.array(*point)
        hit = np.abs(f_mid) <= tol
        edges.append(live[hit])
        roots.append(point[:, hit])
        left = f_a * f_mid < 0
        a, b = np.where(left, a, mid), np.where(left, mid, b)
        f_a = np.where(left, f_a, f_mid)
        keep = np.isfinite(f_mid) & ~hit
        live, point, a, b, f_a = live[keep], point[:, keep], a[:, keep], b[:, keep], f_a[keep]
    edges = np.concatenate(edges)
    order = np.argsort(edges, kind="stable")
    return np.concatenate(roots, axis=1)[:, order], edges[order]


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
    along that axis; the result is what a scan of the whole box gives.
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

    import numpy as np

    shape = tuple(grid)
    axes = [np.linspace(lo, hi, gv) for (lo, hi), gv in zip(box, grid)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    compiled = [compile_expression(c, a.vars.names) for c in comps]
    # each component on its own grid: size 1 along an axis it does not read,
    # so its sign changes are found, bisected and bounded once along that axis
    comp_values = [v.reshape(v.shape or (1,) * n) for v in (fn.array(*mesh) for fn in compiled)]

    def coords(nodes: np.ndarray) -> np.ndarray:
        """(n, m) coordinates of m grid nodes given by their (m, n) indices."""
        return np.stack([axes[d][nodes[:, d]] for d in range(n)])

    with np.errstate(all="ignore"):
        max_abs = np.zeros(np.broadcast_shapes(*(arr.shape for arr in comp_values)))
        for arr in comp_values:
            np.maximum(max_abs, np.abs(arr), out=max_abs)
        max_abs[np.isnan(max_abs)] = np.inf

        # grid hits, then sign-change edges refined per driving component;
        # each candidate is kept where every component is within tol
        found_nodes = [_nodes(np.broadcast_to(max_abs <= tol, shape))]
        found_roots = [coords(found_nodes[0])]
        for fn, arr in zip(compiled, comp_values):
            for axis in range(n):
                if arr.shape[axis] == 1:
                    continue  # constant along this axis: no sign change
                v = np.moveaxis(arr, axis, 0)
                flip = np.moveaxis(v[:-1] * v[1:] < 0, 0, axis)
                flips = _nodes(flip)
                hi_ends = flips + np.eye(n, dtype=np.intp)[axis]
                roots, edges = _bisect_edges(fn, coords(flips), coords(hi_ends), tol)
                # repeat each root on every edge of the box that broadcasts
                # onto its edge, in the C order of the box's edges
                edge_shape = shape[:axis] + (shape[axis] - 1,) + shape[axis + 1:]
                spread = np.indices([e if f == 1 else 1 for e, f in zip(edge_shape, flip.shape)])
                box_edges = (flips[edges][:, None] + spread.reshape(n, -1).T).reshape(-1, n)
                order = np.argsort(np.ravel_multi_index(box_edges.T, edge_shape), kind="stable")
                found_nodes.append(box_edges[order])
                found_roots.append(coords(found_nodes[-1]))
                found_roots[-1][axis] = roots[axis, order // spread[0].size]
        roots = np.concatenate(found_roots, axis=1)
        nodes = np.concatenate(found_nodes)
        on_locus = np.ones(len(nodes), dtype=bool)
        for fn in compiled:
            on_locus &= np.abs(fn.array(*roots)) <= tol

    accepted: dict[tuple[float, ...], int] = {}  # rounded point -> its first candidate
    for k in np.flatnonzero(on_locus).tolist():
        accepted.setdefault(tuple(round(v, 9) for v in roots[:, k].tolist()), k)

    hyperplane = _axis_zero_hyperplane(comm, box)
    restricted = None
    chart = None
    if hyperplane is not None:
        chart = _hyperplane_chart(a.vars, hyperplane[0])
        restricted = pullback(a, chart)

    if not accepted and hyperplane is None:
        locus = Locus("empty", "no structure realized")
        return StructureReport(locus, None, dual_residual, 0.0, None, comm)

    # intensity: the largest finite |K| on grid nodes adjacent to the locus,
    # on max_abs's grid, where a node has index 0 along an axis no component reads
    near = np.zeros(max_abs.shape, dtype=bool)
    locus_nodes = nodes[list(accepted.values())] * (np.array(max_abs.shape) > 1)
    for offsets in itertools.product((-1, 0, 1), repeat=n):
        neighbors = locus_nodes + offsets
        neighbors = neighbors[((neighbors >= 0) & (neighbors < max_abs.shape)).all(axis=1)]
        near[tuple(neighbors.T)] = True
    near &= np.isfinite(max_abs)
    intensity = float(max_abs[near].max()) if near.any() else 0.0

    points = sorted(accepted)
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
