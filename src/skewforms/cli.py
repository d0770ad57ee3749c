"""Command-line front end: every analysis wired to ``.forms`` files.

Output is human-readable text by default or JSON-lines with
``--format jsonl`` (one self-describing record per result).  Exit codes:
0 on success, 1 when ``--strict`` is set and any verdict is "unknown",
2 on input or usage errors (reported without a stack trace).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .expr import Expression, to_text, compile_expression, DomainError
from .forms import DifferentialForm, FormError, exterior_derivative, form_to_text, wedge
from .duality import Metric, hodge_star
from .analysis import (
    DEFAULT_STEP,
    DEFAULT_STEPS,
    DEFAULT_TOL,
    AnalysisError,
    characteristic_curve,
    classification_table,
    classify_closure,
    classify_relation,
    find_pseudostructure,
    frobenius_test,
    stokes_check,
)
from .balance import build_relation, equilibrium_scan
from .dsl import Document, DslError, FormDecl, ScalarDecl, parse

__all__ = ["main"]

DEFAULT_GRID = 101


class InputError(Exception):
    """User-facing error: bad file, name or option (exit code 2)."""


class Reporter:
    """Collects result lines in text or JSON-lines format."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.saw_unknown = False

    def note_verdicts(self, *verdicts):
        for v in verdicts:
            if isinstance(v, str) and "unknown" in v:
                self.saw_unknown = True

    def emit(self, text_line: str, record: dict):
        if self.fmt == "jsonl":
            print(json.dumps(record, sort_keys=True))
        else:
            print(text_line)


def _fmt_float(v: float) -> str:
    return f"{v:.12g}"


def _load(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror or err}") from None
    try:
        return parse(text)
    except DslError as err:
        raise InputError(f"{path}: {err}") from None


def _select_forms(doc: Document, name: str | None, *, degree: int | None = None):
    """Named form (or scalar as 0-form), or all declared forms by default."""
    if name is not None:
        decl = doc.find(name)
        if decl is None:
            raise InputError(f"no declaration named {name!r}")
        if isinstance(decl, ScalarDecl):
            return [(name, DifferentialForm.scalar(doc.vars, decl.expr))]
        if not isinstance(decl, FormDecl):
            raise InputError(f"{name!r} is not a form")
        return [(name, decl.form)]
    out = [(d.name, d.form) for d in doc.forms()]
    if degree is not None:
        out = [(n, f) for n, f in out if f.degree == degree]
    if not out:
        raise InputError("no matching form declarations in the document")
    return out


def _metric(doc: Document) -> Metric:
    return doc.metric if doc.metric is not None else Metric.euclidean(doc.vars)


def _scalar_expr(doc: Document, name: str) -> Expression:
    decl = doc.find(name)
    if decl is None or not isinstance(decl, ScalarDecl):
        raise InputError(f"no scalar named {name!r}")
    return decl.expr


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"cannot parse {what}: {text!r}") from None


def _parse_box(text: str | None, dimension: int) -> list[tuple[float, float]]:
    """Ranges lo:hi per axis; [-1, 1] on every axis by default."""
    if not text:
        return [(-1.0, 1.0)] * dimension
    out = []
    for chunk in text.split(","):
        pieces = chunk.split(":")
        if len(pieces) != 2:
            raise InputError(f"box ranges look like lo:hi, got {chunk!r}")
        try:
            out.append((float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise InputError(f"cannot parse box range {chunk!r}") from None
    return out


def _select(decls: list, name: str | None, kind: str) -> list:
    """The declarations of one kind: the one named, or all of them."""
    if name is not None:
        decls = [d for d in decls if d.name == name]
        if not decls:
            raise InputError(f"no {kind} named {name!r}")
    if not decls:
        raise InputError(f"no {kind} declarations in the document")
    return decls


# --- subcommand handlers ---------------------------------------------------------


def _cmd_d(args, rep: Reporter):
    doc = _load(args.file)
    for name, form in _select_forms(doc, args.name):
        result = exterior_derivative(form)
        rep.emit(f"d({name}) = {form_to_text(result)}",
                 {"kind": "d", "name": name, "result": form_to_text(result)})


def _cmd_wedge(args, rep: Reporter):
    doc = _load(args.file)
    (ln, left), = _select_forms(doc, args.left)
    (rn, right), = _select_forms(doc, args.right)
    result = wedge(left, right)
    rep.emit(f"{ln} ^ {rn} = {form_to_text(result)}",
             {"kind": "wedge", "left": ln, "right": rn, "result": form_to_text(result)})


def _cmd_star(args, rep: Reporter):
    doc = _load(args.file)
    g = _metric(doc)
    for name, form in _select_forms(doc, args.name):
        result = hodge_star(form, g)
        rep.emit(f"*({name}) = {form_to_text(result)}",
                 {"kind": "star", "name": name, "result": form_to_text(result)})


def _cmd_classify(args, rep: Reporter):
    doc = _load(args.file)
    for name, form in _select_forms(doc, args.name):
        verdict = classify_closure(form)
        rep.note_verdicts(verdict.closed, verdict.exact)
        pieces = [verdict.closed, verdict.exact]
        if verdict.potential is not None:
            pieces.append(f"potential = {to_text(verdict.potential)}")
        line = f"{name}: " + ", ".join(pieces)
        if verdict.notes:
            line += f"  [{verdict.notes}]"
        rep.emit(line, {"kind": "classify", "name": name, "closed": verdict.closed,
                        "exact": verdict.exact,
                        "potential": to_text(verdict.potential) if verdict.potential else None,
                        "notes": verdict.notes})


def _commutator_json(comm: DifferentialForm) -> dict:
    """K_ab of a commutator 2-form for every pair a < b, zeros included."""
    pairs = itertools.combinations(range(1, comm.vars.dimension + 1), 2)
    return {f"{comm.vars.name_at(a)},{comm.vars.name_at(b)}": to_text(comm.coefficient((a, b)))
            for a, b in pairs}


def _cmd_relation(args, rep: Reporter):
    doc = _load(args.file)
    for decl in _select(doc.relations(), args.name, "relation"):
        rel = classify_relation(decl.phi, decl.eta)
        rep.note_verdicts(rel.verdict)
        detail = []
        if rel.eta_commutator is not None:
            detail.extend(f"K_{rel.eta.vars.name_at(a)}{rel.eta.vars.name_at(b)} = {to_text(c)}"
                          for (a, b), c in rel.eta_commutator.items())
        if not rel.residual.is_structurally_zero():
            detail.append(f"residual = {form_to_text(rel.residual)}")
        line = f"{decl.name}: {rel.verdict.upper()}"
        if detail:
            line += "; " + "; ".join(detail)
        rep.emit(line, {"kind": "relation", "name": decl.name, "verdict": rel.verdict,
                        "residual": form_to_text(rel.residual),
                        "commutator": _commutator_json(rel.eta_commutator)
                        if rel.eta_commutator is not None else None})


def _cmd_frobenius(args, rep: Reporter):
    doc = _load(args.file)
    for name, form in _select_forms(doc, args.name, degree=1):
        verdict = frobenius_test(form)
        rep.note_verdicts(verdict)
        rep.emit(f"{name}: {verdict}",
                 {"kind": "frobenius", "name": name, "verdict": verdict})


def _cmd_characteristics(args, rep: Reporter):
    if args.every < 1:
        raise InputError(f"--every must be at least 1, got {args.every}")
    doc = _load(args.file)
    phi = _scalar_expr(doc, args.scalar)
    start = _parse_floats(args.start, "start point")
    points = characteristic_curve(phi, doc.vars, start, args.steps, args.h)
    level = compile_expression(phi, doc.vars.names).scalar
    phi0 = level(*points[0])
    drift = max(abs(level(x, y) - phi0) for x, y in points)
    truncated = len(points) < args.steps + 1
    sampled = points[:: args.every]
    if sampled[-1] != points[-1]:
        sampled.append(points[-1])
    if rep.fmt == "text":
        for x, y in sampled:
            print(f"{_fmt_float(x)} {_fmt_float(y)}")
        status = " (truncated)" if truncated else ""
        print(f"{args.scalar}: {len(points)} points, level drift = {_fmt_float(drift)}{status}")
    else:
        rep.emit("", {"kind": "characteristics", "scalar": args.scalar,
                      "start": start, "steps": args.steps, "h": args.h,
                      "drift": drift, "truncated": truncated,
                      "points": [[x, y] for x, y in sampled]})


def _locus_points_json(points):
    return [list(p) for p in points]


def _cmd_pseudostructure(args, rep: Reporter):
    doc = _load(args.file)
    g = _metric(doc)
    box = _parse_box(args.box, doc.vars.dimension)
    for name, form in _select_forms(doc, args.name, degree=1):
        report = find_pseudostructure(form, g, box, args.grid, args.tol)
        locus = report.locus
        restricted = form_to_text(report.restricted_form) if report.restricted_form else None
        closure = None
        if report.restricted_form is not None:
            closure = classify_closure(report.restricted_form).closed
            rep.note_verdicts(closure)
        line = (f"{name}: locus = {locus.description}, intensity = {_fmt_float(report.intensity)},"
                f" dual residual = {to_text(report.dual_condition_residual)}")
        if restricted is not None:
            line += f", restricted form = {restricted} ({closure} on locus)"
        rep.emit(line, {"kind": "pseudostructure", "name": name,
                        "locus_kind": locus.kind, "description": locus.description,
                        "points": _locus_points_json(locus.points),
                        "intensity": report.intensity,
                        "dual_residual": to_text(report.dual_condition_residual),
                        "restricted_form": restricted,
                        "restricted_closure": closure})


def _cmd_stokes(args, rep: Reporter):
    doc = _load(args.file)
    rect = _parse_floats(args.rect, "rectangle") if args.rect else [0.0, 1.0, 0.0, 1.0]
    for name, form in _select_forms(doc, args.name, degree=1):
        boundary, area, diff = stokes_check(form, rect)
        rep.emit(f"{name}: boundary = {_fmt_float(boundary)}, area = {_fmt_float(area)},"
                 f" |difference| = {_fmt_float(diff)}",
                 {"kind": "stokes", "name": name, "rect": rect,
                  "boundary": boundary, "area": area, "difference": diff})


def _cmd_balance_scan(args, rep: Reporter):
    doc = _load(args.file)
    decls = _select(doc.balances(), args.name, "balance")
    box = _parse_box(args.box, doc.vars.dimension)
    for decl in decls:
        relation = build_relation(decl.system)
        rep.note_verdicts(relation.verdict)
        report = equilibrium_scan(relation, box, args.grid, args.tol)
        if report.identity_on_locus is not None:
            rep.note_verdicts(report.identity_on_locus)
        line = (f"{decl.name}: {relation.verdict.upper()}; {report.label};"
                f" intensity = {_fmt_float(report.structure.intensity)}")
        if relation.psi is not None:
            line += f"; psi = {to_text(relation.psi)}"
        if report.identity_on_locus is not None:
            line += f"; d_pi(psi) = omega_pi verdict: {report.identity_on_locus}"
        rep.emit(line, {"kind": "balance-scan", "name": decl.name,
                        "verdict": relation.verdict, "label": report.label,
                        "locus_kind": report.structure.locus.kind,
                        "points": _locus_points_json(report.structure.locus.points),
                        "intensity": report.structure.intensity,
                        "psi": to_text(relation.psi) if relation.psi is not None else None,
                        "identity_on_locus": report.identity_on_locus})


def _cmd_table(args, rep: Reporter):
    rows = classification_table(args.p, args.n)
    note = None
    if any(dim > args.n for _, dim in rows):
        note = "dimensions above n are reported verbatim from the (n+1-k) rule"
    if rep.fmt == "text":
        for k, dim in rows:
            print(f"k={k} dim={dim}")
        if note:
            print(f"note: {note}")
    else:
        rep.emit("", {"kind": "table", "p": args.p, "n": args.n,
                      "rows": [[k, dim] for k, dim in rows], "note": note})


# --- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewforms",
        description="Analyze skew-symmetric differential forms from .forms files.")
    parser.add_argument("--format", choices=("text", "jsonl"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--strict", action="store_true",
                        help="exit with status 1 when any verdict is 'unknown'")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    box_help = "ranges lo:hi per axis, comma separated; write --box=-2:2,-2:2 for negatives"

    p = add("d", _cmd_d, "exterior derivative of forms")
    p.add_argument("file")
    p.add_argument("--name", help="operate on one named declaration")

    p = add("wedge", _cmd_wedge, "exterior product of two named forms")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")

    p = add("star", _cmd_star, "Hodge dual under the declared metric")
    p.add_argument("file")
    p.add_argument("--name")

    p = add("classify", _cmd_classify, "closed/exact classification")
    p.add_argument("file")
    p.add_argument("--name")

    p = add("relation", _cmd_relation, "identical vs nonidentical relations")
    p.add_argument("file")
    p.add_argument("--name")

    p = add("frobenius", _cmd_frobenius, "integrability of 1-form distributions")
    p.add_argument("file")
    p.add_argument("--name")

    p = add("characteristics", _cmd_characteristics, "level-set curve of a scalar")
    p.add_argument("file")
    p.add_argument("--scalar", required=True)
    p.add_argument("--start", required=True,
                   help="start point x,y; write --start=-1,0 for a negative x")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--h", type=float, default=DEFAULT_STEP, help="RK4 step size")
    p.add_argument("--every", type=int, default=1, help="emit every k-th point (k >= 1)")

    p = add("pseudostructure", _cmd_pseudostructure, "commutator zero-locus scan")
    p.add_argument("file")
    p.add_argument("--name")
    p.add_argument("--box", help=box_help)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add("stokes", _cmd_stokes, "boundary vs area integral on a rectangle")
    p.add_argument("file")
    p.add_argument("--name")
    p.add_argument("--rect", help="x0,x1,y0,y1 (default unit square);"
                   " write --rect=-1,0,-1,0 for a negative x0")

    p = add("balance-scan", _cmd_balance_scan, "equilibrium scan of balance systems")
    p.add_argument("file")
    p.add_argument("--name")
    p.add_argument("--box", help=box_help)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add("table", _cmd_table, "the (p, k, n) classification table")
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    reporter = Reporter(args.format)
    try:
        args.handler(args, reporter)
    except (InputError, FormError, AnalysisError, DomainError, DslError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    if args.strict and reporter.saw_unknown:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
