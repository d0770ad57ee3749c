"""Command-line front end: every analysis wired to ``.forms`` files.

Output is human-readable text by default or JSON-lines with
``--format jsonl`` (one self-describing record per result).  Each job has
one path: ``_select`` looks up every declaration, ``Reporter.emit`` prints
every result and collects its verdicts for ``--strict``, and one ``add``
helper declares each subcommand's ``file`` and ``--name``.  A missing name
reads ``no declaration named 'N'``, and a name of another kind ``'N' is not
a form`` (or a scalar, relation or balance).  Exit codes: 0 on success, 1
when ``--strict`` is set and any verdict is "unknown", 2 on input or usage
errors (one ``error:`` line, no stack trace).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .expr import to_text, DomainError
from .forms import DifferentialForm, FormError, exterior_derivative, form_to_text, wedge
from .duality import Metric, hodge_star
from .analysis import (
    DEFAULT_STEP,
    DEFAULT_STEPS,
    DEFAULT_TOL,
    SCALAR_SCAN_NODES,
    AnalysisError,
    _curve_and_levels,
    classification_table,
    classify_closure,
    classify_relation,
    find_pseudostructure,
    frobenius_test,
    stokes_check,
)
from .balance import build_relation, equilibrium_scan
from .dsl import BalanceDecl, Document, DslError, FormDecl, RelationDecl, ScalarDecl, _line_column, parse

__all__ = ["main"]

DEFAULT_GRID = 101

_KINDS = {"form": FormDecl, "scalar": ScalarDecl, "relation": RelationDecl,
          "balance": BalanceDecl}


class InputError(Exception):
    """User-facing error: bad file, name or option (exit code 2)."""


class Reporter:
    """Prints each result in text or JSON-lines format and remembers
    whether any verdict passed with it was "unknown"."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.saw_unknown = False

    def emit(self, text: str, record: dict, *verdicts):
        self.saw_unknown |= "unknown" in verdicts
        if self.fmt == "jsonl":
            import json  # here, not at the top: every text-mode call would pay for it
            text = json.dumps(record, sort_keys=True)
        print(text)


def _fmt_float(v: float) -> str:
    return f"{v:.12g}"


def _load(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        # read() decodes the whole file in one call, so err.object holds all of its bytes
        before = err.object[:err.start].decode("utf-8")
        raise InputError(f"{path}: {DslError('not valid UTF-8', *_line_column(before, len(before)))}") from None
    try:
        return parse(text)
    except DslError as err:
        raise InputError(f"{path}: {err}") from None


def _select(doc: Document, name: str | None, kind: str, degree: int | None = None) -> list:
    """The declarations of one kind: the one named, or all of them (for
    forms, those of the given degree).  A named scalar serves as a 0-form."""
    if name is None:
        decls = [d for d in doc.declarations if isinstance(d, _KINDS[kind])]
        if degree is not None:
            decls = [d for d in decls if d.form.degree == degree]
        if not decls:
            of_degree = f"{degree}-" if degree is not None else ""
            raise InputError(f"no {of_degree}{kind} declarations in the document")
        return decls
    decl = doc.find(name)
    if decl is None:
        raise InputError(f"no declaration named {name!r}")
    if kind == "form" and isinstance(decl, ScalarDecl):
        return [FormDecl(name, DifferentialForm.scalar(doc.vars, decl.expr))]
    if not isinstance(decl, _KINDS[kind]):
        raise InputError(f"{name!r} is not a {kind}")
    return [decl]


def _metric(doc: Document) -> Metric:
    return doc.metric if doc.metric is not None else Metric.euclidean(doc.vars)


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


# --- subcommand handlers ---------------------------------------------------------


def _cmd_d(args, rep: Reporter):
    for decl in _select(_load(args.file), args.name, "form"):
        result = form_to_text(exterior_derivative(decl.form))
        rep.emit(f"d({decl.name}) = {result}",
                 {"kind": "d", "name": decl.name, "result": result})


def _cmd_wedge(args, rep: Reporter):
    doc = _load(args.file)
    left, = _select(doc, args.left, "form")
    right, = _select(doc, args.right, "form")
    result = form_to_text(wedge(left.form, right.form))
    rep.emit(f"{left.name} ^ {right.name} = {result}",
             {"kind": "wedge", "left": left.name, "right": right.name, "result": result})


def _cmd_star(args, rep: Reporter):
    doc = _load(args.file)
    g = _metric(doc)
    for decl in _select(doc, args.name, "form"):
        result = form_to_text(hodge_star(decl.form, g))
        rep.emit(f"*({decl.name}) = {result}",
                 {"kind": "star", "name": decl.name, "result": result})


def _cmd_classify(args, rep: Reporter):
    for decl in _select(_load(args.file), args.name, "form"):
        verdict = classify_closure(decl.form)
        potential = to_text(verdict.potential) if verdict.potential is not None else None
        pieces = [verdict.closed, verdict.exact]
        if potential is not None:
            pieces.append(f"potential = {potential}")
        line = f"{decl.name}: " + ", ".join(pieces)
        if verdict.notes:
            line += f"  [{verdict.notes}]"
        rep.emit(line, {"kind": "classify", "name": decl.name, "closed": verdict.closed,
                        "exact": verdict.exact, "potential": potential,
                        "notes": verdict.notes},
                 verdict.closed, verdict.exact)


def _commutator_json(comm: DifferentialForm) -> dict:
    """K_ab of a commutator 2-form for every pair a < b, zeros included."""
    pairs = itertools.combinations(range(1, comm.vars.dimension + 1), 2)
    return {f"{comm.vars.name_at(a)},{comm.vars.name_at(b)}": to_text(comm.coefficient((a, b)))
            for a, b in pairs}


def _cmd_relation(args, rep: Reporter):
    for decl in _select(_load(args.file), args.name, "relation"):
        rel = classify_relation(decl.phi, decl.eta)
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
                        if rel.eta_commutator is not None else None},
                 rel.verdict)


def _cmd_frobenius(args, rep: Reporter):
    for decl in _select(_load(args.file), args.name, "form", degree=1):
        verdict = frobenius_test(decl.form)
        rep.emit(f"{decl.name}: {verdict}",
                 {"kind": "frobenius", "name": decl.name, "verdict": verdict}, verdict)


def _cmd_characteristics(args, rep: Reporter):
    if args.every < 1:
        raise InputError(f"--every must be at least 1, got {args.every}")
    doc = _load(args.file)
    phi = _select(doc, args.scalar, "scalar")[0].expr
    start = _parse_floats(args.start, "start point")
    points, levels = _curve_and_levels(phi, doc.vars, start, args.steps, args.h)
    drift = max(abs(level - levels[0]) for level in levels)
    truncated = len(points) < args.steps + 1
    sampled = points[:: args.every]
    if sampled[-1] != points[-1]:
        sampled.append(points[-1])
    lines = [f"{_fmt_float(x)} {_fmt_float(y)}" for x, y in sampled]
    lines.append(f"{args.scalar}: {len(points)} points, level drift = {_fmt_float(drift)}"
                 + (" (truncated)" if truncated else ""))
    rep.emit("\n".join(lines),
             {"kind": "characteristics", "scalar": args.scalar, "start": start,
              "steps": args.steps, "h": args.h, "drift": drift, "truncated": truncated,
              "points": [[x, y] for x, y in sampled]})


def _cmd_pseudostructure(args, rep: Reporter):
    doc = _load(args.file)
    g = _metric(doc)
    box = _parse_box(args.box, doc.vars.dimension)
    for decl in _select(doc, args.name, "form", degree=1):
        report = find_pseudostructure(decl.form, g, box, args.grid, args.tol)
        locus = report.locus
        restricted = closure = None
        line = (f"{decl.name}: locus = {locus.description},"
                f" intensity = {_fmt_float(report.intensity)},"
                f" dual residual = {to_text(report.dual_condition_residual)}")
        if report.restricted_form is not None:
            restricted = form_to_text(report.restricted_form)
            closure = classify_closure(report.restricted_form).closed
            line += f", restricted form = {restricted} ({closure} on locus)"
        rep.emit(line, {"kind": "pseudostructure", "name": decl.name,
                        "locus_kind": locus.kind, "description": locus.description,
                        "points": [list(p) for p in locus.points],
                        "intensity": report.intensity,
                        "dual_residual": to_text(report.dual_condition_residual),
                        "restricted_form": restricted,
                        "restricted_closure": closure},
                 closure)


def _cmd_stokes(args, rep: Reporter):
    doc = _load(args.file)
    rect = _parse_floats(args.rect, "rectangle") if args.rect else [0.0, 1.0, 0.0, 1.0]
    for decl in _select(doc, args.name, "form", degree=1):
        boundary, area, diff = stokes_check(decl.form, rect)
        rep.emit(f"{decl.name}: boundary = {_fmt_float(boundary)}, area = {_fmt_float(area)},"
                 f" |difference| = {_fmt_float(diff)}",
                 {"kind": "stokes", "name": decl.name, "rect": rect,
                  "boundary": boundary, "area": area, "difference": diff})


def _cmd_balance_scan(args, rep: Reporter):
    doc = _load(args.file)
    decls = _select(doc, args.name, "balance")
    box = _parse_box(args.box, doc.vars.dimension)
    for decl in decls:
        relation = build_relation(decl.system)
        report = equilibrium_scan(relation, box, args.grid, args.tol)
        structure, identity = report.structure, report.identity_on_locus
        psi = to_text(relation.psi) if relation.psi is not None else None
        line = (f"{decl.name}: {relation.verdict.upper()}; {report.label};"
                f" intensity = {_fmt_float(structure.intensity)}")
        if psi is not None:
            line += f"; psi = {psi}"
        if identity is not None:
            line += f"; d_pi(psi) = omega_pi verdict: {identity}"
        rep.emit(line, {"kind": "balance-scan", "name": decl.name,
                        "verdict": relation.verdict, "label": report.label,
                        "locus_kind": structure.locus.kind,
                        "points": [list(p) for p in structure.locus.points],
                        "intensity": structure.intensity, "psi": psi,
                        "identity_on_locus": identity},
                 relation.verdict, identity)


def _cmd_table(args, rep: Reporter):
    rows = classification_table(args.p, args.n)
    note = None
    if any(dim > args.n for _, dim in rows):
        note = "dimensions above n are reported verbatim from the (n+1-k) rule"
    lines = [f"k={k} dim={dim}" for k, dim in rows] + ([f"note: {note}"] if note else [])
    rep.emit("\n".join(lines), {"kind": "table", "p": args.p, "n": args.n,
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

    def add(command, handler, help_text, *positionals, named=True):
        """A subcommand reading FILE and the given positionals, and --name
        unless named is False."""
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(handler=handler)
        for positional in ("file", *positionals):
            p.add_argument(positional)
        if named:
            p.add_argument("--name", help="operate on one named declaration")
        return p

    def scan(p):
        p.add_argument("--box", help="ranges lo:hi per axis, comma separated;"
                       " write --box=-2:2,-2:2 for negatives")
        p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                       help="nodes per axis (default: %(default)s); a grid of more than"
                       f" {SCALAR_SCAN_NODES:,} nodes in all, scans in array mode, imports numpy"
                       " and prints floats that follow numpy's exp, ln, sin and cos")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    add("d", _cmd_d, "exterior derivative of forms")
    add("wedge", _cmd_wedge, "exterior product of two named forms", "left", "right",
        named=False)
    add("star", _cmd_star, "Hodge dual under the declared metric")
    add("classify", _cmd_classify, "closed/exact classification")
    add("relation", _cmd_relation, "identical vs nonidentical relations")
    add("frobenius", _cmd_frobenius, "integrability of 1-form distributions")

    p = add("characteristics", _cmd_characteristics, "level-set curve of a scalar", named=False)
    p.add_argument("--scalar", required=True)
    p.add_argument("--start", required=True,
                   help="start point x,y; write --start=-1,0 for a negative x")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--h", type=float, default=DEFAULT_STEP, help="RK4 step size")
    p.add_argument("--every", type=int, default=1, help="emit every k-th point (k >= 1)")

    scan(add("pseudostructure", _cmd_pseudostructure, "commutator zero-locus scan"))
    p = add("stokes", _cmd_stokes, "boundary vs area integral on a rectangle")
    p.add_argument("--rect", help="x0,x1,y0,y1 (default unit square);"
                   " write --rect=-1,0,-1,0 for a negative x0")
    scan(add("balance-scan", _cmd_balance_scan, "equilibrium scan of balance systems"))

    p = sub.add_parser("table", help="the (p, k, n) classification table")
    p.set_defaults(handler=_cmd_table)
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    reporter = Reporter(args.format)
    try:
        args.handler(args, reporter)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send what is left, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, FormError, AnalysisError, DomainError, DslError) as err:
        message = err
    except RecursionError:
        message = "input nested too deeply to process"
    except MemoryError:
        message = "out of memory"
    else:
        return 1 if args.strict and reporter.saw_unknown else 0
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
