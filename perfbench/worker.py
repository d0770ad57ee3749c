"""One workload inside a fresh interpreter: the process whose memory and
time the benchmark reports for ``symbolic`` and ``numeric``.

Protocol with ``run.py``: after ``import skewforms`` and generating the
workload's input text the worker prints ``ready``; ``run.py`` times that
interval as set-up.  With ``--mode setup`` the worker then exits.
Otherwise it reads the references as JSON from stdin (``{}`` when the
workload's references are known by construction), runs the ops, checks
every output outside the per-op timer, and prints one JSON result line.

Modes: ``run`` loops over the ops until ``--seconds`` have passed and at
least ``gen.MIN_OPS`` ops are done, stopping only at the end of a block
(symbolic) or a round (numeric); each op's time is scaled to nominal speed.
``trace`` runs a fixed op list three times: a warm-up pass, an untraced
pass and a traced pass, and reports the per-layer counters of the traced
pass in wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import skewforms as sf
from skewforms.expr import Add, Const, Mul, Pow, Var

import gen
import spans
import speed
from gen import Outcome

TRACE_BLOCKS = 6
DRIFT_TOL = 1e-6
STOKES_TOL = 1e-8
SCAN_TOL = 1e-6
# reference and program evaluate the same expression in a different order
EVAL_SLACK = 1e-12

# In --mode run, a speed.Speed: op times are then scaled to nominal speed.
SPEED = None


class Unsupported(Exception):
    pass


def exact_value(e, env):
    """Exact rational value of a polynomial or rational-function tree."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Add):
        return sum((exact_value(t, env) for t in e.terms), 0)
    if isinstance(e, Mul):
        out = 1
        for f in e.factors:
            out *= exact_value(f, env)
        return out
    if isinstance(e, Pow) and e.exponent.denominator == 1:
        return exact_value(e.base, env) ** int(e.exponent)
    raise Unsupported(type(e).__name__)


def _timed(fn, *args):
    if SPEED is not None:
        SPEED.tick()
    result, err = None, None
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        err = exc
    seconds = time.perf_counter() - t0
    if SPEED is not None:
        seconds = SPEED.scaled(seconds)
    return seconds, result, err


# --- symbolic ------------------------------------------------------------------


def _form(doc, name):
    decl = doc.find(name)
    if isinstance(decl, sf.dsl.ScalarDecl):
        return sf.DifferentialForm.scalar(doc.vars, decl.expr)
    return decl.form


def _check_scalar(out: Outcome, e, poly, names, points):
    for point in points:
        if exact_value(e, dict(zip(names, point))) != gen.poly_eval(poly, point):
            out.fail(f"value differs at {point}")
            return


def _check_coeffs(out: Outcome, form, expected, names, points):
    keys = set(expected) | {idx for idx, _ in form.items()}
    for point in points:
        env = dict(zip(names, point))
        for idx in keys:
            want = gen.poly_eval(expected.get(idx, {}), point)
            if exact_value(form.coefficient(idx), env) != want:
                out.fail(f"coefficient {idx} differs at {point}")
                return


def _judge(out: Outcome, op, answers: dict):
    """answers: field -> program verdict; op['truth'] gives the true ones.
    A wrong answer matches the op's known defect only if it is one of the
    answers that defect is documented to give."""
    truth = op["truth"] if isinstance(op["truth"], dict) else {"verdict": op["truth"]}
    out.verdict = True
    out.decided = all(a != "unknown" for a in answers.values())
    defect = op.get("defect")
    for field, answer in answers.items():
        if answer not in (truth[field], "unknown"):
            known = answer in gen.DEFECT_ANSWERS.get(defect, ())
            out.fail(f"{field} {answer}, expected {truth[field]}", defect if known else None)


def _symbolic_call(doc, op):
    kind, args = op["kind"], op.get("args", ())
    if kind == "d":
        return sf.exterior_derivative, (_form(doc, args[0]),)
    if kind == "wedge":
        return sf.wedge, (_form(doc, args[0]), _form(doc, args[1]))
    if kind == "star":
        metric = doc.metric or sf.Metric.euclidean(doc.vars)
        return sf.hodge_star, (_form(doc, args[0]), metric)
    if kind == "classify":
        return sf.classify_closure, (_form(doc, args[0]),)
    if kind == "relation":
        decl = doc.find(args[0])
        return sf.classify_relation, (decl.phi, decl.eta)
    if kind == "frobenius":
        return sf.frobenius_test, (_form(doc, args[0]),)
    if kind == "is_zero":
        return sf.is_zero, (doc.find(args[0]).expr,)
    raise ValueError(f"unknown op kind {kind}")


def _symbolic_check(out: Outcome, op, result, names, points):
    kind = op["kind"]
    if kind == "classify":
        _judge(out, op, {"closed": result.closed, "exact": result.exact})
        if result.exact == "exact" and "potential" in op:
            if result.potential is None:
                out.fail("exact without a potential")
            else:
                _check_scalar(out, result.potential, op["potential"](), names, points)
    elif kind == "relation":
        _judge(out, op, {"verdict": result.verdict})
    elif kind in ("frobenius", "is_zero"):
        _judge(out, op, {"verdict": result})
    else:
        _check_coeffs(out, result, op["check"]()["coeffs"], names, points)


def run_document(item) -> list[Outcome]:
    """Parse one generated document and run its ops on the parsed result."""
    ops = item["ops"]
    seconds, doc, err = _timed(sf.parse, item["text"])
    first = Outcome("parse", seconds)
    outcomes = [first]
    if err is not None:
        first.fail(f"parse raised {err!r}")
    else:
        names = doc.vars.names
        check = ops[0]["check"]()
        missing = [n for n in check["decls"] if doc.find(n) is None]
        if missing:
            first.fail(f"declarations missing: {missing}")
        for name, poly in check.get("scalars", {}).items():
            _check_scalar(first, doc.find(name).expr, poly, names, item["points"])
    for op in ops[1:]:
        if not first.ok:
            skipped = Outcome(op["kind"], 0.0)
            skipped.fail("document did not parse")
            outcomes.append(skipped)
            continue
        fn, args = _symbolic_call(doc, op)
        seconds, result, err = _timed(fn, *args)
        out = Outcome(op["kind"], seconds)
        if err is not None:
            out.fail(f"raised {err!r}")
        else:
            try:
                _symbolic_check(out, op, result, names, item["points"])
            except (Unsupported, ZeroDivisionError) as exc:
                out.fail(f"output not checkable: {exc!r}")
        outcomes.append(out)
    return outcomes


# --- numeric ------------------------------------------------------------------------


def _compile(src: str, names):
    return eval(f"lambda {', '.join(names)}: {src}", {"math": math})


class NumericRefs:
    """Reference evaluators built from sympy's reading of the generated text."""

    def __init__(self, spec, refs):
        self.ops = []
        for op, ref in zip(spec["ops"], refs["ops"]):
            names = spec["names"][op["doc"]]
            entry = dict(ref)
            if "phi" in ref:
                entry["phi"] = _compile(ref["phi"], names)
            if "comps" in ref:
                entry["comps"] = [_compile(c, names) for c in ref["comps"]]
            self.ops.append(entry)


def _points_on_locus(out, points, comps):
    for p in points:
        for k in comps:
            value = k(*p)
            if not abs(value) <= SCAN_TOL + EVAL_SLACK:
                out.fail(f"|K| = {abs(value):.3g} > tol at {p}")
                return


def run_round(spec, refs: NumericRefs) -> list[Outcome]:
    docs = {}
    outcomes = []
    for op, ref in zip(spec["ops"], refs.ops):
        kind = op["kind"]
        if kind == "parse":
            seconds, doc, err = _timed(sf.parse, spec["texts"][op["doc"]])
            out = Outcome(kind, seconds)
            if err is not None:
                out.fail(f"parse raised {err!r}")
            else:
                missing = [n for n in spec["decls"][op["doc"]] if doc.find(n) is None]
                if missing:
                    out.fail(f"declarations missing: {missing}")
                docs[op["doc"]] = doc
            outcomes.append(out)
            continue
        doc = docs.get(op["doc"])
        if doc is None:
            out = Outcome(kind, 0.0)
            out.fail("document did not parse")
            outcomes.append(out)
            continue
        if kind == "characteristics":
            seconds, result, err = _timed(sf.characteristic_curve, doc.find(op["scalar"]).expr,
                                       doc.vars, op["start"], op["steps"], op["h"])
        elif kind == "pseudostructure":
            seconds, result, err = _timed(sf.find_pseudostructure, doc.find(op["form"]).form,
                                       sf.Metric.euclidean(doc.vars), op["box"], op["grid"], SCAN_TOL)
        elif kind == "stokes":
            seconds, result, err = _timed(sf.stokes_check, doc.find(op["form"]).form, op["rect"])
        elif kind == "balance_scan":
            system = doc.find(op["system"]).system

            def scan():
                relation = sf.build_relation(system)
                return relation, sf.equilibrium_scan(relation, op["box"], op["grid"], SCAN_TOL)

            seconds, result, err = _timed(scan)
        else:
            raise ValueError(f"unknown op kind {kind}")
        out = Outcome(kind, seconds)
        outcomes.append(out)
        if err is not None:
            out.fail(f"raised {err!r}")
            continue
        if kind == "characteristics":
            truncated = len(result) < op["steps"] + 1
            if truncated != op["truncates"]:
                out.fail(f"{len(result)} points, truncation expected: {op['truncates']}")
            phi = ref["phi"]
            level = phi(*result[0])
            drift = max(abs(phi(*p) - level) for p in result)
            if not drift <= DRIFT_TOL:
                out.fail(f"level drift {drift:.3g}")
        elif kind == "pseudostructure":
            if result.locus.kind != op["locus"]:
                out.fail(f"locus {result.locus.kind}, expected {op['locus']}")
            _points_on_locus(out, result.locus.points, ref["comps"])
        elif kind == "stokes":
            if not abs(result[0] - ref["exact"]) <= STOKES_TOL:
                out.fail(f"boundary {result[0]!r} vs exact {ref['exact']!r}")
        else:
            relation, report = result
            out.verdict = True
            out.decided = relation.verdict != "unknown"
            if relation.verdict not in (op["truth"], "unknown"):
                out.fail(f"verdict {relation.verdict}, expected {op['truth']}")
            if report.structure.locus.kind != op["locus"]:
                out.fail(f"locus {report.structure.locus.kind}, expected {op['locus']}")
            _points_on_locus(out, report.structure.locus.points, ref["comps"])
    return outcomes


# --- main loop ----------------------------------------------------------------------------


def _units(workload, seed, inputs, refs):
    """step(k) runs unit k (a block or a round) and returns its outcomes."""
    if workload == "symbolic":
        def step(k):
            # past the generated pool, new blocks are made outside the op timers
            block = inputs[k] if k < len(inputs) else gen.symbolic_block(seed, k)
            return [o for item in block for o in run_document(item)]
    else:
        numeric_refs = NumericRefs(inputs, refs)

        def step(k):
            return run_round(inputs, numeric_refs)
    return step


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("cli_corpus", "symbolic", "numeric"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--spans", help="file for the raw spans of a traced run")
    args = parser.parse_args(argv)

    if args.workload == "cli_corpus":
        inputs = gen.cli_round(args.seed, 0)
    elif args.workload == "symbolic":
        inputs = gen.symbolic_pool(args.seed)
    else:
        inputs = gen.numeric_round(args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.workload == "cli_corpus":
        parser.error("cli_corpus runs its ops as CLI processes; only --mode setup applies")
    refs = json.loads(sys.stdin.read() or "{}")
    step = _units(args.workload, args.seed, inputs, refs)

    result = {}
    if args.mode == "run":
        global SPEED
        SPEED = speed.Speed()
        outcomes, sizes = [], []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < args.seconds or len(outcomes) < gen.MIN_OPS:
            unit = step(len(sizes))
            outcomes += unit
            sizes.append(len(unit))
        result["unit_sizes"] = sizes
    else:
        units = TRACE_BLOCKS if args.workload == "symbolic" else 1

        def passes():
            return [o for k in range(units) for o in step(k)]

        passes()  # warm-up
        untraced = passes()
        tracer = spans.Tracer()
        tracer.install()
        outcomes = passes()
        result["untraced_s"] = sum(o.seconds for o in untraced)
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.dump(Path(args.spans))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["ops"] = [o.row() for o in outcomes]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
