"""In-memory span tracing of skewforms, installed from outside the package.

``Tracer.install`` wraps each traced function at every module binding:
``analysis``, ``forms`` and ``balance`` import ``is_zero``, ``evaluate`` and
the rest by name, so patching only the defining module would miss their
calls.  Two bindings stay unwrapped so that recursion inside ``expr`` is not
traced: ``power`` is wrapped only where the parser calls it (the ``^`` of
the ``.forms`` format), and ``substitute`` everywhere except in ``expr``,
which recurses through its own global name.

Each call records a span (name, start, end, parent) in flat arrays; nothing
is aggregated until ``summary``.  A function's self time is its spans'
duration minus the part covered by child spans.  An ``evaluate`` span whose
parent is an ``is_zero`` span is a probe of the numeric zero witness.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

MODULES = ("skewforms", "skewforms.expr", "skewforms.forms", "skewforms.duality",
           "skewforms.analysis", "skewforms.balance", "skewforms.dsl", "skewforms.cli")

# (layer, function): the metric prefix is "layer.function"
TARGETS = (
    ("dsl", "parse"), ("expr", "power"), ("expr", "is_zero"), ("expr", "evaluate"),
    ("expr", "differentiate"), ("expr", "substitute"),
    ("forms", "exterior_derivative"), ("forms", "wedge"), ("forms", "commutator"),
    ("forms", "pullback"), ("forms", "zero_verdict"), ("duality", "hodge_star"),
    ("analysis", "classify_closure"), ("analysis", "reconstruct_potential"),
    ("analysis", "classify_relation"), ("analysis", "frobenius_test"),
    ("analysis", "characteristic_curve"), ("analysis", "find_pseudostructure"),
    ("analysis", "stokes_check"), ("balance", "build_relation"),
    ("balance", "equilibrium_scan"), ("cli", "main"),
)

# prefix of the stderr line on which a traced CLI call reports its summary
MARKER = "perfbench-layers "

ONLY_IN = {"power": {"skewforms.dsl"}}
NOT_IN = {"substitute": {"skewforms.expr"}}

# counters read from return values and exceptions at the wrapper
COUNTERS = {
    "dsl.parse": ("terms_out",),
    "expr.is_zero": ("zero", "nonzero", "unknown", "probe_evals", "probe_ms"),
    "expr.evaluate": ("domain_errors",),
    "analysis.characteristic_curve": ("steps",),
    "analysis.find_pseudostructure": ("grid_nodes", "locus_points"),
}


def _terms(e) -> int:
    terms = getattr(e, "terms", None)
    return len(terms) if terms is not None else 1


def _parse_terms(doc) -> int:
    """Terms in every coefficient of every declaration the parser built."""
    total = 0
    for decl in doc.declarations:
        for attr in ("expr", "psi"):
            e = getattr(decl, attr, None)
            if e is not None:
                total += _terms(e)
        for attr in ("form", "phi", "eta"):
            form = getattr(decl, attr, None)
            if form is not None:
                total += sum(_terms(c) for _, c in form.items())
        system = getattr(decl, "system", None)
        if system is not None:
            total += sum(_terms(c) for c in system.actions)
            if system.psi is not None:
                total += _terms(system.psi)
    return total


def _grid_nodes(args, kwargs, report) -> int:
    if report.locus.kind == "whole_box":
        return 0  # the form is closed: the scan returns before building a grid
    grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
    n = args[0].vars.dimension
    if isinstance(grid, int):
        return grid ** n
    total = 1
    for g in grid:
        total *= int(g)
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns
        domain_error = sys.modules["skewforms.expr"].DomainError
        count = self._count

        def post(args, kwargs, result):
            if name == "expr.is_zero":
                count(f"expr.is_zero.{result}")
            elif name == "dsl.parse":
                count("dsl.parse.terms_out", _parse_terms(result))
            elif name == "analysis.characteristic_curve":
                count("analysis.characteristic_curve.steps", len(result) - 1)
            elif name == "analysis.find_pseudostructure":
                count("analysis.find_pseudostructure.grid_nodes", _grid_nodes(args, kwargs, result))
                count("analysis.find_pseudostructure.locus_points", len(result.locus.points))

        hooked = name in COUNTERS and name != "expr.evaluate"

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except domain_error:
                if name == "expr.evaluate":
                    count("expr.evaluate.domain_errors")
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if hooked:
                post(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every target at every binding of a loaded skewforms module."""
        loaded = [sys.modules[m] for m in MODULES if m in sys.modules]
        for layer, fname in TARGETS:
            home = sys.modules.get(f"skewforms.{layer}")
            if home is None:
                continue
            original = getattr(home, fname)
            wrapper = self.wrap(f"{layer}.{fname}", original)
            allowed = ONLY_IN.get(fname)
            for module in loaded:
                if allowed is not None and module.__name__ not in allowed:
                    continue
                if module.__name__ in NOT_IN.get(fname, ()):
                    continue
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)

    def summary(self) -> dict:
        """Per-function calls, self time and counters, from the recorded spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        name_id = self.name_id
        for i in range(n):
            k = name_id[i]
            calls[k] += 1
            self_ns[k] += dur[i] - child[i]
        out = dict(self.counts)
        probe_evals = probe_ns = 0
        if "expr.is_zero" in self.names and "expr.evaluate" in self.names:
            z, ev = self.names.index("expr.is_zero"), self.names.index("expr.evaluate")
            for i in range(n):
                if name_id[i] == ev and parent[i] >= 0 and name_id[parent[i]] == z:
                    probe_evals += 1
                    probe_ns += dur[i]
        out["expr.is_zero.probe_evals"] = probe_evals
        out["expr.is_zero.probe_ms"] = probe_ns / 1e6
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_ms"] = self_ns[k] / 1e6
        return out

    def dump(self, path: Path):
        """Write the raw spans: a JSON header line, then four int64 columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.start)
        header = {"names": self.names, "spans": n,
                  "columns": ["name_id", "parent", "start_ns", "end_ns"], "dtype": "int64"}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.name_id, self.parent):
                array("q", column).tofile(handle)
            self.start.tofile(handle)
            self.end.tofile(handle)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = []
    for layer, fname in TARGETS:
        prefix = f"{layer}.{fname}"
        names += [f"{prefix}.calls", f"{prefix}.self_ms"]
        names += [f"{prefix}.{c}" for c in COUNTERS.get(prefix, ())]
    return names
