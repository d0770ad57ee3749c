"""The skewforms benchmark.

    python3 perfbench/run.py --workload {cli_corpus,symbolic,numeric,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload is one single-threaded
process driven in a closed loop by one client: the next op starts when the
previous one has finished.

* ``cli_corpus``: the 18 golden invocations of ``tests/test_cli.py``, each
  a fresh ``python -m skewforms.cli`` process, stdout compared byte for
  byte with ``tests/golden/``.  The seed only shuffles their order.
* ``symbolic``: generated documents in 2 to 4 variables run through
  ``parse``, ``d``, ``wedge``, ``star``, ``classify``, ``relation``,
  ``frobenius`` and ``is_zero``; every verdict is known by construction.
* ``numeric``: generated 2-D and 3-D documents run through ``parse``,
  ``characteristic_curve``, ``find_pseudostructure``, ``stokes_check`` and
  the balance-law scan, checked against sympy.

With ``--trace 0`` the run measures for at least ``--seconds`` and at
least 100 ops, ending on a whole block (symbolic), round (numeric) or pass
over the corpus (cli_corpus), and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed op list untraced and then traced, and
reports per-layer calls, self time and counters; the counts repeat exactly
for a given seed.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times in the end-to-end metrics are wall times scaled to nominal machine
speed: a fixed reference is timed next to each op, in the worker process
or, for set-ups and CLI calls, as a process of its own, and a time is
scaled by how much slower or faster than nominal that reference ran (see
``speed.py``).  Per-layer times are wall times.

``failed`` counts every op whose output was wrong or that raised.
``correct`` is false only when some failure is not one of the known
defects listed in ``perfbench/provenance.json``.  A failure matches a known
defect only if it is the failure that defect documents: a wrong answer
from the list in ``gen.DEFECT_ANSWERS``, or golden output that differs only
by roundoff; never a raised exception or a failed process.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import spans
import speed
from gen import Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench"
PROVENANCE = HERE / "provenance.json"

WORKLOADS = ("cli_corpus", "symbolic", "numeric")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30.0
SETUP_REPEATS = 4        # fresh set-ups before and again after the timed loop
IMPORT_REPEATS = 5       # -X importtime samples in a traced run
CHILD_TIMEOUT = 150.0
ROUNDOFF = 1e-12         # largest change of a printed number that is roundoff

VERDICT_COMMANDS = {"classify", "relation", "frobenius", "balance-scan", "pseudostructure"}

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "op/s"), ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("decided_share", "ratio"),
    ("correct_share", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _watchdog(proc):
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def run_process(argv):
    """Run a child to completion: (seconds, exit code, stdout, stderr, peak RSS kB).

    The time runs from spawning the process until it has been reaped; the
    peak RSS is that child's own, from wait4.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = _watchdog(proc)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return seconds, proc.returncode, out, err[0], usage.ru_maxrss


def run_worker(workload, seed, mode, *, seconds=0.0, refs=None, spans_path=None):
    """Start worker.py; return (set-up seconds, parsed result or None)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    if spans_path is not None:
        argv += ["--spans", str(spans_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    timer = _watchdog(proc)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"{workload} worker did not start")
        if mode != "setup":
            proc.stdin.write(json.dumps(refs or {}).encode())
        proc.stdin.close()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"{workload} worker exited with {code}")
    return setup, (json.loads(rest.splitlines()[-1]) if mode != "setup" else None)


def process_speed():
    return speed.Speed(lambda: run_process(speed.PROCESS)[0], speed.NOMINAL_PROCESS_S)


def setup_samples(workload, seed):
    """Set-up times at nominal speed, scaled by reference processes."""
    clock = process_speed()
    samples = []
    for _ in range(SETUP_REPEATS):
        clock.tick()
        samples.append(clock.scaled(run_worker(workload, seed, "setup")[0]))
    return samples


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- cli_corpus ------------------------------------------------------------------


def _golden(name):
    return (ROOT / "tests" / "golden" / name).read_bytes()


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def roundoff_only(out: bytes, golden: bytes) -> bool:
    """True if ``out`` has the golden text line for line and differs only in
    printed numbers, each by at most ROUNDOFF."""
    got, want = out.decode(errors="replace").splitlines(), golden.decode().splitlines()
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
            return False
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            if not abs(float(x) - float(y)) <= ROUNDOFF:
                return False
    return True


def cli_op(name, seconds, code, out, stray_err):
    """The outcome of one golden invocation.  A failure is tagged with the
    invocation's name, which matches a known defect only if listed, and
    only when the call succeeded and its output is the golden up to roundoff."""
    args = gen.GOLDEN_RUNS[name]
    command = next(a for a in args if not a.startswith("--") and a not in ("text", "jsonl"))
    op = Outcome(command, seconds, verdict=command in VERDICT_COMMANDS)
    op.decided = op.verdict and b"unknown" not in out
    golden = _golden(name)
    if code != 0 or stray_err:
        op.fail(f"exit {code}: {stray_err[:200]!r}")
    elif out != golden:
        if roundoff_only(out, golden):
            op.fail(f"stdout differs from the golden file by roundoff (<= {ROUNDOFF:g})", name)
        else:
            op.fail("stdout differs from the golden file")
    return op


def cli_untraced(seed, seconds):
    ops, sizes, peak_kb = [], [], 0
    clock = process_speed()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(ops) < gen.MIN_OPS:
        order = gen.cli_round(seed, len(sizes))
        for name in order:
            argv = [sys.executable, "-m", "skewforms.cli", *gen.GOLDEN_RUNS[name]]
            clock.tick()
            elapsed, code, out, err, rss = run_process(argv)
            ops.append(cli_op(name, clock.scaled(elapsed), code, out, err))
            peak_kb = max(peak_kb, rss)
        sizes.append(len(order))
    return ops, sizes, peak_kb


def cli_traced(seed):
    order = gen.cli_round(seed, 0)
    untraced = [run_process([sys.executable, "-m", "skewforms.cli", *gen.GOLDEN_RUNS[n]])[0]
                for n in order]
    ops, layers = [], {}
    for name in order:
        path = SPAN_DIR / f"cli_corpus-{seed}-{name}.spans"
        argv = [sys.executable, str(HERE / "cli_child.py"), str(path), *gen.GOLDEN_RUNS[name]]
        elapsed, code, out, err, _ = run_process(argv)
        stray = []
        for line in err.decode(errors="replace").splitlines():
            if line.startswith(spans.MARKER):
                for key, value in json.loads(line[len(spans.MARKER):]).items():
                    layers[key] = layers.get(key, 0) + value
            else:
                stray.append(line)
        ops.append(cli_op(name, elapsed, code, out, "\n".join(stray).encode()))
    return ops, layers, sum(untraced)


# --- symbolic and numeric ------------------------------------------------------------


def _ops_from(result):
    return [Outcome(*row) for row in result["ops"]]


def _refs(workload, seed):
    if workload != "numeric":
        return {}
    import oracle  # sympy, in this process only: the worker's memory stays its own

    return oracle.numeric_refs(gen.numeric_round(seed))


def import_split():
    """Median cumulative import time, in ms, of numpy and of skewforms over
    the ``python -X importtime -c "import skewforms"`` reports of several
    fresh processes."""
    found = {"numpy": [], "skewforms": []}
    for _ in range(IMPORT_REPEATS):
        _, code, _, err, _ = run_process([sys.executable, "-X", "importtime", "-c", "import skewforms"])
        if code != 0:
            raise BenchError("import skewforms failed")
        for line in err.decode(errors="replace").splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cumulative, name = line.split("|")
                if name.strip() in found:
                    found[name.strip()].append(int(cumulative) / 1000.0)
    return {f"cli.import_{pkg}_ms": statistics.median(ms or [0.0]) for pkg, ms in found.items()}


def measure(workload, seed, seconds):
    """Untraced run: (ops, setup_s, peak RSS kB, ops per unit of work).

    setup_s is the median of set-ups taken before and after the timed loop,
    so a slow spell of the machine at one end of the run does not set it."""
    refs = _refs(workload, seed)
    setups = setup_samples(workload, seed)
    if workload == "cli_corpus":
        ops, sizes, peak_kb = cli_untraced(seed, seconds)
    else:
        _, result = run_worker(workload, seed, "run", seconds=seconds, refs=refs)
        ops, sizes, peak_kb = _ops_from(result), result["unit_sizes"], result["peak_rss_kb"]
    setups += setup_samples(workload, seed)
    return ops, statistics.median(setups), peak_kb, sizes


def trace(workload, seed):
    """Traced run: (ops of the traced pass, per-layer metrics, untraced seconds)."""
    if workload == "cli_corpus":
        ops, layers, untraced_s = cli_traced(seed)
    else:
        path = SPAN_DIR / f"{workload}-{seed}.spans"
        _, result = run_worker(workload, seed, "trace", refs=_refs(workload, seed), spans_path=path)
        ops, layers, untraced_s = _ops_from(result), dict(result["layers"]), result["untraced_s"]
    layers.update(import_split())
    return ops, layers, untraced_s


# --- reporting --------------------------------------------------------------------------


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "cpu": cpu}


def known_defects(workload):
    data = json.loads(PROVENANCE.read_text(encoding="utf-8"))
    return {d["id"]: d["reason"] for d in data["workloads"][workload]["known_defects"]}


def failure_report(workload, ops):
    """(correct, lines): correct is False if a failure is not a known defect."""
    known = known_defects(workload)
    tally = {}
    for op in ops:
        if not op.ok:
            key = (op.defect if op.defect in known else None, op.kind, op.reason)
            tally[key] = tally.get(key, 0) + 1
    lines = []
    for (defect, kind, reason), count in sorted(tally.items(), key=str):
        label = f"known defect {defect}: {known[defect]}" if defect else "UNEXPECTED"
        lines.append(f"  failed {count} x {kind}: {reason}  [{label}]")
    return all(defect for defect, _, _ in tally), lines


def end_to_end(ops, setup_s, peak_kb, unit_sizes):
    """unit_sizes: ops per block, round or corpus pass, in order.  Throughput
    is the median over these units, so a slow spell of the machine during
    one of them does not move it."""
    rates, i = [], 0
    for n in unit_sizes:
        rates.append(n / sum(op.seconds for op in ops[i:i + n]))
        i += n
    times = [op.seconds for op in ops]
    verdicts = [op for op in ops if op.verdict]
    failed = sum(not op.ok for op in ops)
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": percentile(times, 0.9) * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
        "decided_share": sum(op.decided for op in verdicts) / len(verdicts),
        "correct_share": (len(ops) - failed) / len(ops),
    }


def layer_units():
    units = {}
    for name in spans.metric_names() + ["cli.import_numpy_ms", "cli.import_skewforms_ms"]:
        units[name] = "ms" if name.endswith("_ms") else "count"
    units["trace.ops_per_s"] = "op/s"
    units["trace.untraced_ops_per_s"] = "op/s"
    return units


def run_workload(workload, seed, seconds, traced):
    print(f"workload {workload}, seed {seed}, trace {int(traced)}")
    if workload == "cli_corpus":
        missing = [n for n in gen.GOLDEN_RUNS if not (ROOT / "tests" / "golden" / n).is_file()]
        if missing:
            raise BenchError(f"golden files missing: {missing}")
    if traced:
        ops, layers, untraced_s = trace(workload, seed)
    else:
        ops, *rest = measure(workload, seed, seconds)
    correct, lines = failure_report(workload, ops)
    failed = sum(not op.ok for op in ops)
    if traced:
        units = layer_units()
        traced_s = sum(op.seconds for op in ops)
        layers["trace.ops_per_s"] = len(ops) / traced_s
        layers["trace.untraced_ops_per_s"] = len(ops) / untraced_s
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in units.items()}
        by_kind = {}
        for op in ops:
            by_kind[op.kind] = by_kind.get(op.kind, 0.0) + op.seconds
        print("  share of traced time by op kind: " + ", ".join(
            f"{k} {v / traced_s:.3f}" for k, v in sorted(by_kind.items(), key=lambda kv: -kv[1])))
        print(f"  tracing overhead: {layers['trace.untraced_ops_per_s']:.4g} op/s untraced,"
              f" {layers['trace.ops_per_s']:.4g} op/s traced, {len(ops)} ops each")
    else:
        values = end_to_end(ops, *rest)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        n = len(ops)
        print(f"  {n} ops; {n - math.ceil(0.9 * n)} samples beyond the p90;"
              f" failed_share {failed / n:.6g} ({failed} of {n})")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:48s} {shown} {metric['unit']}")
    for line in lines:
        print(line)
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}


def _checkout_ok():
    return ((ROOT / "src" / "skewforms" / "__init__.py").is_file()
            and (ROOT / "tests" / "golden").is_dir())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind through the finally blocks that kill and reap children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not _checkout_ok():
        print("error: run from a skewforms checkout (src/skewforms and tests/golden not found)",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in chosen}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
