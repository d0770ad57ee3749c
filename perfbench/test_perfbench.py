"""Checks of the benchmark itself: ``python -m pytest perfbench`` from the
repository root.  They spawn full benchmark runs and take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

COUNT_SUFFIXES = (".calls", ".zero", ".nonzero", ".unknown", ".probe_evals", ".domain_errors",
                  ".grid_nodes", ".steps", ".terms_out", ".locus_points")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_subtracts_child_spans():
    import skewforms  # noqa: F401  (the tracer reads DomainError from skewforms.expr)
    import spans

    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer_fn():
        return inner() + inner()

    outer = tracer.wrap("outer", outer_fn)
    outer()
    summary = tracer.summary()
    assert summary["outer.calls"] == 1 and summary["inner.calls"] == 2
    total_ms = (tracer.end[0] - tracer.start[0]) / 1e6
    assert summary["outer.self_ms"] + summary["inner.self_ms"] == pytest.approx(total_ms)
    assert list(tracer.parent) == [-1, 0, 0]


def test_times_are_scaled_by_the_references_next_to_them():
    import speed

    times = iter([0.02, 0.04, 0.01])
    clock = speed.Speed(lambda: next(times), nominal=0.01)
    clock.tick()                       # the first reference, 0.02: half speed
    assert clock.scaled(0.1) == pytest.approx(0.05)
    clock.tick()                       # taken within INTERVAL_S: no new reference
    # a long op is bracketed by the reference before it and one after it
    assert clock.scaled(1.0) == pytest.approx(1.0 * 0.01 / 0.03)
    assert clock.scaled(speed.INTERVAL_S) == pytest.approx(speed.INTERVAL_S * 0.01 / 0.025)


def test_untraced_run_reports_every_end_to_end_metric():
    result = last_json(bench("--workload", "symbolic", "--seed", "5", "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_for_a_seed(workload):
    first = last_json(bench("--workload", workload, "--seed", "3", "--trace", "1"))
    second = last_json(bench("--workload", workload, "--seed", "3", "--trace", "1"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert first["correct"] and second["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "symbolic", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_known_defects_match_only_their_documented_failure():
    import gen
    import run
    import worker

    golden = (ROOT / "tests" / "golden" / "stokes_basic.txt").read_bytes()
    roundoff = golden.replace(b"|difference| = 0", b"|difference| = 4.4408920985e-16")
    wrong = roundoff.replace(b"area = 1,", b"area = 2,")
    assert run.cli_op("stokes_basic.txt", 0.1, 0, roundoff, b"").defect == "stokes_basic.txt"
    assert run.cli_op("stokes_basic.txt", 0.1, 0, wrong, b"").defect is None
    assert run.cli_op("stokes_basic.txt", 0.1, 1, roundoff, b"").defect is None
    assert run.cli_op("stokes_basic.txt", 0.1, 0, roundoff, b"Traceback").defect is None
    assert run.cli_op("stokes_basic.txt", 0.1, 0, golden, b"").ok

    op = {"truth": {"closed": "closed", "exact": "exact"}, "defect": "exp_identity_large_rate"}
    for answers, defect in (({"closed": "unclosed", "exact": "inexact"}, op["defect"]),
                            ({"closed": "closed", "exact": "bogus"}, None)):
        out = gen.Outcome("classify", 0.1)
        worker._judge(out, op, answers)
        assert not out.ok and out.defect == defect
