"""CLI: subcommands, exit codes, golden outputs, JSON-lines schema."""

import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest

from skewforms.analysis import characteristic_curve
from skewforms.cli import main
from skewforms.dsl import parse
from skewforms.expr import VariableSet, evaluate

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

BASIC = str(DATA / "basic2d.forms")
CONTACT = str(DATA / "contact3d.forms")
BALANCE = str(DATA / "balance2d.forms")
MIXED = str(DATA / "mixed_metric.forms")


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


GOLDEN_RUNS = {
    "d_basic.txt": ("d", BASIC),
    "wedge_basic.txt": ("wedge", BASIC, "w", "grad"),
    "star_basic.txt": ("star", BASIC),
    "star_mixed.txt": ("star", MIXED),
    "classify_basic.txt": ("classify", BASIC),
    "relation_basic.txt": ("relation", BASIC),
    "frobenius_contact.txt": ("frobenius", CONTACT),
    "characteristics_basic.txt": ("characteristics", BASIC, "--scalar", "f",
                                  "--start", "1,0", "--steps", "20", "--every", "10"),
    "pseudostructure_balance.txt": ("pseudostructure", BALANCE, "--name", "omega",
                                    "--grid", "21"),
    "stokes_basic.txt": ("stokes", BASIC),
    "balance_scan.txt": ("balance-scan", BALANCE, "--grid", "21"),
    "table_1_2.txt": ("table", "1", "2"),
    "table_3_3.txt": ("table", "3", "3"),
    "classify_basic.jsonl": ("--format", "jsonl", "classify", BASIC),
    "relation_basic.jsonl": ("--format", "jsonl", "relation", BASIC),
    "balance_scan.jsonl": ("--format", "jsonl", "balance-scan", BALANCE, "--grid", "21"),
    "pseudostructure_balance.jsonl": ("--format", "jsonl", "pseudostructure", BALANCE,
                                      "--name", "omega", "--grid", "21"),
    "table_1_2.jsonl": ("--format", "jsonl", "table", "1", "2"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_outputs(name):
    """Every subcommand over the bundled corpus is byte-stable."""
    code, out, err = run_cli(*GOLDEN_RUNS[name])
    assert code == 0, err
    assert err == ""
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(out, encoding="utf-8")
    expected = path.read_text(encoding="utf-8")
    assert out == expected

    # byte stability across repeated runs
    code2, out2, _ = run_cli(*GOLDEN_RUNS[name])
    assert code2 == 0
    assert out2 == out


# other Pythons in pyenv's default place
PYENV_VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
_GOLDEN_CHILD = """
import contextlib, io, json, sys
from skewforms.cli import main
outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outputs.append((main(argv), out.getvalue()))
sys.stdout.write(json.dumps(outputs))
"""


@pytest.mark.parametrize("minor", ["3.10", "3.12", "3.13"])
def test_goldens_under_other_pythons(minor):
    """Every golden is byte-identical under each other supported Python that
    pyenv holds: the float printers, and the text goldens, whose coefficients
    go through Fraction, which Python 3.12 rewrote.  None of these calls
    imports numpy, which those interpreters may lack.  Skipped where pyenv has
    no such Python, as on a CI host, whose matrix runs the whole suite instead."""
    pythons = sorted(PYENV_VERSIONS.glob(f"{minor}.*/bin/python"))
    if not pythons:
        pytest.skip(f"no Python {minor} under {PYENV_VERSIONS}")
    names = sorted(GOLDEN_RUNS)
    child = subprocess.run([str(pythons[0]), "-c", _GOLDEN_CHILD, json.dumps([GOLDEN_RUNS[name] for name in names])],
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")))
    assert child.returncode == 0 and child.stderr == "", child.stderr
    for name, (code, out) in zip(names, json.loads(child.stdout)):
        assert code == 0 and out == (GOLDEN / name).read_text(encoding="utf-8"), (pythons[0], name)


class TestExitCodes:
    def test_missing_file(self):
        code, _, err = run_cli("classify", "/nonexistent/file.forms")
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

    def test_parse_error_position(self, tmp_path):
        bad = tmp_path / "bad.forms"
        bad.write_text("vars x\nform w = y*dx\n")
        code, _, err = run_cli("classify", str(bad))
        assert code == 2
        assert "line 2" in err and "unknown variable 'y'" in err

    def test_unknown_name(self):
        code, _, err = run_cli("d", BASIC, "--name", "nope")
        assert code == 2
        assert "no declaration named" in err

    def test_strict_escalates_unknown(self, tmp_path):
        # closure of q rests on sin^2 + cos^2 = 1, beyond the zero test
        doc = tmp_path / "trig.forms"
        doc.write_text(
            "vars x, y\nform q = (1 - cos(x)^2)*y*dx + (x - sin(x)*cos(x))/2*dy\n")
        code, _, _ = run_cli("classify", str(doc))
        assert code == 0
        code, _, _ = run_cli("--strict", "classify", str(doc))
        assert code == 1

    def test_strict_ok_when_definite(self):
        code, _, _ = run_cli("--strict", "classify", BASIC)
        assert code == 0

    def test_bad_grid(self):
        code, _, err = run_cli("pseudostructure", BALANCE, "--grid", "2")
        assert code == 2
        assert "grid" in err
        # 10^10 nodes: rejected by the node-count bound before any array is built
        for command in ("pseudostructure", "balance-scan"):
            code, out, err = run_cli(command, BALANCE, "--grid", "100000")
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "grid" in err

    def test_bad_box(self):
        for box in ("1:0,0:1", "-inf:inf,0:1", "-1e308:1e308,0:1"):
            code, out, err = run_cli("pseudostructure", BALANCE, f"--box={box}")
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "Traceback" not in err

    @staticmethod
    def assert_one_error(*argv):
        code, out, err = run_cli(*argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.count("error:") == 1
        return err

    def test_tolerance_must_be_positive_and_finite(self):
        for command in ("pseudostructure", "balance-scan"):
            for tol in ("nan", "inf", "0"):
                self.assert_one_error(command, BALANCE, "--grid", "21", "--tol", tol)

    def test_step_size_must_be_positive_and_finite(self):
        for h in ("nan", "inf", "0"):
            self.assert_one_error("characteristics", BASIC, "--scalar", "f",
                                  "--start", "1,0", "--h", h)

    def test_curve_steps_and_start_are_checked(self):
        # (0, 0) is a critical point of f, so an unchecked run stops at once
        for steps in ("0", "100000000"):
            self.assert_one_error("characteristics", BASIC, "--scalar", "f",
                                  "--start", "0,0", "--steps", steps)
        self.assert_one_error("characteristics", BASIC, "--scalar", "f", "--start", "1,0,3")

    def test_curve_start_outside_the_domain_exits_2(self, tmp_path):
        doc = tmp_path / "log.forms"
        doc.write_text("vars x, y\nscalar f = ln(x)\n")
        self.assert_one_error("characteristics", str(doc), "--scalar", "f", "--start=-1,0")
        # as a separate word, argparse takes -1,0 for an option and exits 2 itself
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
            main(["characteristics", str(doc), "--scalar", "f", "--start", "-1,0"])
        assert exit_info.value.code == 2
        assert err.getvalue().count("error:") == 1 and "Traceback" not in err.getvalue()

    def test_every_below_1_exits_2(self):
        for every in ("0", "-5"):
            self.assert_one_error("characteristics", BASIC, "--scalar", "f",
                                  "--start", "1,0", "--steps", "20", "--every", every)

    def test_negative_values_pass_after_an_equals_sign(self):
        for argv in (("characteristics", BASIC, "--scalar", "f", "--start=-1,0", "--steps", "5"),
                     ("pseudostructure", BALANCE, "--grid", "11", "--box=-2:2,-2:2"),
                     ("balance-scan", BALANCE, "--grid", "11", "--box=-2:2,-2:2"),
                     ("stokes", BASIC, "--rect=-1,0,-1,0")):
            code, out, err = run_cli(*argv)
            assert code == 0, (argv, err)
            assert out and err == ""

    def test_file_that_is_not_utf8_exits_2(self, tmp_path):
        bad = tmp_path / "bad.forms"
        for data, where in ((b"\xff\xfe bad", "line 1, column 1"),
                            ("vars x, y\r\n# café ".encode() + b"\xe9\n", "line 2, column 8")):
            bad.write_bytes(data)
            code, out, err = run_cli("d", str(bad))
            assert (code, out) == (2, "")
            assert err == f"error: {bad}: {where}: not valid UTF-8\n"

    @pytest.mark.parametrize("text, message", [
        ("9" * 5001 + "*dx", "line 2, column 10: number literal has too many digits"),
        # a 6,021-digit constant, past what str() of an int may print
        ("2^20000*x*dy", "a constant power would need more than 14000 bits"),
        # powers under the bound whose product, or whose expansion's coefficients, pass it
        ("2^13000*3^8000*x*dy", "line 2, column 10: a constant would need more than 14000 bits"),
        ("(2^300 + 2^300*x)^64*dy", "line 2, column 27: a constant would need more than 14000 bits"),
    ], ids=["literal", "power", "product", "expansion"])
    def test_oversized_constant_exits_2(self, tmp_path, text, message):
        doc = tmp_path / "big.forms"
        doc.write_text(f"vars x, y\nform a = {text}\n")
        assert message in self.assert_one_error("d", str(doc))

    def test_bound_passed_while_parsing_exits_2_with_its_position(self, tmp_path):
        doc = tmp_path / "big.forms"
        for text, where in (("2^20000*x*dy", "line 2, column 11: a constant power would need more than 14000 bits"),
                            ("(x + y + z + w + 1)^20*dx", "line 2, column 29: expansion needs more than 100000 "
                                                          "term products")):
            doc.write_text(f"vars x, y, z, w\nform a = {text}\n")
            assert self.assert_one_error("d", str(doc)) == f"error: {doc}: {where}\n"

    def test_deep_nesting_exits_2(self, tmp_path):
        doc = tmp_path / "deep.forms"
        doc.write_text("vars x, y\nform w = " + "(" * 300 + "x" + ")" * 300 + "*dy\n")
        code, out, err = run_cli("d", str(doc))
        assert code == 2
        assert out == ""
        assert "line 2, column " in err and "nested more than 100 levels" in err
        assert "Traceback" not in err

    def test_oversized_expansion_exits_2(self, tmp_path):
        doc = tmp_path / "big.forms"
        doc.write_text("vars x, y, z, w\nscalar s = (x + y + z + w)^64\n")
        start = time.perf_counter()
        code, out, err = run_cli("d", str(doc))
        assert time.perf_counter() - start < 30.0  # unbounded, it runs for minutes
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "term products" in err
        assert "Traceback" not in err

    def test_overflow_under_sin_exits_2(self, tmp_path):
        doc = tmp_path / "wave.forms"
        doc.write_text("vars x, y\nscalar f = sin(x*y)\n")
        code, out, err = run_cli("characteristics", str(doc), "--scalar", "f",
                                 "--start", "1e200,1e200", "--steps", "3")
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_deep_name_chain_exits_2(self, tmp_path):
        # each name is inlined, so the chain nests 1200 calls though no
        # statement nests more than two levels
        lines = ["vars x, y", "scalar s0 = x"]
        lines += [f"scalar s{i} = sin(s{i - 1})" for i in range(1, 1200)]
        lines.append("form a = s1199*dx + y*dy")
        doc = tmp_path / "chain.forms"
        doc.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli("d", str(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "line 1202, column 1" in err
        assert "nested too deeply" in err
        assert "Traceback" not in err

    def test_deep_name_chain_in_a_relation_exits_2(self, tmp_path):
        lines = ["vars x, y", "scalar s0 = x"]
        lines += [f"scalar s{i} = sin(s{i - 1})" for i in range(1, 1200)]
        lines.append("relation r: d(s1199) = s1199*dx")
        doc = tmp_path / "chain.forms"
        doc.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli("relation", str(doc))
        assert (code, out) == (2, "")
        assert "line 1202, column 1: expression nested too deeply once names are inlined" in err

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_errors_exit_2(self, monkeypatch, error):
        import skewforms.cli

        def exhausted(args, reporter):
            raise error()

        monkeypatch.setattr(skewforms.cli, "_cmd_d", exhausted)
        code, out, err = run_cli("d", BASIC)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_wedge_degree_error(self):
        code, _, err = run_cli("wedge", CONTACT, "area", "area")
        assert code == 0  # 2+2 clamps to the zero form, not an error


FUZZ_PIECES = ("(", ")", "((", "))", "@", "é", "\t", "\n", ";", "#", "9" * 4400, "2^9999*",
               "(x+y)^64*", "0^-1*", "x", "dx", "^", "*", "/", "+", "-", "=", ",", "3.25")
FUZZ_COMMANDS = (("d",), ("classify",), ("relation",), ("frobenius",), ("star",), ("stokes",),
                 ("pseudostructure", "--grid", "5"), ("balance-scan", "--grid", "5"))


def test_cli_contract_on_mutated_documents(tmp_path):
    """300 mutated corpus documents, spread over the subcommands: each call exits 0, 1 or 2,
    an exit 2 prints one 'error: ' line, and a parse error's position lies inside the text."""
    rng = random.Random(0xC0A7)
    corpus = [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.forms"))]
    for i in range(300):
        chars = list(rng.choice(corpus))
        for _ in range(rng.randint(1, 2)):
            pos = rng.randrange(len(chars) + 1)
            chars[pos:pos + rng.randint(0, 1)] = [rng.choice(FUZZ_PIECES)]   # insert or replace
        text = "".join(chars)
        doc = tmp_path / f"{i}.forms"   # a new file: truncating one can wait for a flush
        doc.write_text(text, encoding="utf-8")
        command, *options = FUZZ_COMMANDS[i % len(FUZZ_COMMANDS)]
        code, out, err = run_cli(command, str(doc), *options)
        assert code in (0, 1, 2), (command, text)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (command, text, err)
            if match := re.match(rf"error: {re.escape(str(doc))}: line (\d+), column (\d+): ", err):
                line, column = map(int, match.groups())
                lines = text.split("\n")
                assert 1 <= line <= len(lines) and 1 <= column <= len(lines[line - 1]) + 1, (text, err)


def assert_input_error(argv, message):
    """Exit 2, nothing on stdout and one error line that holds the message."""
    code, out, err = run_cli(*argv)
    assert code == 2, argv
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert message in err, err


LOOKUP_ERRORS = [
    (("star", BASIC, "--name", "nope"), "no declaration named 'nope'"),
    (("classify", BASIC, "--name", "good"), "'good' is not a form"),
    (("wedge", BASIC, "w", "nope"), "no declaration named 'nope'"),
    (("characteristics", BASIC, "--scalar", "nope", "--start", "1,0"),
     "no declaration named 'nope'"),
    (("characteristics", BASIC, "--scalar", "w", "--start", "1,0"), "'w' is not a scalar"),
    (("relation", BASIC, "--name", "nope"), "no declaration named 'nope'"),
    (("relation", BASIC, "--name", "w"), "'w' is not a relation"),
    (("relation", CONTACT), "no relation declarations in the document"),
    (("balance-scan", BALANCE, "--name", "nope"), "no declaration named 'nope'"),
    (("balance-scan", BALANCE, "--name", "omega"), "'omega' is not a balance"),
    (("balance-scan", BASIC), "no balance declarations in the document"),
]


class TestInputErrors:
    """Every lookup and option-parsing error path of the CLI."""

    @pytest.mark.parametrize("argv, message", LOOKUP_ERRORS,
                             ids=[" ".join(Path(a).name for a in argv) for argv, _ in LOOKUP_ERRORS])
    def test_lookup_errors(self, argv, message):
        assert_input_error(argv, message)

    def test_a_named_scalar_is_a_0_form(self):
        code, out, err = run_cli("d", BASIC, "--name", "f")
        assert (code, out, err) == (0, "d(f) = 2*x*dx + 2*y*dy\n", "")
        assert_input_error(("frobenius", CONTACT, "--name", "area"), "needs a 1-form")
        for command in ("frobenius", "stokes", "pseudostructure"):
            assert_input_error((command, BASIC, "--name", "f"), "1-form")

    def test_no_1_forms_to_run(self, tmp_path):
        doc = tmp_path / "two.forms"
        doc.write_text("vars x, y, z\nscalar s = x\nform area = dx^dy\n")
        for command in ("frobenius", "stokes", "pseudostructure"):
            assert_input_error((command, str(doc)), "no 1-form declarations in the document")
        code, out, _ = run_cli("d", str(doc))
        assert code == 0 and out.startswith("d(area) = ")

    @pytest.mark.parametrize("argv, message", [
        (("characteristics", BASIC, "--scalar", "f", "--start", "1,x"),
         "cannot parse start point: '1,x'"),
        (("stokes", BASIC, "--rect", "0,1,y,1"), "cannot parse rectangle: '0,1,y,1'"),
        (("pseudostructure", BALANCE, "--box", "0:1:2,0:1"),
         "box ranges look like lo:hi, got '0:1:2'"),
        (("balance-scan", BALANCE, "--box", "0:1,a:1"), "cannot parse box range 'a:1'"),
    ], ids=["start", "rect", "box-chunk", "box-float"])
    def test_bad_numbers(self, argv, message):
        assert_input_error(argv, message)

    def test_every_keeps_the_last_point(self):
        argv = ("characteristics", BASIC, "--scalar", "f", "--start", "1,0",
                "--steps", "20", "--every", "7")
        code, out, _ = run_cli(*argv)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 5  # points 0, 7, 14 and 20, then the summary
        assert lines[-1].startswith("f: 21 points")
        code, out, _ = run_cli("--format", "jsonl", *argv)
        record = json.loads(out)
        phi = parse(Path(BASIC).read_text()).find("f").expr
        curve = characteristic_curve(phi, VariableSet(["x", "y"]), (1.0, 0.0), 20, 1e-3)
        assert record["points"] == [list(curve[i]) for i in (0, 7, 14, 20)]
        levels = [evaluate(phi, {"x": px, "y": py}) for px, py in curve]
        assert record["drift"] == max(abs(level - levels[0]) for level in levels)
        assert lines[3] == " ".join(f"{v:.12g}" for v in curve[20])


# one verdict that the zero test cannot decide: 8^(1/2) - 2*2^(1/2) evaluates
# to roundoff, and the homotopy potential of d = that constant does not verify
UNDECIDED = """vars x, y, z
form exp_grad = exp(x)*sin(y)*dx + exp(x)*cos(y)*dy
form tilted = dz + (8^(1/2) - 2*2^(1/2))*x*dy
relation radical: d(x) = (1 + 8^(1/2) - 2*2^(1/2))*dx
"""


class TestStrict:
    @pytest.mark.parametrize("argv, unknown", [
        (("classify", "--name", "exp_grad"), "closed, unknown"),
        (("relation",), "radical: UNKNOWN"),
        (("frobenius", "--name", "tilted"), "tilted: unknown"),
    ], ids=["classify", "relation", "frobenius"])
    def test_unknown_exits_1(self, tmp_path, argv, unknown):
        doc = tmp_path / "undecided.forms"
        doc.write_text(UNDECIDED)
        command, *rest = argv
        code, out, err = run_cli(command, str(doc), *rest)
        assert code == 0 and err == "" and unknown in out
        assert run_cli("--strict", command, str(doc), *rest) == (1, out, "")

    def test_unknown_balance_exits_1(self, tmp_path):
        doc = tmp_path / "balance.forms"
        doc.write_text("vars xi1, xi2\nbalance r: A = (8^(1/2)*xi2, 2*2^(1/2)*xi1)\n")
        code, out, err = run_cli("balance-scan", str(doc), "--grid", "11")
        assert code == 0 and err == "" and out.startswith("r: UNKNOWN;")
        assert run_cli("--strict", "balance-scan", str(doc), "--grid", "11") == (1, out, "")

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_bundled_corpus_exits_0(self, name):
        argv = GOLDEN_RUNS[name]
        head = 2 if argv[0] == "--format" else 0
        code, out, err = run_cli(*argv[:head], "--strict", *argv[head:])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text(encoding="utf-8")


class TestJsonSchema:
    REQUIRED = {
        "classify": {"kind": str, "name": str, "closed": str, "exact": str,
                     "potential": (str, type(None)), "notes": str},
        "relation": {"kind": str, "name": str, "verdict": str, "residual": str,
                     "commutator": (dict, type(None))},
        "d": {"kind": str, "name": str, "result": str},
        "star": {"kind": str, "name": str, "result": str},
        "wedge": {"kind": str, "left": str, "right": str, "result": str},
        "frobenius": {"kind": str, "name": str, "verdict": str},
        "stokes": {"kind": str, "name": str, "rect": list, "boundary": float,
                   "area": float, "difference": float},
        "pseudostructure": {"kind": str, "name": str, "locus_kind": str,
                            "description": str, "points": list, "intensity": float,
                            "dual_residual": str,
                            "restricted_form": (str, type(None)),
                            "restricted_closure": (str, type(None))},
        "balance-scan": {"kind": str, "name": str, "verdict": str, "label": str,
                         "locus_kind": str, "points": list, "intensity": float,
                         "psi": (str, type(None)),
                         "identity_on_locus": (str, type(None))},
        "characteristics": {"kind": str, "scalar": str, "start": list,
                            "steps": int, "h": float, "drift": float,
                            "truncated": bool, "points": list},
        "table": {"kind": str, "p": int, "n": int, "rows": list,
                  "note": (str, type(None))},
    }

    RUNS = [
        ("classify", BASIC),
        ("relation", BASIC),
        ("d", BASIC),
        ("star", MIXED),
        ("wedge", BASIC, "w", "grad"),
        ("frobenius", CONTACT),
        ("stokes", BASIC),
        ("pseudostructure", BALANCE, "--name", "omega", "--grid", "11"),
        ("balance-scan", BALANCE, "--grid", "11"),
        ("characteristics", BASIC, "--scalar", "f", "--start", "1,0",
         "--steps", "5", "--every", "5"),
        ("table", "2", "3"),
    ]

    @pytest.mark.parametrize("args", RUNS, ids=lambda a: a[0])
    def test_records_match_schema(self, args):
        code, out, err = run_cli("--format", "jsonl", *args)
        assert code == 0, err
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines
        for line in lines:
            record = json.loads(line)
            kind = record["kind"]
            schema = self.REQUIRED[kind]
            for key, types in schema.items():
                assert key in record, f"{kind} record missing {key}"
                assert isinstance(record[key], types), (kind, key, record[key])


def test_module_entrypoint_runs_without_install():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "skewforms.cli", "table", "1", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "k=1 dim=2" in proc.stdout


@pytest.mark.parametrize("link, links", [("sin(s{})", 300), ("(s{} + x^2 + 1)^(1/2)", 100)])
def test_deep_name_chains_run_in_bounded_time(tmp_path, link, links):
    """The chain rule multiplies n factors as deep as the chain; their sort keys compare
    heights first, so such a chain takes well under a second, not minutes."""
    lines = ["vars x, y", "scalar s0 = x*y"]
    lines += [f"scalar s{i} = {link.format(i - 1)}" for i in range(1, links)]
    doc = tmp_path / "chain.forms"
    doc.write_text("\n".join(lines) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "skewforms.cli", "characteristics", str(doc), "--scalar", f"s{links - 1}",
         "--start=0.1,0.1", "--steps", "3"],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("0.1 0.1\n") and f"s{links - 1}: 4 points" in proc.stdout


def test_closed_stdout_exits_1_without_a_stack_trace():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "skewforms.cli", "characteristics", BASIC, "--scalar", "f",
         "--start", "1,0", "--steps", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"1 0\n"
    proc.stdout.close()  # as `| head -1` does
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


NUMPY_PROBE = """
import sys
import skewforms, skewforms.cli
code = skewforms.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *(name in sys.modules for name in ("numpy", "inspect", "json", "dataclasses")))
"""


@pytest.mark.parametrize("argv, loads_numpy", [
    ((), False),
    (("d", BASIC), False),
    (("--format", "jsonl", "classify", BASIC), False),
    (("characteristics", BASIC, "--scalar", "f", "--start", "1,0", "--steps", "20"), False),
    (("table", "1", "2"), False),
    # a scan of at most analysis.SCALAR_SCAN_NODES (4096) nodes runs in scalar mode alone
    (("pseudostructure", BALANCE, "--name", "omega", "--grid", "21"), False),
    (("balance-scan", BALANCE, "--grid", "21"), False),
    (("pseudostructure", BALANCE, "--name", "omega", "--grid", "64"), False),  # 4,096 nodes
    (("pseudostructure", BALANCE, "--name", "omega", "--grid", "65"), True),  # 4,225 nodes
    (("pseudostructure", BALANCE, "--name", "omega", "--grid", "101"), True),  # 10,201 nodes
], ids=["import", "d", "classify", "characteristics", "table", "pseudostructure", "balance-scan",
        "pseudostructure-4096-nodes", "pseudostructure-4225-nodes", "pseudostructure-10201-nodes"])
def test_numpy_is_imported_only_by_grid_scans(argv, loads_numpy):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, numpy, inspect, json_, dataclasses = proc.stdout.splitlines()[-1].split()
    assert (code, numpy, dataclasses) == ("0", str(loads_numpy), "False")
    # numpy imports inspect itself; json serves --format jsonl alone
    assert inspect == "False" or loads_numpy
    assert json_ == str("jsonl" in argv)


ULP_DOCS = {
    "plane.forms": """vars x, y
form e = exp(x)*sin(y)*dx + (x^2 + cos(x*y) - 1)*dy
form l = y*ln(2 + x)*dx + (y^2 - 1/4)*exp(x/2)*dy
balance b: A = (sin(x)*y, x*exp(y) - ln(2 + y))
""",
    "space.forms": """vars x, y, z
form s = exp(z/2)*(sin(x - 1/4)^2 + ln(2 + y)^2)*dz
""",
}


def test_small_scans_do_not_depend_on_numpy_float_bits(tmp_path, monkeypatch):
    """Array-mode sin, cos, exp and ln moved by one ulp leave every scan of at
    most 4096 nodes byte for byte as it was; a larger scan reads them."""
    import numpy as np
    from skewforms import expr

    for name, text in ULP_DOCS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    plane, space = str(tmp_path / "plane.forms"), str(tmp_path / "space.forms")
    helpers = expr._array_helpers()
    moved = dict(helpers)
    for fn, toward in (("_sin", np.inf), ("_cos", -np.inf), ("_exp", np.inf), ("_ln", -np.inf)):
        moved[fn] = lambda a, fn=fn, toward=toward: np.nextafter(helpers[fn](a), toward)

    def outputs(calls, array_helpers):
        monkeypatch.setattr(expr, "_array_helpers", array_helpers)
        return [run_cli(*argv) for argv in calls]

    small, large = [], []
    for fmt in ("text", "jsonl"):
        for grid, calls in ((21, small), (64, small), (65, large)):
            calls.append(("--format", fmt, "pseudostructure", plane, "--grid", str(grid)))
            calls.append(("--format", fmt, "balance-scan", plane, "--grid", str(grid)))
        for grid, calls in ((9, small), (16, small), (17, large)):
            calls.append(("--format", fmt, "pseudostructure", space, "--grid", str(grid)))
    want = outputs(small, lambda: helpers)
    assert all(code == 0 for code, _, _ in want)
    # forms l and s at two grids each, in text and jsonl, and the balance b likewise
    assert sum(out.count("point cloud (") for _, out, _ in want) == 8
    assert sum(out.count("equilibrium pseudostructure realized") for _, out, _ in want) == 4
    assert outputs(small, lambda: moved) == want
    # the control: above the bound the scan runs in array mode and its output moves
    assert outputs(large, lambda: moved) != outputs(large, lambda: helpers)
