"""Tests for the command-line interface (``python -m repro``)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples", "programs")

FMA_SOURCE = """
function FMA (x: num) (y: num) (z: num) : M[eps]num {
  a = mul (x, y);
  b = add (|a, z|);
  rnd b
}
"""


@pytest.fixture()
def fma_file(tmp_path):
    path = tmp_path / "fma.lnum"
    path.write_text(FMA_SOURCE)
    return str(path)


def run_repro(*arguments, code=""):
    """Run ``python -c code`` (default: the CLI on ``arguments``) from a checkout."""
    environment = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    command = ["-c", code] if code else ["-m", "repro", *arguments]
    return subprocess.run(
        [sys.executable, *command],
        capture_output=True, text=True, env=environment, cwd=ROOT, timeout=120,
    )


@pytest.fixture()
def bad_grade_dir(tmp_path):
    """``horner2.lnum`` with an empty result grade ``M[]num``, next to ``fma.lnum``."""
    with open(os.path.join(EXAMPLES, "horner2.lnum")) as handle:
        source = handle.read()
    broken = source.replace(": M[2*eps]num {", ": M[]num {")
    assert broken != source
    (tmp_path / "horner2.lnum").write_text(broken)
    with open(os.path.join(EXAMPLES, "fma.lnum")) as handle:
        (tmp_path / "fma.lnum").write_text(handle.read())
    return tmp_path


HUGE_GRADE_SOURCE = """
function Huge (x: ![1e99999]num) : M[1e99999*eps]num {
  let [y] = x;
  rnd y
}
"""


@pytest.fixture()
def huge_grade_dir(tmp_path):
    """A program whose grades pass CPython's 4,300-digit ``str`` limit, next to ``fma.lnum``."""
    (tmp_path / "huge.lnum").write_text(HUGE_GRADE_SOURCE)
    with open(os.path.join(EXAMPLES, "fma.lnum")) as handle:
        (tmp_path / "fma.lnum").write_text(handle.read())
    return tmp_path


class TestCheckCommand:
    def test_check_prints_grades(self, fma_file, capsys):
        assert main(["check", fma_file]) == 0
        output = capsys.readouterr().out
        assert "FMA" in output and "eps" in output and "relative error" in output

    def test_check_single_function(self, fma_file, capsys):
        assert main(["check", fma_file, "-f", "FMA"]) == 0
        assert "FMA" in capsys.readouterr().out

    def test_check_unknown_function(self, fma_file):
        with pytest.raises(SystemExit):
            main(["check", fma_file, "-f", "nope"])

    def test_check_example_program(self, capsys):
        path = os.path.join(EXAMPLES, "horner2.lnum")
        assert main(["check", path]) == 0
        output = capsys.readouterr().out
        assert "Horner2" in output and "2*eps" in output

    def test_check_conditional_example(self, capsys):
        path = os.path.join(EXAMPLES, "pythagorean_sum.lnum")
        assert main(["check", path]) == 0
        output = capsys.readouterr().out
        assert "4*eps" in output

    def test_annotation_violation_sets_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.lnum"
        path.write_text("function f (x: num) : M[0]num { rnd x }\n")
        assert main(["check", str(path)]) == 1

    def test_parse_error_is_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.lnum"
        path.write_text("function f (x num { rnd x }")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/does/not/exist.lnum"]) == 2

    def test_bad_grade_annotation_is_a_located_error(self, bad_grade_dir):
        completed = run_repro("check", str(bad_grade_dir / "horner2.lnum"))
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert "invalid grade annotation" in completed.stderr
        assert "line 16" in completed.stderr

    def test_huge_grade_literals_are_printed(self, huge_grade_dir):
        completed = run_repro("check", str(huge_grade_dir / "huge.lnum"))
        assert completed.returncode == 0, completed.stderr
        assert "Traceback" not in completed.stderr
        assert "(![1" + "0" * 99999 + "]num -o M[eps]num)" in completed.stdout
        assert "M[1" + "0" * 99999 + "*eps]num [ok]" in completed.stdout

    def test_stdin_input(self, fma_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(FMA_SOURCE))
        assert main(["check", "-"]) == 0

    def test_binary32_instantiation_scales_the_bound(self, tmp_path, capsys):
        # The program carries no annotation, so only the instantiation changes.
        path = tmp_path / "plain.lnum"
        path.write_text("function f (x: num) (y: num) { a = mul (x, y); rnd a }\n")
        assert main(["check", str(path), "--format", "binary32"]) == 0
        output = capsys.readouterr().out
        assert "1.192e-07" in output or "1.19e-07" in output


class TestFpcoreCommand:
    def test_fpcore_example(self, capsys):
        path = os.path.join(EXAMPLES, "hypot.fpcore")
        assert main(["fpcore", path]) == 0
        output = capsys.readouterr().out
        assert "hypot" in output and "5/2*eps" in output


class TestTableCommand:
    def test_table1(self, capsys):
        assert main(["table", "table1"]) == 0
        assert "binary64" in capsys.readouterr().out

    def test_table5(self, capsys):
        assert main(["table", "table5"]) == 0
        output = capsys.readouterr().out
        assert "squareRoot3" in output


class TestErrorPaths:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unreadable_source_is_exit_code_2(self, tmp_path, capsys):
        # A directory path opens with an OSError that is not FileNotFoundError.
        assert main(["check", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["check", "/does/not/exist.lnum"]) == 2
        assert main(["fpcore", "/does/not/exist.fpcore"]) == 2
        assert main(["validate", "/does/not/exist.lnum"]) == 2
        capsys.readouterr()

    def test_malformed_input_assignments(self, fma_file):
        # No separator at all.
        with pytest.raises(SystemExit):
            main(["validate", fma_file, "-f", "FMA", "-i", "x0.1"])
        # Separator present but the value is not a rational.
        with pytest.raises(SystemExit):
            main(["validate", fma_file, "-f", "FMA", "-i", "x=abc"])
        # Division by zero inside a rational literal.
        with pytest.raises(SystemExit):
            main(["validate", fma_file, "-f", "FMA", "-i", "x=1/0"])

    def test_batch_failure_exit_code(self, tmp_path, capsys):
        broken = tmp_path / "broken.lnum"
        broken.write_text("function f (x num { rnd x }")
        assert main(["batch", str(broken), "--no-cache"]) == 2
        assert "failure" in capsys.readouterr().out

    def test_batch_reports_a_bad_grade_as_one_error_row(self, bad_grade_dir, capsys):
        assert main(["batch", str(bad_grade_dir), "--no-cache", "--json"]) == 2
        programs = {
            os.path.basename(entry["name"]): entry
            for entry in json.loads(capsys.readouterr().out)["programs"]
        }
        assert programs["fma.lnum"]["ok"] is True
        assert programs["horner2.lnum"]["ok"] is False
        assert "line 16" in programs["horner2.lnum"]["error"]

    def test_batch_sweeps_past_a_huge_grade_literal(self, huge_grade_dir, capsys):
        assert main(["batch", str(huge_grade_dir), "--no-cache", "--json"]) == 0
        programs = {
            os.path.basename(entry["name"]): entry
            for entry in json.loads(capsys.readouterr().out)["programs"]
        }
        assert programs["fma.lnum"]["ok"] is True
        assert programs["huge.lnum"]["ok"] is True

    def test_batch_annotation_violation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.lnum"
        bad.write_text("function f (x: num) : M[0]num { rnd x }\n")
        assert main(["batch", str(bad), "--no-cache"]) == 1
        capsys.readouterr()


class TestVersionAndWiring:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_perf_is_a_real_subparser(self):
        # The perf flags parse through the main parser (no REMAINDER hack).
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["perf", "--quick", "--no-legacy", "--sizes", "100", "--out", "/tmp/x.json"]
        )
        assert arguments.command == "perf"
        assert arguments.quick and arguments.no_legacy
        assert arguments.sizes == "100"

    def test_serve_and_query_parse(self):
        from repro.cli import build_parser

        serve = build_parser().parse_args(["serve", "--port", "0", "--jobs", "2"])
        assert serve.command == "serve" and serve.jobs == 2
        query = build_parser().parse_args(["query", "p.lnum", "--priority", "bulk"])
        assert query.command == "query" and query.priority == "bulk"

    @pytest.mark.parametrize("command", [["batch", EXAMPLES], ["serve"]], ids=["batch", "serve"])
    def test_engine_flag_is_rejected(self, command):
        from repro.cli import build_parser

        build_parser().parse_args(command)
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--engine", "interpreted"])

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("flag", ["--shards", "--shard-entries"])
    def test_cache_geometry_flags_are_rejected(self, flag, workers):
        from repro.cli import build_parser

        build_parser().parse_args(["serve", "--workers", workers])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", workers, flag, "4"])

    def test_numpy_is_never_imported(self):
        probe = "import sys, repro.cli; print('numpy' in sys.modules)"
        assert run_repro(code=probe).stdout.strip() == "False"
        check = (
            "import sys, repro.cli\n"
            "code = repro.cli.main(['check', 'examples/programs/horner2.lnum'])\n"
            "print(code, 'numpy' in sys.modules)"
        )
        assert run_repro(code=check).stdout.strip().splitlines()[-1] == "0 False"

    def test_query_requires_paths_or_stats(self):
        with pytest.raises(SystemExit):
            main(["query"])


class TestValidateCommand:
    def test_validate_function(self, fma_file, capsys):
        code = main(
            ["validate", fma_file, "-f", "FMA", "-i", "x=0.1", "-i", "y=0.2", "-i", "z=0.3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "bound holds      : True" in output

    def test_validate_requires_all_inputs(self, fma_file):
        with pytest.raises(SystemExit):
            main(["validate", fma_file, "-f", "FMA", "-i", "x=0.1"])

    def test_validate_bad_assignment(self, fma_file):
        with pytest.raises(SystemExit):
            main(["validate", fma_file, "-f", "FMA", "-i", "x:1"])

    def test_validate_bare_expression(self, tmp_path, capsys):
        path = tmp_path / "expr.lnum"
        path.write_text("s = mul (x, x); rnd s\n")
        assert main(["validate", str(path), "-i", "x=0.7"]) == 0
