"""Running one operation of the program under test and checking its answer.

A CLI operation is one cold ``python3 -m repro ...`` process (or the same
command under the tracing launcher).  Its wall time is measured from spawn
to reaping, and its peak resident memory comes from ``wait4``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from inputs import Program

#: Generous per-operation limit; a timeout counts as a failure.
OP_TIMEOUT_S = 120.0

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    timed_out: bool = False


def program_env(root: str, cache_dir: str) -> Dict[str, str]:
    """The environment every child gets: the checkout's ``src`` and a
    fresh cache directory, so no run reads ``~/.cache/repro-lnum``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    env.pop("REPRO_FAULTS", None)
    return env


def run_process(argv: Sequence[str], env: Dict[str, str], cwd: str,
                timeout: float = OP_TIMEOUT_S) -> Outcome:
    """Spawn, wait and reap one child; stdout and stderr go to files in
    ``cwd`` so a chatty child can never block on a full pipe."""
    out_path = os.path.join(cwd, "op.out")
    err_path = os.path.join(cwd, "op.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(list(argv), stdout=out, stderr=err, env=env, cwd=cwd)
        expired = threading.Event()

        def kill() -> None:
            expired.set()
            child.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    # ru_maxrss is in KiB on Linux.
    return Outcome(child.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0,
                   expired.is_set())


def cli_argv(workload: str, program: Program, path: str, cache_dir: str,
             trace_out: Optional[str] = None) -> List[str]:
    """The user command for one operation, at default flags.

    With ``trace_out`` the same arguments run under the tracing launcher.
    """
    if workload == "check":
        args = ["check" if program.kind == "lnum" else "fpcore", path]
    else:
        args = [workload, path, "--seed", str(program.sample_seed), "--cache-dir", cache_dir]
    if trace_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, LAUNCHER, trace_out, "--", *args]


# -- known answers -----------------------------------------------------------------

_HEADER = re.compile(r"^(\S+): (.+)$")
_FIELD = re.compile(r"^\s+(RP error grade|relative error)\s*: (\S+)")


def parse_check(stdout: str) -> Dict[str, Dict[str, str]]:
    """``{function: {"type", "grade", "relative"}}`` from check/fpcore text."""
    reports: Dict[str, Dict[str, str]] = {}
    current: Optional[Dict[str, str]] = None
    for line in stdout.splitlines():
        header = _HEADER.match(line)
        if header:
            current = reports.setdefault(header.group(1), {"type": header.group(2)})
            continue
        field = _FIELD.match(line)
        if field and current is not None:
            key = "grade" if field.group(1).startswith("RP") else "relative"
            current[key] = field.group(2)
    return reports


def _normal_type(text: str) -> str:
    return " ".join(text.replace("(", " ").replace(")", " ").split())


def answer_matches(program: Program, report: Dict[str, object]) -> bool:
    """Does one function's report (``type``, ``grade``, ``relative``) match?"""
    how, expected = program.answer
    if how == "relative":
        try:
            return f"{float(report['relative']):.2e}" == f"{float(expected):.2e}"
        except (KeyError, TypeError, ValueError):
            return False
    if how == "grade":
        return report.get("grade") == expected
    if how == "type":
        return _normal_type(str(report.get("type", ""))) == _normal_type(str(expected))
    raise ValueError(f"unknown answer kind {how!r}")


def check_ok(program: Program, outcome: Outcome) -> bool:
    if outcome.returncode != 0 or outcome.timed_out or "Traceback" in outcome.stderr:
        return False
    report = parse_check(outcome.stdout).get(program.function)
    return report is not None and answer_matches(program, report)


_SUMMARY = re.compile(r"^(\d+) program\(s\): (\d+) sound, 0 violation\(s\), "
                      r"0 inconclusive, 0 error\(s\)$", re.M)


def validate_ok(outcome: Outcome) -> bool:
    """Exit 0 and every program ``SOUND`` (Corollary 4.20 holds)."""
    if outcome.returncode != 0 or outcome.timed_out or "Traceback" in outcome.stderr:
        return False
    summary = _SUMMARY.search(outcome.stdout)
    return bool(summary) and summary.group(1) == summary.group(2) != "0"


_TUNED = re.compile(r"^\S+: (\S+) .*certified (\S+) <= target (\S+),", re.M)
_TUNE_SUMMARY = re.compile(r"^(\d+) program\(s\): (\d+) tuned", re.M)


def tune_ok(outcome: Outcome) -> bool:
    """Exit 0, every subject ``tuned``, each certified bound <= its target."""
    if outcome.returncode != 0 or outcome.timed_out or "Traceback" in outcome.stderr:
        return False
    summary = _TUNE_SUMMARY.search(outcome.stdout)
    rows = _TUNED.findall(outcome.stdout)
    if not summary or summary.group(1) != summary.group(2) or len(rows) != int(summary.group(1)):
        return False
    return all(status == "tuned" and float(bound) <= float(target)
               for status, bound, target in rows) and bool(rows)


def serve_ok(program: Program, response: Dict[str, object]) -> bool:
    """Status ``ok`` and the same known answer as ``check``."""
    if response.get("status") != "ok":
        return False
    report = response.get("report") or {}
    for function in report.get("functions", []):
        if function.get("name") == program.function:
            return answer_matches(program, {
                "type": function.get("type"),
                "grade": function.get("error_grade"),
                "relative": function.get("relative_error_bound"),
            })
    return False
