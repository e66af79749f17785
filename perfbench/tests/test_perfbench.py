"""Tests of the end-to-end benchmark itself: inputs, answers and output."""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import launcher  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _sources(generated):
    if isinstance(generated, inputs.ServeInputs):
        return [p.source for p in generated.hot] + [p.source for _, p in generated.stream]
    return [p.source for round_programs in generated for p in round_programs]


@pytest.mark.parametrize("workload", ["check", "validate", "tune"])
def test_generator_is_deterministic_per_seed(workload):
    generate = inputs.GENERATORS[workload]
    assert _sources(generate(7)) == _sources(generate(7))
    assert _sources(generate(7)) != _sources(generate(8))


def test_serve_stream_is_deterministic_per_seed():
    first = _sources(inputs.serve_inputs(7, requests=300))
    assert first == _sources(inputs.serve_inputs(7, requests=300))
    assert first != _sources(inputs.serve_inputs(8, requests=300))


def test_serve_stream_has_a_fixed_mix_per_run():
    for seed in (7, 8):
        stream = inputs.serve_inputs(seed, requests=300).stream
        repeats = [p for repeat, p in stream if repeat]
        first_seen = [p.name for repeat, p in stream if not repeat]
        assert len(repeats) == 120
        assert len(first_seen) == len(set(first_seen))
        large = [n for n in first_seen if int(re.match(r"[a-z]+(\d+)_", n).group(1)) >= 100]
        assert len(large) == 300 // inputs.SERVE_LARGE_EVERY


def test_a_missing_hot_report_lru_is_reported():
    tracer = launcher.Tracer()
    report_bytes = tracer._hot_wrapper(lambda service, key, report: b"{}", "span")

    class Service:
        pass

    assert report_bytes(Service(), "key", object()) == b"{}"
    assert tracer.notes["missing"] == [launcher.HOT_REPORTS]
    assert tracer.notes["hot_hits"] == 0


def test_metric_names_use_the_allowed_charset():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert per_layer == [name for name, _ in layers.METRICS]
    for name in end_to_end + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.match(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)


def test_known_answers_cover_every_pool_entry():
    pool = inputs.corpus(("examples", "paper", "table3", "table4", "table5"))
    shipped = sorted(os.listdir(os.path.join(ROOT, "examples", "programs")))
    assert sorted(inputs.EXAMPLE_GRADES) == shipped
    for program in pool:
        how, expected = program.answer
        assert how in ("relative", "grade", "type"), program.name
        assert expected, program.name
    names = {p.name for p in pool}
    assert set(inputs.KNOWN_DEVIATIONS) <= names
    for strata in (inputs.VALIDATE_STRATA, inputs.TUNE_STRATA):
        # Every stratum name resolves to a pool entry (KeyError otherwise).
        assert inputs._stratified(0, strata, pool)
    for family in inputs.FAMILIES:
        for syntax in inputs.SYNTAXES:
            program = inputs.generated_program(family, syntax, 3, "t")
            assert program.answer[0] == "grade"


def test_answer_checks_accept_the_reference_output_and_reject_others():
    program = inputs.corpus(("table3",))[0]  # hypot: 5.55e-16
    good = ops.Outcome(0, "hypot: M[5/2*eps]num\n  RP error grade : 5/2*eps\n"
                          "  relative error : 5.551e-16\n", "", 0.1, 1.0)
    assert ops.check_ok(program, good)
    wrong = ops.Outcome(0, good.stdout.replace("5.551e-16", "6.661e-16"), "", 0.1, 1.0)
    assert not ops.check_ok(program, wrong)
    crashed = ops.Outcome(1, good.stdout, "Traceback (most recent call last):", 0.1, 1.0)
    assert not ops.check_ok(program, crashed)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, samples = run.tail([float(i) for i in range(1, 101)])
    assert (value, percentile, samples) == (90.0, 90.0, 100)


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _one_round(monkeypatch, workload, programs):
    monkeypatch.setitem(inputs.GENERATORS, workload, lambda seed: [programs])


@pytest.fixture
def few_setups(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", {workload: 2 for workload in run.WORKLOADS})


def test_wrong_expected_value_counts_as_a_failure(monkeypatch, capsys, few_setups):
    hypot = inputs.corpus(("table3",))[0]
    wrong = inputs.Program(hypot.name, hypot.pool, hypot.kind, hypot.source,
                           hypot.function, ("relative", 1e-3))
    _one_round(monkeypatch, "check", [hypot, wrong])
    assert run.main(["--workload", "check", "--seed", "1", "--seconds", "0"]) == 0
    result = _last_json(capsys)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["correct"] is False


SMOKE = {
    "check": lambda: [inputs.corpus(("examples",))[0],
                      inputs.generated_program("sum", "fpcore", 20, "s")],
    "validate": lambda: inputs.corpus(("table3",))[:2],
    "tune": lambda: inputs.corpus(("table3",))[1:2],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["check", "validate", "tune", "serve"])
def test_smoke_run_prints_every_named_metric(monkeypatch, capsys, few_setups, workload, trace):
    if workload == "serve":
        small = inputs.serve_inputs(3, requests=60)
        monkeypatch.setattr(inputs, "serve_inputs", lambda seed, requests: inputs.ServeInputs(
            small.hot[:4], small.stream[:requests]))
        seconds = "0.5"
    else:
        _one_round(monkeypatch, workload, SMOKE[workload]())
        seconds = "0"
    argv = ["--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", str(trace)]
    assert run.main(argv) == 0
    output = capsys.readouterr().out
    result = json.loads(output.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = layers.METRICS if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _ in expected]
    for name, unit in expected:
        assert result["metrics"][name]["unit"] == unit
        assert name in output
    if trace:
        assert "dominant layer" in output
    else:
        assert "error_rate" in output
