"""End-to-end benchmark of the ``repro`` CLI and service.

    python3 perfbench/run.py --workload {check,validate,tune,serve} --seed N
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The benchmark generates its inputs from
the seed, runs the real commands at their default flags, checks every
output against a known answer and prints one line per metric followed by
a JSON summary as the last line.  ``--seconds`` sets how much work a run
measures (see ``ROUND_SECONDS``).  ``--trace 0`` reports the end-to-end
metrics with tracing off.  ``--trace 1`` runs every operation twice, once
plain and once under ``launcher.py``, and reports the per-layer metrics
from the traced runs and the tracing overhead.

``BENCHMARK.json`` lists validate, tune and serve.  ``check`` runs the same
way but is left out of that list: four workloads of this length do not fit
the benchmark's time limit, and every layer check reaches is also reached
by the other three (start-up by validate and tune, the parser, frontend
and inference by serve's first-seen programs).
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402

WORKLOADS = ("check", "validate", "tune", "serve")
#: Set-up samples per run.  A CLI run times them in batches before, between
#: and after its rounds; serve starts throwaway servers before and after the
#: loaded one.  Either way the samples span the run, so one slow moment of
#: the machine moves only a few of them, and setup_s is their median.
SETUP_SAMPLES = {"check": 15, "validate": 15, "tune": 15, "serve": 7}

#: Seconds of --seconds per round.  A run measures round(seconds / this)
#: whole rounds, and serve sends a fixed number of requests per second of
#: --seconds, so every run of a workload measures the same operations
#: however busy the machine is.  (The tail is the 11th largest sample; were
#: the count to follow the machine's speed, the tail would be a different
#: percentile from run to run.)  At 30 s a run is three validate rounds, two
#: tune rounds or 1,500 serve requests, 30-60 s on a 2-core machine as its
#: speed changes.  Validate gets the third round because its figures spread
#: the most from run to run.
ROUND_SECONDS = {"check": 10.0, "validate": 10.0, "tune": 15.0}
SERVE_REQUESTS_PER_S = 50
#: A run stops starting work once it has taken this many times --seconds.
OVERRUN = 2.0

#: End-to-end metrics, reported for every workload.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


# -- statistics ----------------------------------------------------------------------


def tail(latencies: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples).  With 10 samples or fewer there
    is no such percentile and the maximum is returned as p100.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


class Latencies:
    """Per-operation outcomes; a failed operation misses every latency
    figure, so it enters the percentiles at the operation timeout."""

    def __init__(self) -> None:
        self.values: List[float] = []
        self.failed = 0

    def add(self, seconds: float, ok: bool) -> None:
        if not ok:
            self.failed += 1
            seconds = ops.OP_TIMEOUT_S
        self.values.append(seconds * 1000.0)

    def p50(self) -> float:
        return statistics.median(self.values) if self.values else 0.0


# -- CLI workloads -------------------------------------------------------------------


def import_seconds(env: Dict[str, str], workdir: str, repeats: int) -> List[float]:
    """Fresh-interpreter times to the end of ``import repro.cli``."""
    argv = [sys.executable, "-c", "import repro.cli"]
    times = []
    for _ in range(repeats):
        outcome = ops.run_process(argv, env, workdir)
        if outcome.returncode != 0:
            raise RuntimeError(f"import repro.cli failed: {outcome.stderr[-500:]}")
        times.append(outcome.wall_s)
    return times


def run_cli(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> Dict:
    cache_dir = os.path.join(workdir, "cache")
    env = ops.program_env(ROOT, cache_dir)
    import_seconds(env, workdir, 1)  # warm the bytecode cache
    rounds = inputs.GENERATORS[workload](seed)
    count = max(1, round(seconds / ROUND_SECONDS[workload] / (2 if trace else 1)))
    # One batch of set-up samples before each round and one after the last.
    per_batch = -(-SETUP_SAMPLES[workload] // (count + 1))
    setups: List[float] = []
    setup_spent = 0.0
    latencies = Latencies()
    totals = layers.Totals()
    plain_s = traced_s = 0.0
    peak_rss = 0.0
    operations = 0
    started = time.perf_counter()
    completed_rounds = 0
    for round_programs in rounds[:count]:
        batch_started = time.perf_counter()
        setups += import_seconds(env, workdir, per_batch)
        setup_spent += time.perf_counter() - batch_started
        for program in round_programs:
            operations += 1
            path = os.path.join(workdir, f"{operations:05d}_{program.filename}")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(program.source)
            # Each operation gets a fresh cache: a cold user command.
            op_cache = os.path.join(cache_dir, str(operations))
            argv = ops.cli_argv(workload, program, path, op_cache)
            outcome = ops.run_process(argv, env, workdir)
            ok = _correct(workload, program, outcome)
            peak_rss = max(peak_rss, outcome.maxrss_mb)
            if not ok:
                _report_failure(program, outcome)
            if trace:
                plain_s += outcome.wall_s
                trace_path = os.path.join(workdir, f"{operations:05d}.trace.json")
                shutil.rmtree(op_cache, ignore_errors=True)
                argv = ops.cli_argv(workload, program, path, op_cache, trace_path)
                traced = ops.run_process(argv, env, workdir)
                traced_s += traced.wall_s
                if not _correct(workload, program, traced) or not os.path.exists(trace_path):
                    _report_failure(program, traced)
                    ok = False
                else:
                    with open(trace_path, encoding="utf-8") as handle:
                        totals.add_trace(json.load(handle))
            latencies.add(outcome.wall_s, ok)
            shutil.rmtree(op_cache, ignore_errors=True)
        completed_rounds += 1
        if time.perf_counter() - started >= OVERRUN * seconds:
            break
    wall = time.perf_counter() - started - setup_spent
    setups += import_seconds(env, workdir, per_batch)
    return {
        "setups": setups,
        "latencies": latencies,
        "wall_s": wall,
        "rounds": completed_rounds,
        "peak_rss_mb": peak_rss,
        "totals": totals,
        "overhead_pct": 100.0 * (traced_s - plain_s) / plain_s if plain_s else 0.0,
    }


def _correct(workload: str, program: inputs.Program, outcome: ops.Outcome) -> bool:
    if workload == "check":
        return ops.check_ok(program, outcome)
    if workload == "validate":
        return ops.validate_ok(outcome)
    return ops.tune_ok(outcome)


def _report_failure(program: inputs.Program, outcome: ops.Outcome) -> None:
    print(f"FAILED {program.filename}: exit {outcome.returncode}"
          f"{' (timeout)' if outcome.timed_out else ''}\n"
          f"{outcome.stdout[-800:]}{outcome.stderr[-800:]}", file=sys.stderr)


# -- serve -----------------------------------------------------------------------------


class Server:
    """One ``repro serve`` process at default flags, on a free port."""

    def __init__(self, env: Dict[str, str], workdir: str, cache_dir: str,
                 trace_path: Optional[str] = None) -> None:
        args = ["serve", "--port", "0", "--cache-dir", cache_dir]
        if trace_path is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, ops.LAUNCHER, trace_path, "--", *args]
        self.log = open(os.path.join(workdir, "serve.err"), "ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self.log,
                                        env=env, cwd=workdir)
        line = self.process.stdout.readline().decode("utf-8", "replace")
        if "listening on" not in line:
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self) -> None:
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.log.close()


_REQUEST_IDS = itertools.count()


async def _request(reader, writer, payload: Dict) -> Dict:
    """One request in the canonical pipelined framing (``{"id":N,`` first),
    as ``repro.service.client.PipelinedClient`` sends it, so the server's
    byte-level hot path and hot-report LRU are reachable."""
    body = json.dumps(payload, separators=(",", ":"))
    writer.write(b'{"id":%d,' % next(_REQUEST_IDS) + body[1:].encode("utf-8") + b"\n")
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


def _analyze(program: inputs.Program) -> Dict:
    return {"op": "analyze", "source": program.source, "kind": program.kind}


async def _first_ping(server: Server) -> float:
    """Seconds from spawn to the first successful ping."""
    while True:
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        except OSError:
            await asyncio.sleep(0.005)
            continue
        try:
            if (await _request(reader, writer, {"op": "ping"})).get("status") == "ok":
                return time.perf_counter() - server.started
        finally:
            writer.close()
            await writer.wait_closed()


async def _drive(server: Server, hot: List[inputs.Program],
                 stream: Sequence[Tuple[bool, inputs.Program]], count: int,
                 cap_s: float, introspect: bool = False) -> Dict:
    """Warm the hot set, then run the closed loop over two connections."""
    connections = [await asyncio.open_connection("127.0.0.1", server.port) for _ in range(2)]
    warm_failures = 0
    for program in hot:
        response = await _request(*connections[0], _analyze(program))
        if not ops.serve_ok(program, response):
            warm_failures += 1
            print(f"FAILED warm-up {program.filename}: {str(response)[:400]}", file=sys.stderr)
    results: List[Tuple[float, bool, bool]] = []  # (seconds, cached, ok)
    cursor = iter(range(min(count, len(stream))))
    started = time.perf_counter()
    deadline = started + cap_s

    async def client(reader, writer) -> None:
        for index in cursor:
            if time.perf_counter() >= deadline:
                return
            _, program = stream[index]
            sent = time.perf_counter()
            response = await _request(reader, writer, _analyze(program))
            elapsed = time.perf_counter() - sent
            ok = ops.serve_ok(program, response)
            if not ok:
                print(f"FAILED {program.filename}: {str(response)[:400]}", file=sys.stderr)
            results.append((elapsed, bool(response.get("cached")), ok))

    await asyncio.gather(*(client(r, w) for r, w in connections))
    wall = time.perf_counter() - started
    reader, writer = connections[0]
    stats = metrics = None
    if introspect:
        stats = (await _request(reader, writer, {"op": "stats"}))["stats"]
        metrics = (await _request(reader, writer, {"op": "metrics"}))["metrics"]
    hwm = server.vm_hwm_mb()
    await _request(reader, writer, {"op": "shutdown"})
    for _, writer in connections:
        writer.close()
    return {"results": results, "wall_s": wall, "stats": stats, "metrics": metrics,
            "hwm_mb": hwm, "warm_failures": warm_failures}


def _serve_phase(env, workdir, name, hot, stream, count, cap_s,
                 trace_path=None, introspect=False) -> Dict:
    cache_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=workdir)
    server = Server(env, workdir, cache_dir, trace_path)
    try:
        setup = asyncio.run(_first_ping(server))
        driven = asyncio.run(_drive(server, hot, stream, count, cap_s, introspect))
    finally:
        server.close()
    driven["setup_s"] = setup
    return driven


def _split(results) -> Dict[str, float]:
    out = {}
    for label, want in (("hit", True), ("miss", False)):
        values = Latencies()
        for seconds, cached, ok in results:
            if cached == want or not ok:
                values.add(seconds, ok)
        value, _, _ = tail(values.values)
        out[f"serve.{label}_p50_ms"] = values.p50()
        out[f"serve.{label}_tail_ms"] = value
    return out


def run_serve(seed: int, seconds: float, trace: bool, workdir: str) -> Dict:
    env = ops.program_env(ROOT, os.path.join(workdir, "cache"))
    count = max(1, round(seconds * SERVE_REQUESTS_PER_S / (2 if trace else 1)))
    generated = inputs.serve_inputs(seed, requests=count)
    # Set-up is measured on the server that carries the load and on
    # throwaway servers started before and after it.
    throwaway = SETUP_SAMPLES["serve"] - 1
    setups = [_serve_phase(env, workdir, f"setup{index}", [], [], 0, 0.0)["setup_s"]
              for index in range(throwaway // 2)]
    plain = _serve_phase(env, workdir, "load", generated.hot, generated.stream, count,
                         OVERRUN * seconds)
    setups.append(plain["setup_s"])
    setups += [_serve_phase(env, workdir, f"setup{index}", [], [], 0, 0.0)["setup_s"]
               for index in range(throwaway // 2, throwaway)]
    latencies = Latencies()
    for elapsed, _, ok in plain["results"]:
        latencies.add(elapsed, ok)
    latencies.failed += plain["warm_failures"]
    result = {
        "setups": setups,
        "latencies": latencies,
        "wall_s": plain["wall_s"],
        "rounds": 1,
        "peak_rss_mb": plain["hwm_mb"],
        "totals": layers.Totals(),
        "overhead_pct": 0.0,
        "split": _split(plain["results"]),
    }
    if trace:
        trace_path = os.path.join(workdir, "trace.json")
        traced = _serve_phase(env, workdir, "traced", generated.hot, generated.stream,
                              len(plain["results"]), 2 * OVERRUN * seconds, trace_path=trace_path,
                              introspect=True)
        latencies.failed += sum(1 for _, _, ok in traced["results"] if not ok)
        latencies.failed += traced["warm_failures"]
        if os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as handle:
                result["totals"].add_trace(json.load(handle))
        else:
            print("FAILED: the traced server wrote no trace", file=sys.stderr)
            latencies.failed += 1
        result["service"] = layers.service_metrics(traced["stats"], traced["metrics"])
        result["overhead_pct"] = 100.0 * (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    return result


# -- reporting -----------------------------------------------------------------------


def end_to_end(result: Dict) -> Dict[str, float]:
    latencies = result["latencies"]
    succeeded = len(latencies.values) - latencies.failed
    value, _, _ = tail(latencies.values)
    return {
        "setup_s": statistics.median(result["setups"]),
        "throughput_ops_s": max(succeeded, 0) / result["wall_s"] if result["wall_s"] else 0.0,
        "op_p50_ms": latencies.p50(),
        "op_tail_ms": value,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def print_lines(rows: Sequence[Tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<62} {value:>14.6g} {unit:<6} {note}".rstrip())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no repro sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{arguments.workload}-", dir=scratch)
    trace = bool(arguments.trace)
    try:
        if arguments.workload == "serve":
            result = run_serve(arguments.seed, arguments.seconds, trace, workdir)
        else:
            result = run_cli(arguments.workload, arguments.seed, arguments.seconds, trace,
                             workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = result["latencies"]
    attempted = len(latencies.values)
    failed = min(latencies.failed, attempted)
    print(f"perfbench {arguments.workload} seed={arguments.seed} trace={arguments.trace}: "
          f"{attempted} operations in {result['wall_s']:.2f} s "
          f"({result['rounds']} round(s)), {failed} failed")
    e2e = end_to_end(result)
    _, percentile, samples = tail(latencies.values)
    rows = [(name, e2e[name], unit, "") for name, unit in END_TO_END]
    rows[3] = (rows[3][0], rows[3][1], rows[3][2],
               f"(p{percentile:.1f} of {samples} samples, 10 beyond)")
    rows.append(("error_rate", failed / attempted if attempted else 0.0, "ratio", ""))
    if arguments.workload == "serve":
        split = result["split"]
        rows += [(name.split(".", 1)[1], value, "ms", "") for name, value in split.items()]
    print_lines(rows)
    if trace:
        totals = result["totals"]
        values = totals.metrics(result.get("service"), result.get("split"),
                                result["overhead_pct"])
        print("per-layer (traced run):")
        print_lines([(name, values[name], unit, "") for name, unit in layers.METRICS])
        seconds = totals.layer_seconds()
        for layer, spent in sorted(seconds.items(), key=lambda item: -item[1]):
            if spent:
                print(f"  layer {layer:<24} {spent:10.4f} s self")
        if totals.missing:
            print(f"not traced (no longer in the program): {', '.join(sorted(totals.missing))}")
        layer, share = layers.dominant(seconds)
        print(f"dominant layer on {arguments.workload}: {layer} ({100 * share:.1f}% of traced self time)")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
