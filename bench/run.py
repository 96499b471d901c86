"""Benchmark of the irdrift CLI on seeded, LongEval-shaped inputs.

Usage, from the repository root::

    python3 bench/run.py --workload change-deep --seed 1 --seconds 20 --trace 0

The program under test is the working tree's ``src/irdrift``, run as
``python -m irdrift`` with ``PYTHONPATH=src``. Inputs are generated into
``.bench_work/<workload>/`` before any timing. The load is a closed loop
with one client: the workload's CLI job (one or more CLI processes, one
after another) is repeated until ``--seconds`` have passed, and the next
process starts only when the previous one has exited.

``--trace 0`` reports the end-to-end metrics, with times normalised by
an interleaved speed probe that runs no irdrift code (README.md, "Speed
normalisation"). ``--trace 1`` runs the
same argv in-process under ``irdrift.cli.main``, alternating untraced and
traced runs, and reports the per-layer metrics (see ``spans.py``) and the
import-time breakdown of ``python -X importtime -c "import irdrift.cli"``.
Every output is checked by ``check.py``. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import warnings
from collections import defaultdict
from pathlib import Path
from time import monotonic, perf_counter

import check
import gen
from spans import Tracer, wrapper_costs

WORK = Path(".bench_work")
MIN_ITERATIONS = 3  # of the measured loop, however short --seconds is
IMPORTTIME_REPS = 3
ENV = dict(os.environ, PYTHONPATH="src")
# Machine-speed probe: fixed work that involves no irdrift code. Time
# metrics are reported in reference seconds, as if this probe took
# exactly REFERENCE_S; see README.md ("Speed normalisation").
PROBE = "import numpy, scipy.stats"
REFERENCE_S = 1.0

# metric name -> unit, as BENCHMARK.json declares them; a per-layer
# "<span>.s" is the self time of that span name
_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _written_files(step: dict) -> str:
    """Digest of the files a simulate step wrote; '' for other steps."""
    argv = step["argv"]
    if "--out-dir" not in argv:
        return ""
    out_dir = Path(argv[argv.index("--out-dir") + 1])
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"median={values[0]:.6g} n=1"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"median={statistics.median(values):.6g} q1={q1:.6g} q3={q3:.6g} "
            f"min={min(values):.6g} max={max(values):.6g} n={len(values)}")


class Outputs:
    """Outputs of every repetition of each step, checked once per distinct output."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.by_step: dict[int, list[tuple[int, bytes, str]]] = defaultdict(list)

    def add(self, index: int, exit_code: int, stdout: bytes, files: str) -> None:
        self.by_step[index].append((exit_code, stdout, files))

    def verdict(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, errors) over all recorded operations."""
        attempted = failed = 0
        errors: list[str] = []
        for index, results in sorted(self.by_step.items()):
            step = self.inputs["steps"][index]
            attempted += len(results)
            bad = [r for r in results if r[0] != 0]
            errors += [f"{step['name']}: exit code {r[0]}" for r in bad[:1]]
            good = [r for r in results if r[0] == 0]
            distinct = {(_sha256(out), files): out for _, out, files in good}
            if len(distinct) > 1:
                errors.append(f"{step['name']}: output differs between repetitions")
                failed += len(results)
                continue
            for (digest, files), out in distinct.items():
                print(f"output {step['name']} sha256={digest} "
                      f"files_sha256={files or '-'} repetitions={len(good)}")
                found = check.check_step(self.inputs, step, out)
                errors += found[:5]
                if found:
                    bad = results
            failed += len(bad)
        return attempted, failed, errors


# --- end-to-end: fresh CLI processes ---------------------------------------


def _time_import(code: str = "import irdrift.cli", env: dict | None = None) -> float:
    """Seconds from spawning a fresh interpreter until ``code`` has run."""
    start = monotonic()
    done = subprocess.run(
        [sys.executable, "-c", f"{code}; import time; print(repr(time.monotonic()))"],
        env=env or ENV, capture_output=True, check=True, text=True,
    )
    return float(done.stdout) - start


def _time_probe() -> float:
    return _time_import(PROBE, {k: v for k, v in os.environ.items() if k != "PYTHONPATH"})


def _spawn(argv: list[str], out_path: Path, err_path: Path) -> dict:
    start = perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def measure(inputs: dict, seconds: float) -> dict:
    work = Path(inputs["dir"])
    _time_probe()  # warm-up: bytecode compiled once, as after an install
    _time_import()
    outputs = Outputs(inputs)
    samples: dict[str, list[float]] = defaultdict(list)
    start = perf_counter()
    # probe, setup and job samples interleave, so all see the same machine noise
    while len(samples["setup_s"]) < MIN_ITERATIONS or perf_counter() - start < seconds:
        samples["probe_s"].append(_time_probe())
        samples["setup_s"].append(_time_import())
        wall = cpu = rss = 0.0
        lines = 0
        for index, step in enumerate(inputs["steps"]):
            result = _spawn([sys.executable, "-m", "irdrift", *step["argv"]],
                            work / "stdout.bin", work / "stderr.txt")
            wall += result["wall"]
            cpu += result["cpu"]
            rss = max(rss, result["rss_mb"])
            lines += step["input_lines"]
            outputs.add(index, result["exit"], (work / "stdout.bin").read_bytes(),
                        _written_files(step))
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
        samples["input_lines_per_s"].append(lines / wall)
    attempted, failed, errors = outputs.verdict()
    # > 1 when the machine runs slower than the reference speed
    slowdown = statistics.median(samples["probe_s"]) / REFERENCE_S
    print(f"speed probe `{PROBE}` [s] {_summary(samples['probe_s'])}; slowdown {slowdown!r}")
    values = {}
    for name, unit in END_TO_END.items():
        median = statistics.median(samples[name])
        values[name] = {"s": median / slowdown, "lines/s": median * slowdown}.get(unit, median)
        note = " at reference speed" if unit in ("s", "lines/s") else ""
        print(f"{name} [{unit}] {values[name]!r}{note}; as measured {_summary(samples[name])}")
    print(f"error_rate [ratio] {failed / attempted} ({failed} of {attempted} CLI calls failed)")
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
    }


# --- per layer: in-process runs --------------------------------------------

IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \| ( *)(\S+)")
TRACKED = ("numpy", "scipy", "irdrift")


def import_breakdown() -> dict[str, float]:
    """Seconds of ``import irdrift.cli`` spent importing numpy, scipy and
    irdrift itself, from ``-X importtime`` in a fresh interpreter. A module
    counts for the tracked package it belongs to, or else for the nearest
    tracked package that imported it; interpreter start-up counts for none."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import irdrift.cli"],
                          env=ENV, capture_output=True, check=True, text=True)
    stack: list[tuple[int, list]] = []  # importtime lists children before parents
    for line in done.stderr.splitlines():
        match = IMPORT_LINE.match(line)
        if match is None:
            continue
        depth = len(match.group(2))
        node = [match.group(3), int(match.group(1)), []]
        while stack and stack[-1][0] > depth:
            node[2].append(stack.pop()[1])
        stack.append((depth, node))
    totals = dict.fromkeys(TRACKED, 0)

    def walk(node, owner):
        top = node[0].split(".")[0]
        owner = top if top in TRACKED else owner
        if owner is not None:
            totals[owner] += node[1]
        for child in node[2]:
            walk(child, owner)

    for _, root in stack:
        walk(root, None)
    return {f"setup.import.{name}_s": us / 1e6 for name, us in totals.items()}


def run_in_process(inputs: dict, outputs: Outputs, tracer: Tracer | None) -> float:
    """Run every step of the job under ``irdrift.cli.main``; returns the wall time."""
    import irdrift.cli

    wall = 0.0
    for index, step in enumerate(inputs["steps"]):
        gc.collect()
        buffer = io.BytesIO()
        text = io.TextIOWrapper(buffer, encoding="utf-8")
        saved, sys.stdout = sys.stdout, text
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if tracer is not None:
                    tracer.install()
                try:
                    start = perf_counter()
                    code = irdrift.cli.main(list(step["argv"]))
                    wall += perf_counter() - start
                finally:
                    if tracer is not None:
                        tracer.uninstall()
        finally:
            sys.stdout = saved
            text.detach()
        if tracer is not None:
            tracer.counts["cli.warnings"] += len(caught)
        outputs.add(index, code, buffer.getvalue(), _written_files(step))
    return wall


def layer_metrics(tracer: Tracer, inputs: dict) -> dict[str, float]:
    # lines of the run files the job names, a fixed size however they are read
    run_file_lines = sum(n for name, n in inputs["files"].items() if name.endswith(".run"))
    self_times = tracer.self_times()
    main = tracer.inclusive_time("cli.main")
    run_time = tracer.inclusive_time("ingest.run")
    values = {}
    for name, unit in PER_LAYER.items():
        if name == "cli.self_s":
            values[name] = self_times["cli.main"]
        elif name == "ingest.run.lines_per_s":
            values[name] = run_file_lines / run_time if run_time else 0.0
        elif name == "trace.coverage":
            values[name] = 1.0 - self_times["cli.main"] / main
        elif name.endswith(".s"):
            values[name] = self_times.get(name[:-2], 0.0)
        elif unit == "count":
            values[name] = tracer.counts[name]
    return values


def trace(inputs: dict, seconds: float) -> dict:
    imports = [import_breakdown() for _ in range(IMPORTTIME_REPS)]
    sys.path.insert(0, "src")
    outputs = Outputs(inputs)
    untraced: list[float] = []
    traced: list[float] = []
    tracers: list[Tracer] = []
    run_in_process(inputs, outputs, None)  # warm-up
    start = perf_counter()
    # at least two traced runs, so that their counts can be compared
    while len(tracers) < 2 or perf_counter() - start < seconds:
        untraced.append(run_in_process(inputs, outputs, None))
        tracer = Tracer()
        traced.append(run_in_process(inputs, outputs, tracer))
        tracers.append(tracer)
    tracers[-1].dump(Path(inputs["dir"]) / "spans.json")
    attempted, failed, errors = outputs.verdict()

    runs = [layer_metrics(t, inputs) for t in tracers]
    # counts repeat exactly (checked below); times are medians over traced runs
    values = {name: run_value if PER_LAYER[name] == "count" else
              statistics.median(run[name] for run in runs)
              for name, run_value in runs[0].items()}
    for name in imports[0]:
        values[name] = statistics.median(run[name] for run in imports)
    per_call, per_line = wrapper_costs()
    values["trace.overhead_s"] = tracers[0].overhead(per_call, per_line)
    counts = [{k: v for k, v in run.items() if PER_LAYER[k] == "count"} for run in runs]
    if any(c != counts[0] for c in counts):
        errors.append("traced counts differ between runs")
    # diagnostics only: what the parsers consumed may shrink when a layer
    # stops reading a file it does not need
    generated = sum(step["input_lines"] for step in inputs["steps"])
    print(f"input lines: the job's files hold {generated}, traced parsers consumed "
          f"{tracers[0].hooked_lines()}")
    print(f"wrapper cost [s]: {per_call!r} per call x {len(tracers[0].spans)} calls, "
          f"{per_line!r} per line x {tracers[0].hooked_lines()} lines")
    print(f"untraced in-process wall [s] {_summary(untraced)}")
    print(f"traced in-process wall [s] {_summary(traced)}")
    difference = statistics.median(traced) - statistics.median(untraced)
    q1, _, q3 = statistics.quantiles(untraced, n=4)
    verdict = "resolved" if abs(difference) > q3 - q1 else "unresolved"
    print(f"traced minus untraced median [s] {difference!r}; untraced q3-q1 {q3 - q1!r}: {verdict}")
    for name, unit in PER_LAYER.items():
        print(f"{name} [{unit}] {values[name]!r}")
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/irdrift/cli.py").is_file():
        print("error: run from the repository root; src/irdrift/cli.py not found", file=sys.stderr)
        return 2
    inputs = gen.generate(args.workload, args.seed, WORK / args.workload)
    print(f"workload {args.workload} seed {args.seed} params {json.dumps(inputs['params'])}")
    result = (trace if args.trace else measure)(inputs, args.seconds)
    for error in result.pop("errors"):
        print(f"CHECK FAILED: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
