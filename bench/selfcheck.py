"""Harness self-check at smoke size; run from the repository root::

    python3 bench/selfcheck.py

It shows, for every workload, that:

1. the same seed writes byte-identical inputs and another seed different ones;
2. the checker accepts the CLI's real output and rejects a corrupted copy
   (one flipped digit, one dropped row; for ``simulate`` the corruption is
   applied to a written file);
3. the traced runs succeed and their counts repeat exactly across two runs.

Exits 1 if any of these fails. Takes well under a minute.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import check
import gen
import run
from spans import Tracer

WORK = Path(".bench_work/selfcheck")
failures: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def flip_last_digit(text: str, line_index: int) -> str:
    lines = text.splitlines(keepends=True)
    line = lines[line_index]
    i = max(i for i, ch in enumerate(line) if ch.isdigit())
    lines[line_index] = line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]
    return "".join(lines)


def drop_last_row(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def corrupted_rejected(inputs: dict, step: dict, stdout: bytes) -> tuple[bool, bool]:
    """(flipped digit rejected, dropped row rejected) for one step's output."""
    if step["argv"][0] != "simulate":
        text = stdout.decode()
        flipped = check.check_step(inputs, step, flip_last_digit(text, 2).encode())
        dropped = check.check_step(inputs, step, drop_last_row(text).encode())
        return bool(flipped), bool(dropped)
    out_dir = Path(step["argv"][step["argv"].index("--out-dir") + 1])
    verdicts = []
    for corrupt in (lambda t: flip_last_digit(t, 0), drop_last_row):
        target = out_dir / "t1.qrels.txt"
        original = target.read_text()
        target.write_text(corrupt(original))
        verdicts.append(bool(check.check_step(inputs, step, stdout)))
        target.write_text(original)
    return verdicts[0], verdicts[1]


def main() -> int:
    if WORK.exists():
        shutil.rmtree(WORK)
    for workload, params in gen.SMOKE.items():
        out = WORK / workload
        inputs = gen.generate(workload, 7, out, params)
        first = digest(out)
        gen.generate(workload, 7, out, params)
        again = digest(out)
        gen.generate(workload, 8, out, params)
        other = digest(out)
        report(first == again, f"{workload}: seed 7 twice gives byte-identical inputs")
        report(first != other, f"{workload}: seeds 7 and 8 give different inputs")

        inputs = gen.generate(workload, 7, out, params)
        for step in inputs["steps"]:
            done = subprocess.run([sys.executable, "-m", "irdrift", *step["argv"]],
                                  env=run.ENV, capture_output=True)
            errors = check.check_step(inputs, step, done.stdout)
            report(done.returncode == 0 and not errors,
                   f"{workload} {step['name']}: checker accepts the real output {errors[:2]}")
            flipped, dropped = corrupted_rejected(inputs, step, done.stdout)
            report(flipped, f"{workload} {step['name']}: checker rejects one flipped digit")
            report(dropped, f"{workload} {step['name']}: checker rejects one dropped row")

        sys.path.insert(0, "src")
        tracers = [Tracer(), Tracer()]
        outputs = run.Outputs(inputs)
        for tracer in tracers:
            run.run_in_process(inputs, outputs, tracer)
        _, failed, errors = outputs.verdict()
        report(failed == 0 and not errors, f"{workload}: traced runs succeed {errors[:2]}")
        counts = [{k: v for k, v in run.layer_metrics(t, inputs).items() if run.PER_LAYER[k] == "count"}
                  for t in tracers]
        report(counts[0] == counts[1] and any(counts[0].values()),
               f"{workload}: traced counts repeat exactly across two runs")
    print("self-check " + ("failed: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
