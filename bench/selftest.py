#!/usr/bin/env python3
"""Self-test of the benchmark itself (the package's tests live in tests/).

    python3 bench/selftest.py

Checks that

* a tiny run of each workload, untraced and traced, ends with a result line
  that carries every metric BENCHMARK.json names for that mode, each with
  its unit, and reports no failed task on a correct program;
* a perturbed expected value (a golden eigenvalue off by 1e-8) makes the
  eigen-sweep checks fail, with the program untouched;
* the run refuses to start when QSD_SR_THREADS is set, and fails without a
  result line in a directory holding only BENCHMARK.json and the benchmark.

Takes about four minutes on a 2-core machine.  Exits 0 when every check
passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(argv, cwd=ROOT, env=None):
    env = dict(os.environ if env is None else env)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "metrics" in doc else None


def check_tiny_runs(failures):
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [str(HERE / "run.py"), "--workload", w["name"], "--seed", "7",
                    "--seconds", "0", "--trace", str(trace)]
            code, out, err = run(argv)
            res = result_line(out)
            where = f"{w['name']} --trace {trace}"
            if code != 0 or res is None:
                failures.append(f"{where}: exit {code}, no result: {err[-500:]}")
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                failures.append(f"{where}: correct={res['correct']} failed={res['failed']}")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]:
                    failures.append(f"{where}: {k} = {v['value']!r}")
            print(f"ok   tiny run {where}: {res['attempted']} tasks, "
                  f"{len(res['metrics'])} metrics", flush=True)


def check_perturbed_golden(failures):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from spans import Tracer
    from workloads import GOLDEN, EigenSweep

    def fail_frac(golden):
        tasks = list(EigenSweep(1, golden=golden).round(0, Tracer()))
        return sum(1 for t in tasks if t.problems) / len(tasks)

    perturbed = dict(GOLDEN)
    lam, *approx = perturbed[20.0]
    perturbed[20.0] = (lam + 1e-8, *approx)
    clean, bad = fail_frac(GOLDEN), fail_frac(perturbed)
    if clean != 0.0 or not bad > 0.0:
        failures.append(f"perturbed golden: fail_frac {bad} (unperturbed {clean})")
    else:
        print(f"ok   golden eigenvalue off by 1e-8 gives fail_frac {bad:.4f}", flush=True)


def check_refusals(failures):
    argv = ["bench/run.py", "--workload", "law-grid", "--seed", "1", "--seconds", "1"]
    code, out, _ = run(argv, env={**os.environ, "QSD_SR_THREADS": "1"})
    if code == 0 or result_line(out) is not None:
        failures.append(f"QSD_SR_THREADS set: exit {code}, result printed")
    else:
        print("ok   refuses to run with QSD_SR_THREADS set", flush=True)

    (HERE / "_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
        code, out, _ = run(argv, cwd=bare)
        if code == 0 or result_line(out) is not None:
            failures.append(f"bare directory: exit {code}, result printed")
        else:
            print(f"ok   fails with exit {code} and no result without the sources", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    failures = []
    check_refusals(failures)
    check_perturbed_golden(failures)
    check_tiny_runs(failures)
    for f in failures:
        print("FAIL", f)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
