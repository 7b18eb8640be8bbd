#!/usr/bin/env python3
"""Benchmark of qsd_sr: one named workload per run.

    python3 bench/run.py --workload law-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` and need not be installed.  The run makes its inputs from
``--seed``, runs whole rounds of the workload as a closed loop until
``--seconds`` have passed, checks every output and prints, as its last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it holds provenance and per-run detail.

``--trace 0`` reports the end-to-end metrics:

  setup_s      median over 3 fresh processes of the time from spawn to the
               end of set-up (interpreter, ``import qsd_sr``, inputs)
  wall_s       median wall time of one round, a fixed unit of work
  task_p50_ms  median latency of one task (one unit of user work)
  task_p90_ms  90th-percentile task latency
  peak_rss_mb  peak resident memory of the process doing the work

Times are in reference-speed units: each round's times, and each set-up
sample, are divided by the slowdown a speed gauge (``speed.py``) measured
around them, which takes the shared host's drifting speed out of the
comparison between runs.  The detail line also carries the raw values.

``--trace 1`` runs the rounds twice each, untraced and traced, and reports
the per-layer metrics (see ``probes.py``) plus ``trace_overhead_frac``, the
traced round's median wall time over the untraced one's, minus 1.  Its spans
are written to ``bench/_out/`` when the run ends.

The run refuses to start when ``QSD_SR_THREADS`` is set, so that the
program's default worker count is what gets measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from spans import Tracer
from speed import ColdStartGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3

WORKLOAD_NAMES = ("law-grid", "eigen-sweep", "mc-oracle", "cli-cold")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the monotonic clock and exit (used for setup_s)")
    return ap.parse_args(argv)


def git_commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    import numpy
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "QSD_SR_THREADS": "unset",
    }


def measure_setup(workload, seed):
    """Median over SETUP_SAMPLES fresh interpreters of the time from spawn
    to the end of set-up, in reference-speed seconds (a cold-start gauge
    tick before and after each) and raw."""
    from workloads import run_child
    gauge = ColdStartGauge()
    gauge.tick(0.0)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t_spawn = time.monotonic()
        _, code, text, _ = run_child([sys.executable, str(HERE / "run.py"), "--workload",
                                      workload, "--seed", str(seed), "--seconds", "0",
                                      "--setup-only"])
        if code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}: {text}")
        elapsed = float(text.strip().splitlines()[-1]) - t_spawn
        gauge.tick(0.0)
        samples.append((elapsed / gauge.slowdown(-2), elapsed))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def make_workload(name, seed):
    from workloads import WORKLOADS
    return WORKLOADS[name](seed)


class Rounds:
    """Task latencies and per-round wall times of the timed phase, raw and
    in reference-speed units, kept apart for untraced and traced rounds."""

    def __init__(self):
        self.tasks = []
        self.latency = {False: [], True: []}
        self.wall = {False: [], True: []}
        self.raw_wall = {False: [], True: []}
        self.slowdown = []


def run_rounds(wl, seconds, tracer, traced):
    """Whole rounds until ``seconds`` have passed (at least one).  Untraced
    runs use ``wl.round``; traced runs use ``wl.traced_round``, once
    untraced and once traced per round index.  A speed-gauge tick precedes
    the first round and follows every task; each round's times are divided
    by the slowdown of the ticks from the one just before it to its last."""
    out = Rounds()
    gauge = wl.GAUGE()
    gauge.tick(1.0)
    fn = wl.traced_round if traced else wl.round
    t_end = time.perf_counter() + seconds
    k = 0
    while True:
        for on in ((False, True) if traced else (False,)):
            done = []
            first = len(gauge.samples) - 1
            tracer.enabled = on
            with tracer.span("round", index=k):
                for task in fn(k, tracer):
                    done.append(task)
                    gauge.tick(task.latency_s)
            tracer.enabled = False
            slow = gauge.slowdown(first)
            raw = sum(t.latency_s for t in done)
            out.tasks += done
            out.latency[on] += [t.latency_s / slow for t in done]
            out.wall[on].append(raw / slow)
            out.raw_wall[on].append(raw)
            out.slowdown.append(slow)
        k += 1
        if time.perf_counter() >= t_end:
            return out


def main(argv=None):
    args = parse_args(argv)
    if "QSD_SR_THREADS" in os.environ:
        print("refusing to run: QSD_SR_THREADS is set; the benchmark measures the "
              "program's default worker count", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "qsd_sr" / "__init__.py").is_file():
        print(f"no qsd_sr sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    seed = args.seed % 2**63

    if args.setup_only:
        make_workload(args.workload, seed)
        print(repr(time.monotonic()))
        return 0

    import probes
    from workloads import OUT_DIR, CliCold, warm_up_cli

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        warm_up_cli(workdir)
        wl = make_workload(args.workload, seed)
        if isinstance(wl, CliCold):
            wl.workdir = workdir
        if not args.trace:
            setup_s, raw_setup_s = measure_setup(args.workload, seed)
        tracer = Tracer()
        rounds = run_rounds(wl, args.seconds, tracer, bool(args.trace))
        tasks = rounds.tasks
        problems = [p for t in tasks for p in t.problems]
        failed = sum(1 for t in tasks if t.problems)
        detail = {
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "provenance": provenance(seed), "rounds": len(rounds.wall[False]),
            "tasks": len(tasks), "fail_frac": failed / len(tasks), "problems": problems[:20],
            "round_s": rounds.wall[False], "raw_round_s": rounds.raw_wall[False],
            "slowdown": rounds.slowdown,
        }
        if args.trace:
            detail["traced_round_s"] = rounds.wall[True]
            detail["fallback_probes"] = probes.run_fallbacks(tracer)
            metrics = probes.span_metrics(tracer)
            metrics.update(probes.kernel_metrics())
            metrics.update(probes.startup_metrics())
            metrics.update(probes.cli_main_metrics(workdir))
            metrics["trace_overhead_frac"] = (
                statistics.median(rounds.wall[True]) / statistics.median(rounds.wall[False])
                - 1.0, "frac")
            tracer.write(OUT_DIR / f"trace_{args.workload}_seed{seed}.json", detail)
        else:
            latency_ms = [v * 1e3 for v in rounds.latency[False]]
            raw_ms = [t.latency_s * 1e3 for t in tasks]
            detail["raw"] = {
                "setup_s": raw_setup_s,
                "wall_s": statistics.median(rounds.raw_wall[False]),
                "task_p50_ms": probes.percentile(raw_ms, 50),
                "task_p90_ms": probes.percentile(raw_ms, 90),
            }
            if isinstance(wl, CliCold):
                n = len(wl.COMMANDS)
                detail["cold_s_by_command"] = {
                    c: statistics.median(rounds.latency[False][i::n])
                    for i, c in enumerate(wl.COMMANDS)
                }
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(rounds.wall[False]), "s"),
                "task_p50_ms": (probes.percentile(latency_ms, 50), "ms"),
                "task_p90_ms": (probes.percentile(latency_ms, 90), "ms"),
                "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
            }

    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(tasks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
