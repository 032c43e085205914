"""Run one workload: set-up timing, references, timed loop, metrics."""

from __future__ import annotations

import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import mpmath
import numpy as np
import scipy

from . import tracing, workloads
from .classify import Verdict, attach_references, classify, pooled_check
from .oracle import Oracle, self_check

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 150


def _setup_seconds(args, script: str) -> list[float]:
    """Wall time from launching a fresh interpreter to its ready line, for
    SETUP_SAMPLES children run one after another."""
    samples = []
    argv = [sys.executable, script, "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            ready = time.perf_counter()
            child.communicate(timeout=PROBE_TIMEOUT_S)
        if line != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        samples.append(ready - start)
    return samples


def _peak_rss_mb(args, script: str) -> float:
    """Peak resident set of a child interpreter that imports only hetcov
    and the workload generator and runs every command once, in MB."""
    argv = [sys.executable, script, "--workload", args.workload,
            "--seed", str(args.seed), "--rss-probe"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"memory probe failed (exit {done.returncode})")
    return float(done.stdout.split()[-1])


class Runner:
    """Executes commands in-process and classifies their outputs.

    Outputs are deterministic for a given command, so each command's first
    output is classified and kept; a repeat with the same output reuses that
    verdict, and a repeat with a different output is classified afresh and
    counted as a determinism violation.
    """

    def __init__(self, workload: workloads.Workload, main, sample_seed: int):
        self.commands = workload.commands
        self.main = main
        self.sample_seed = sample_seed
        self.first: list[tuple | None] = [None] * len(self.commands)
        self.verdicts: list[Verdict | None] = [None] * len(self.commands)
        self.nondeterministic = 0

    def execute(self, index: int, main=None) -> tuple[float, Verdict]:
        cmd = self.commands[index]
        out, err = io.StringIO(), io.StringIO()
        code = exc = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = (main or self.main)(cmd.argv)
            except Exception as raised:  # the outcome being measured
                exc = raised
            elapsed = time.perf_counter() - start
        key = (code, type(exc).__name__ if exc else None, out.getvalue())
        if self.first[index] is None:
            self.first[index] = key
            self.verdicts[index] = classify(cmd, code, exc, key[2], self.sample_seed)
        elif key != self.first[index]:
            self.nondeterministic += 1
            return elapsed, classify(cmd, code, exc, key[2], self.sample_seed)
        return elapsed, self.verdicts[index]

    def passes(self, seconds: float, rng: random.Random):
        """Yield whole passes, each every command index once in a shuffled
        order, while the next pass is expected to end within seconds (at
        least one).  Whole passes keep the command mix, and so the figures,
        independent of where the time budget runs out."""
        start = time.perf_counter()
        done = 0
        while True:
            order = list(range(len(self.commands)))
            rng.shuffle(order)
            yield order
            done += 1
            if (time.perf_counter() - start) * (done + 1) / done > seconds:
                return


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _summary(records, commands) -> dict:
    """Counts and end-to-end figures over a list of timed command runs."""
    total = {"attempted": 0, "ok": 0, "flagged": 0, "failed": 0}
    kind_time: dict[str, float] = {}
    kind_times: dict[str, list[float]] = {}
    work = {"rows": 0, "trials": 0, "system_trials": 0, "pixels": 0}
    latencies_ms = []
    for index, elapsed, verdict in records:
        cmd = commands[index]
        total["attempted"] += cmd.ops
        total["ok"] += verdict.ok
        total["flagged"] += verdict.flagged
        total["failed"] += verdict.failed
        kind_time[cmd.kind] = kind_time.get(cmd.kind, 0.0) + elapsed
        kind_times.setdefault(cmd.kind, []).append(elapsed)
        latencies_ms.append(elapsed * 1e3)
        whole = verdict.ok == cmd.ops
        if cmd.kind == "sweep":
            work["rows"] += verdict.ok
        elif cmd.kind in ("simulate", "compare"):
            work["trials"] += cmd.trials if whole else 0
        elif cmd.kind == "system":
            work["system_trials"] += cmd.trials if whole else 0
        else:
            work["pixels"] += cmd.pixels if whole else 0
    kind_ms = {kind: float(np.median(times)) * 1e3 for kind, times in kind_times.items()}
    command_s = sum(kind_time.values())
    mc_s = kind_time.get("simulate", 0.0) + kind_time.get("compare", 0.0)
    return {
        **total,
        "commands": len(records),
        "median_ms_by_kind": kind_ms,
        "command_s": command_s,
        "ok_ops_per_s": tracing.rate(total["ok"], command_s),
        "cmd_p50_ms": _percentile(latencies_ms, 50),
        "cmd_p90_ms": _percentile(latencies_ms, 90),
        "error_rate": tracing.rate(total["failed"], total["attempted"]),
        "rows_per_s": tracing.rate(work["rows"], kind_time.get("sweep", 0.0)),
        "trials_per_s": tracing.rate(work["trials"], mc_s),
        "system_trials_per_s": tracing.rate(work["system_trials"], kind_time.get("system", 0.0)),
        "raster_px_per_s": tracing.rate(work["pixels"], kind_time.get("raster", 0.0)),
    }


# Figures printed for a human reader under their per-workload names,
# as (printed name, summary key, unit); the JSON line carries BENCHMARK.json's
# end-to-end metrics.
_PRINTED = {
    "sweep": (("rows_per_s", "rows_per_s", "1/s"), ("sweep_p50_ms", "cmd_p50_ms", "ms"),
              ("sweep_p90_ms", "cmd_p90_ms", "ms")),
    "mc": (("trials_per_s", "trials_per_s", "1/s"),
           ("system_trials_per_s", "system_trials_per_s", "1/s"),
           ("raster_px_per_s", "raster_px_per_s", "1/s")),
}
END_TO_END = (("ok_ops_per_s", "1/s"), ("cmd_p50_ms", "ms"), ("cmd_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _environment(pins: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "thread_pins": pins,
        "machine": platform.machine(),
    }


def _line(name, value, unit, note="") -> str:
    return f"{name:<52} {value:>16.6g} {unit}{note}"


def run(args, root: str, work_root: str, pins: dict) -> int:
    script = os.path.join(root, "bench", "run.py")
    from hetcov import cli  # compiles the package once before the probes

    setup = _setup_seconds(args, script)
    peak_rss_mb = None if args.trace else _peak_rss_mb(args, script)

    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}")
    workload = workloads.generate(args.workload, args.seed, workdir)
    oracle = Oracle(os.path.join(work_root, f"oracle-{args.workload}.json"))
    oracle.load()
    oracle_start = time.perf_counter()
    problems = self_check(oracle)
    attach_references(workload, oracle)
    oracle_s = time.perf_counter() - oracle_start
    oracle.save()

    runner = Runner(workload, cli.main, sample_seed=args.seed)
    for index in range(len(workload.commands)):
        runner.execute(index)  # warm-up: caches, lazy imports, first verdicts
    # Outputs repeat exactly from pass to pass, so the first pass stands for
    # all of them in the pooled Monte Carlo test.
    problems += pooled_check(
        workload.commands,
        [text if exc is None else None for _, exc, text in runner.first],
        runner.verdicts)
    rng = random.Random(f"order:{args.seed}")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "setup_samples_s": setup,
              "oracle_s": oracle_s, "oracle_computed": oracle.computed,
              "check_problems": problems,
              "environment": _environment(pins)}
    lines = []
    if args.trace:
        # Each pass runs untraced, then again traced, so both halves see the
        # same commands under the same host conditions.
        tracer = tracing.Tracer()
        traced_main = tracer.wrap("cli.main", cli.main)
        untraced, traced = [], []
        for order in runner.passes(args.seconds, rng):
            untraced += [(index, *runner.execute(index)) for index in order]
            tracer.install()
            try:
                for index in order:
                    tracer.run_id = len(traced)
                    traced.append((index, *runner.execute(index, traced_main)))
            finally:
                tracer.uninstall()
        passes = len(untraced) // len(workload.commands)
        plain_s = sum(r[1] for r in untraced)
        traced_s = sum(r[1] for r in traced)
        # Counts and busy times are reported per pass over the commands, so
        # they do not scale with how many passes fit in the time budget.
        metrics = {
            name: (value / passes if unit in ("count", "s") else value, unit)
            for name, (value, unit) in tracing.layer_metrics(tracer.spans).items()
        }
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
        metrics["trace.spans"] = (len(tracer.spans) / passes, "count")
        summary = _summary(untraced + traced, workload.commands)
        tracer.write(os.path.join(workdir, "spans.csv"))
        lines.append(f"# {passes} passes ({len(traced)} commands) run untraced, then traced: "
                     f"{traced_s:.3f} s traced vs {plain_s:.3f} s untraced; "
                     f"counts and seconds are per pass")
    else:
        records = [(index, *runner.execute(index))
                   for order in runner.passes(args.seconds, rng) for index in order]
        passes = len(records) // len(workload.commands)
        summary = _summary(records, workload.commands)
        summary["peak_rss_mb"] = peak_rss_mb
        summary["setup_s"] = statistics.median(setup)
        metrics = {name: (summary[name], unit) for name, unit in END_TO_END}
        group = "sweep" if args.workload.startswith("sweep") else "mc"
        for printed, key, unit in _PRINTED[group]:
            lines.append(_line(printed, summary[key], unit))
        lines.append(_line("error_rate", summary["error_rate"], "ratio",
                           f"  ({summary['failed']} failed of {summary['attempted']})"))
        lines.append(f"# {summary['commands']} commands timed in {passes} passes; "
                     f"latency percentiles over all of them")

    correct = not problems and runner.nondeterministic == 0 and summary["failed"] == 0
    report.update(summary=summary, nondeterministic=runner.nondeterministic,
                  metrics={k: v[0] for k, v in metrics.items()},
                  failures=[{"argv": c.argv, "notes": v.notes}
                            for c, v in zip(workload.commands, runner.verdicts) if v.failed])
    with open(os.path.join(workdir, f"report-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    for name, (value, unit) in metrics.items():
        print(_line(name, value, unit))
    for line in lines:
        print(line)
    print(f"# outcomes: {summary['ok']} ok, {summary['flagged']} flagged, "
          f"{summary['failed']} failed of {summary['attempted']} operations; "
          f"oracle self-check and pooled test {'passed' if not problems else problems}; "
          f"{runner.nondeterministic} non-deterministic repeats")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
