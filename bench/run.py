"""hetcov benchmark: generated CLI workloads checked against an oracle.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-loaded --seed 1 --seconds 30 --trace 0

One process drives the public CLI in-process through hetcov.cli.main(argv),
single client, closed loop: each command starts when the previous one has
returned.  BLAS/OpenMP pools are pinned to one thread.  A run

1. times set-up (a fresh interpreter importing hetcov, generating the
   workload from --seed and loading every scenario) in five child
   interpreters, one after another, and reports the median;
2. with --trace 0, measures peak memory in one more child that imports only
   hetcov and the generator and runs every command once;
3. generates the workload in-process, computes every reference with the
   mpmath oracle (cached per input, never inside a timed region) and runs
   the oracle's self-checks;
4. runs each command once untimed, applies the pooled Monte Carlo test to
   those outputs, then runs whole passes over all commands,
   each pass in a seeded shuffled order, for about --seconds, timing each
   cli.main call and classifying every output as ok, flagged or failed
   (hetbench.classify);
5. with --trace 1, instead runs each pass untraced and then again with
   every public function wrapped by hetbench.tracing, for about --seconds
   in all, reporting per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric by
name with its unit.  Scenario files, the oracle cache, spans and a full
report go to .bench_build/hetcov-bench/ in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time-to-ready child for the set-up metric")
    parser.add_argument("--rss-probe", action="store_true",
                        help="internal: child whose peak memory is the memory metric")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "hetcov", "cli.py")):
        print(f"benchmark: no hetcov sources under {source}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, source)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    work_root = os.path.join(ROOT, ".bench_build", "hetcov-bench")
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed, work_root)
    if args.rss_probe:
        return _rss_probe(args.workload, args.seed, work_root)
    from hetbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(args, ROOT, work_root, THREAD_PINS)


def _setup_probe(workload: str, seed: int, work_root: str) -> int:
    """Set-up as a user pays it: import the package, generate the workload's
    scenarios and load each one, then report ready on stdout."""
    import json

    import hetcov
    from hetbench import workloads

    probe_dir = os.path.join(work_root, f"probe-{workload}-{seed}")
    made = workloads.generate(workload, seed, probe_dir)
    for key in made.scenarios:
        with open(os.path.join(probe_dir, f"{key}.json"), encoding="utf-8") as handle:
            hetcov.network_from_dict(json.load(handle))
    print("ready", flush=True)
    return 0


def _rss_probe(workload: str, seed: int, work_root: str) -> int:
    """Run every command of the workload once through hetcov.cli.main, each
    output captured and dropped, then print the peak resident set in MB.
    Nothing but hetcov and the generator is imported, so the figure is the
    program's own memory."""
    import io
    import resource
    from contextlib import redirect_stderr, redirect_stdout

    from hetcov import cli
    from hetbench import workloads

    made = workloads.generate(workload, seed, os.path.join(work_root, f"rss-{workload}-{seed}"))
    for cmd in made.commands:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                cli.main(cmd.argv)
            except Exception:  # failures are counted by the timed run
                pass
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
