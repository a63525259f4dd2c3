"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-porto --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the program's layer entry points and prints the
per-layer metrics instead.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are for people.  ``--workload all`` runs every workload in its own
process, one after another; its last line adds up their attempts and
failures and names each metric ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: BLAS threads for the measured process; at most the usable CPUs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in a child process, then one combined result line."""
    import workloads
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines))
        if proc.returncode != 0 or not lines:
            print(f"# FAILED: {name} exited with {proc.returncode}")
            return 1
        line = json.loads(lines[-1])
        correct = correct and line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        metrics.update({f"{name}.{metric}": (m["value"], m["unit"])
                        for metric, m in line["metrics"].items()})
    print(harness.result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    spec = harness.load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    import workloads
    result, layers = workloads.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    facts = harness.host_facts(BLAS_THREADS)
    facts.update(workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, **result.facts)
    print(f"# {args.workload} seed={args.seed} " + json.dumps(facts))

    workloads.check_quality_repeats(
        args.workload, args.seed, result,
        f"{facts['src_sha256']}-{facts['bench_sha256']}")
    section = "per_layer" if args.trace else "end_to_end"
    units = harness.metric_units(spec, section)
    values = layers if args.trace else result.metrics
    metrics = {name: (values[name], unit) for name, unit in units.items()
               if name in values and math.isfinite(values[name])}
    missing = sorted(set(units) - set(metrics))
    if missing:
        result.fail(f"metrics not measured: {missing}")
    for note in result.notes:
        print(f"# FAILED: {note}")
    for name, (value, unit) in metrics.items():
        label = "" if args.trace else result.labels[name]
        print(f"{args.workload:>15} {name:<24} {value:>14.6g} {unit:<7} {label}")
    if not args.trace:
        for name in sorted(set(result.metrics) - set(units)):
            print(f"{args.workload:>15} {name:<24} {result.metrics[name]:>14.6g} "
                  f"{'':<7} {result.labels[name]} (printed, not gated)")
    print(harness.result_line(result.failed == 0, max(result.attempted, 1),
                              result.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
