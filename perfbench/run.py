"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eval-desk-mpo --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced variant and prints every per-layer metric. Human-readable lines
(seed, environment, checks, metrics with units) come first; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md in this directory.

``--workload all`` runs the three workloads one after another, each in its
own process, and prints each one's lines in turn.

Exit codes: 0 with a result; 2 when ``ttlstm`` cannot be imported from
this checkout; 3 when BLAS does not run on exactly one thread; 1 when a
workload under ``all`` failed or reported an incorrect result.
"""

from __future__ import annotations

import bootstrap  # noqa: I001  (pins BLAS threads; must precede numpy)

import argparse
import json
import subprocess
import sys


def run_all(args, names) -> int:
    """Run each workload in a child process, one after another; exit 0
    only if every child exits 0 with a correct result."""
    status = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--tiny"] if args.tiny else []),
            capture_output=True, text=True)
        print(child.stdout, end="", flush=True)
        print(child.stderr, end="", file=sys.stderr, flush=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    try:
        bootstrap.import_ttlstm()
    except (bootstrap.SetupError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="'all' runs every workload, each in its own process, in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    env = bootstrap.environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    if env["blas_threads"] != 1:
        print(f"perfbench: refusing to time: BLAS runs {env['blas_threads']} threads, "
              "the benchmark needs exactly 1", file=sys.stderr)
        return 3

    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    outcome = workloads.run_workload(table[args.workload], args.seed, args.seconds,
                                     bool(args.trace))
    for name, ok, detail in outcome.checks.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, (value, unit, note) in outcome.metrics.items():
        shown = f"{value:.0f}" if unit == "count" else f"{value:.6g}"
        print(f"{name} = {shown} {unit}" + (f" ({note})" if note else ""))
    for note in outcome.notes:
        print(note)
    print(f"error_rate = {outcome.failed}/{outcome.attempted} (windows and checks)")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
