"""Record the NLL each workload reports per seed into reference.json.

    python3 perfbench/record_reference.py --seeds 0-31,97 [--tiny]

A timed run compares its ``nll`` with the value recorded here for its
configuration and seed. Re-record only when a change is meant to alter the
numbers (a new workload configuration, a different initialization), and
say so in the change.
"""

from __future__ import annotations

import bootstrap  # noqa: I001  (pins BLAS threads; must precede numpy)

import argparse
import json
import sys


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-31,97")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    bootstrap.import_ttlstm()
    if bootstrap.environment()["blas_threads"] != 1:
        print("record_reference: BLAS must run on exactly one thread", file=sys.stderr)
        return 3

    import workloads

    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    reference = workloads.load_reference()
    for w in table.values():
        entry = reference.setdefault(workloads.reference_key(w), {})
        for seed in args.seeds:
            entry[str(seed)] = workloads.reference_nll(w, seed)
            print(f"{workloads.reference_key(w)} seed {seed}: {entry[str(seed)]!r}", flush=True)
        with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
