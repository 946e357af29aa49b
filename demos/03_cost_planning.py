#!/usr/bin/env python3
"""Cost models and rank planning across factorization depths.

For a target compression rate the closed forms invert the bound-level
storage polynomial, so the rate measured against the bound tracks the
target tightly; the exact storage of uneven factorizations lands higher.
The MPO/MPS ratio compares the counted multiply-adds of MPO inference
(reconstruct, then dense products) with the MPS factor-pair path at each
target rate: per matvec, and per 700-row window (one 35 x 20 window,
``build_ops + 700 matvec_ops``).
"""

from ttlstm.contract import cost_model, pick_rank
from ttlstm.ttrain import ShapeFactorization

FULL = 2600 * 650
ROWS = 35 * 20
RATES = (1.8, 2.6, 3.4, 6.0)
SHAPES = {
    2: ShapeFactorization((50, 52), (25, 26)),
    3: ShapeFactorization((13, 10, 20), (13, 5, 10)),
    4: ShapeFactorization((10, 5, 4, 13), (5, 5, 13, 2)),
}

print(f"gate stack: 2600 x 650 = {FULL:,} dense parameters\n")

header = f"{'factors':>8} {'kind':>5} {'target':>7} {'rank':>5} {'storage':>9} {'bound rate':>10} {'exact rate':>10}"
print(header)
print("-" * len(header))
reports = {}
for n, fact in SHAPES.items():
    for kind in ("mps", "mpo"):
        for rho in RATES:
            rank = pick_rank(rho, fact, kind)
            report = reports[n, kind, rho] = cost_model(fact, rank, kind)
            print(f"{n:>8} {kind:>5} {rho:>7.1f} {rank:>5} {report.storage:>9,} "
                  f"{FULL / report.storage_bound:>10.2f} {FULL / report.storage:>10.2f}")

print("\n-- MPO/MPS ratio of counted multiply-adds: per matvec / per 700-row window --")
print(f"{'target':>7}" + "".join(f"{f'{n} factors':>16}" for n in SHAPES))
for rho in RATES:
    cells = []
    for n in SHAPES:
        mps, mpo = reports[n, "mps", rho], reports[n, "mpo", rho]
        window = (mpo.build_ops + ROWS * mpo.matvec_ops) / (mps.build_ops + ROWS * mps.matvec_ops)
        cells.append(f"{mpo.matvec_ops / mps.matvec_ops:.2f} / {window:.2f}")
    print(f"{rho:>7.1f}" + "".join(f"{cell:>16}" for cell in cells))

print("\n-- per-call operation accounting at rate 1.8 --")
fact = SHAPES[2]
for kind in ("mps", "mpo"):
    rank = pick_rank(1.8, fact, kind)
    report = cost_model(fact, rank, kind)
    print(f"  {kind} rank {rank}: matvec {report.matvec_ops:,} madds "
          f"(one-time build {report.build_ops:,})")
