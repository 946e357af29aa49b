#!/usr/bin/env python3
"""The factor-pair fast path: W @ x without ever forming W.

Collapsing the row cores gives a tall (N, r) matrix F and the column
cores a wide (r, M) matrix G^T, with r the shared middle rank; then
W @ x == F @ (G^T @ x) in r*(N+M) multiply-adds.
An MPO has its row and column indices intertwined, so it must
reconstruct the dense matrix before multiplying.
"""

import time

import numpy as np

from ttlstm.contract import OpCounter, build_factor_pair, mpo_matvec, mps_matvec
from ttlstm.ttrain import (
    InitScheme,
    ShapeFactorization,
    new_mpo,
    new_mps,
    reconstruct,
    uniform_mpo_ranks,
    uniform_mps_ranks,
)

fact = ShapeFactorization((50, 52), (25, 26))
rng = np.random.default_rng(0)
x = rng.normal(size=fact.n_cols)

print("-- correctness against the dense product --")
mps = new_mps(fact, *uniform_mps_ranks(fact, 20), InitScheme(), seed=1)
fp = build_factor_pair(mps)
y_fast = mps_matvec(fp, x)
y_dense = reconstruct(mps) @ x
print(f"  max |fast - dense| = {np.max(np.abs(y_fast - y_dense)):.2e}")

print("\n-- exact operation counts --")
counter = OpCounter()
mps_matvec(fp, x, counter)
r = fp[0].shape[1]
n, m = fact.n_rows, fact.n_cols
print(f"  matvec multiply-adds: {counter.madds:,} (= r(N+M) = {r * (n + m):,})")
print(f"  dense matvec would need {n * m:,}")

build_counter = OpCounter()
build_factor_pair(mps, build_counter)
print(f"  one-time factor build: {build_counter.madds:,} multiply-adds")

print("\n-- wall-clock: repeated matvecs, factors cached vs MPO reconstruct+multiply --")
mpo = new_mpo(fact, uniform_mpo_ranks(fact, 347), InitScheme(), seed=1)
reps = 200

start = time.perf_counter()
for _ in range(reps):
    mps_matvec(fp, x)
mps_s = time.perf_counter() - start

cache = reconstruct(mpo)        # cached across the pass, rebuilt once
start = time.perf_counter()
for _ in range(reps):
    mpo_matvec(mpo, x, cache=cache)
mpo_cached_s = time.perf_counter() - start

start = time.perf_counter()
rebuild = reconstruct(mpo)
mpo_rebuild_s = time.perf_counter() - start

print(f"  {reps} MPS matvecs:            {mps_s * 1e3:8.2f} ms")
print(f"  {reps} MPO matvecs (cached W): {mpo_cached_s * 1e3:8.2f} ms")
print(f"  one MPO reconstruction:      {mpo_rebuild_s * 1e3:8.2f} ms")
