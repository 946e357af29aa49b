#!/usr/bin/env python3
"""Building MPS and MPO tensor trains and checking what they store.

A 2600 x 650 matrix (a stacked LSTM gate matrix with hidden size 650)
factorizes as rows (50, 52) and columns (25, 26). The MPS keeps row and
column cores separate; the MPO fuses each row/column factor pair.
"""

import numpy as np

from ttlstm.contract import compression_rate
from ttlstm.ttrain import (
    InitScheme,
    ShapeFactorization,
    new_mpo,
    new_mps,
    reconstruct,
    storage_count,
    uniform_mpo_ranks,
    uniform_mps_ranks,
)

fact = ShapeFactorization((50, 52), (25, 26))
print(f"matrix: {fact.n_rows} x {fact.n_cols} = {fact.n_rows * fact.n_cols:,} entries")

print("\n-- MPS with every inner rank 20 --")
mps = new_mps(fact, *uniform_mps_ranks(fact, 20), InitScheme(), seed=0)
for k, core in enumerate(mps.cores):
    side = "row" if k < fact.n else "col"
    print(f"  core {k} ({side}): shape {core.shape}, {core.size:,} entries")
print(f"  stored parameters: {storage_count(mps):,}")
print(f"  compression rate:  {compression_rate(fact.n_rows * fact.n_cols, storage_count(mps)):.1f}x")

print("\n-- MPO with the same factors fused --")
mpo = new_mpo(fact, uniform_mpo_ranks(fact, 20), InitScheme(), seed=0)
for k, core in enumerate(mpo.cores):
    print(f"  core {k}: shape {core.shape}, {core.size:,} entries")
print(f"  stored parameters: {storage_count(mpo):,}")
print(f"  compression rate:  {compression_rate(fact.n_rows * fact.n_cols, storage_count(mpo)):.1f}x")

print("\n-- reconstruction is exact linear algebra, not an approximation of the train --")
small = ShapeFactorization((3, 4), (2, 5))
train = new_mps(small, (1, 4, 3), (3, 2, 1), InitScheme(), seed=7)
w = reconstruct(train)
print(f"  reconstructed dense shape: {w.shape}")
doubled = [c * 2.0 for c in train.cores]
from ttlstm.ttrain import MpsTrain

scaled = MpsTrain(small, tuple(doubled[:2]), tuple(doubled[2:]))
ratio = reconstruct(scaled) / w
print(f"  scaling every core by 2 scales the matrix by 2^4 = {ratio.flat[0]:.1f}")
