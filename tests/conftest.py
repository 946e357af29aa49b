"""Shared brute-force oracles for the tensor-train tests.

These deliberately avoid the library's contraction code paths: entries are
computed with explicit Python loops over ``itertools.product`` enumerations
(which visit multi-indices in exactly the big-endian colexicographic order
the package uses). The distillation oracle is built from generic autograd
ops, not from ``distill``'s records.
"""

from __future__ import annotations

import itertools

import numpy as np

import ttlstm.autograd as ag
from ttlstm.ttrain import InitScheme, MpoTrain, MpsTrain, ShapeFactorization, new_mpo, new_mps


def colex_enumerate(dims):
    """All 0-based multi-indices in big-endian colexicographic order."""
    return itertools.product(*(range(d) for d in dims))


def brute_mps_entry(train: MpsTrain, row_mi, col_mi) -> float:
    """Entry of the reconstructed matrix via explicit sums over every
    inner-rank path. ``row_mi``/``col_mi`` are 0-based multi-indices."""
    cores = list(train.row_cores) + list(train.col_cores)
    mids = list(row_mi) + list(col_mi)
    rank_extents = [c.shape[2] for c in cores[:-1]]
    total = 0.0
    for path in itertools.product(*(range(r) for r in rank_extents)):
        bonds = (0,) + path + (0,)
        term = 1.0
        for k, core in enumerate(cores):
            term *= core[bonds[k], mids[k], bonds[k + 1]]
        total += term
    return total


def brute_reconstruct_mps(train: MpsTrain) -> np.ndarray:
    fact = train.fact
    out = np.zeros((fact.n_rows, fact.n_cols))
    for i, row_mi in enumerate(colex_enumerate(fact.row_dims)):
        for j, col_mi in enumerate(colex_enumerate(fact.col_dims)):
            out[i, j] = brute_mps_entry(train, row_mi, col_mi)
    return out


def brute_reconstruct_mpo(train: MpoTrain) -> np.ndarray:
    fact = train.fact
    rank_extents = [c.shape[2] for c in train.cores[:-1]]
    out = np.zeros((fact.n_rows, fact.n_cols))
    for i, row_mi in enumerate(colex_enumerate(fact.row_dims)):
        for j, col_mi in enumerate(colex_enumerate(fact.col_dims)):
            # fused 0-based middle index of core k: j_k * I_k + i_k
            fused = [col_mi[k] * fact.row_dims[k] + row_mi[k] for k in range(fact.n)]
            total = 0.0
            for path in itertools.product(*(range(r) for r in rank_extents)):
                bonds = (0,) + path + (0,)
                term = 1.0
                for k, core in enumerate(train.cores):
                    term *= core[bonds[k], fused[k], bonds[k + 1]]
                total += term
            out[i, j] = total
    return out


def random_mps(rng: np.random.Generator, max_factor=4, max_parts=3, max_rank=4) -> MpsTrain:
    n = int(rng.integers(1, max_parts + 1))
    m = int(rng.integers(1, max_parts + 1))
    rows = tuple(int(rng.integers(1, max_factor + 1)) for _ in range(n))
    cols = tuple(int(rng.integers(1, max_factor + 1)) for _ in range(m))
    fact = ShapeFactorization(rows, cols)
    row_ranks = (1,) + tuple(int(rng.integers(1, max_rank + 1)) for _ in range(n))
    col_ranks = (row_ranks[-1],) + tuple(int(rng.integers(1, max_rank + 1)) for _ in range(m - 1)) + (1,)
    return new_mps(fact, row_ranks, col_ranks, InitScheme(), seed=int(rng.integers(2**31)))


def random_mpo(rng: np.random.Generator, max_factor=4, max_parts=3, max_rank=4) -> MpoTrain:
    n = int(rng.integers(1, max_parts + 1))
    rows = tuple(int(rng.integers(1, max_factor + 1)) for _ in range(n))
    cols = tuple(int(rng.integers(1, max_factor + 1)) for _ in range(n))
    fact = ShapeFactorization(rows, cols)
    ranks = (1,) + tuple(int(rng.integers(1, max_rank + 1)) for _ in range(n - 1)) + (1,)
    return new_mpo(fact, ranks, InitScheme(), seed=int(rng.integers(2**31)))


def five_op_kd_penalty(tape, w_star, w, lam, cov=None):
    """``lam Tr[(W* - W) S (W* - W)^T]`` as a graph of five autograd ops:
    sub, matmul by ``S`` (skipped for ``cov=None``), mul, reduce_sum, scale.
    ``S`` is used as given, asymmetric or not."""
    diff = ag.sub(tape, w_star, w)
    weighted = diff if cov is None else ag.matmul(tape, diff, cov)
    return ag.scale(tape, ag.reduce_sum(tape, ag.mul(tape, diff, weighted)), float(lam))
