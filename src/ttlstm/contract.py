"""Fast inference kernels and exact cost accounting for tensor trains.

The MPS fast path precomputes the factor pair ``[F, G^T]`` of shapes
``(N, r)`` and ``(r, M)``, where ``r`` is the shared middle rank, so that
``W = F G^T`` and a matrix-vector product costs ``r * (N + M)``
multiply-adds without ever materializing ``W``. The MPO path has to
reconstruct the dense matrix; callers may cache it across calls.

Both paths accept an optional :class:`OpCounter` that accumulates the
exact multiply-add count of every matrix product performed. No
contraction and no product is written here: the factor pair is
``ttrain.factor_pair``, the MPO reconstruction (collapse plus unfuse) is
``ttrain.dense_matrix`` and a matvec is a one-row ``ttrain.apply``, the
same code the model runs, and they count the matmuls they actually run.
An MPS chain is only ever contracted as its factor pair; its dense matrix
``F G^T`` costs ``build_ops`` plus ``N r M``. The closed forms in
:func:`cost_model` predict those counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ttrain
from .errors import DomainError, ShapeError
from .ttrain import (MpoTrain, MpsTrain, ShapeFactorization, apply, check_capacity,
                     dense_matrix, factor_pair)

__all__ = [
    "OpCounter",
    "CostReport",
    "build_factor_pair",
    "mps_matvec",
    "mpo_matvec",
    "cost_model",
    "pick_rank",
    "compression_rate",
]


@dataclass
class OpCounter:
    """Accumulates exact multiply-add counts. One instance per call site;
    never shared across threads."""

    madds: int = 0

    def add(self, count: int):
        self.madds += int(count)


def build_factor_pair(mps: MpsTrain, counter: OpCounter | None = None) -> list[np.ndarray]:
    """``[F, G^T]`` of an MPS train as arrays, so ``F @ G^T`` is its matrix.

    ``ttrain.factor_pair`` collapses each chain pairwise from its rank-1
    boundary (rows left to right, columns right to left), which keeps every
    step at two rank factors and the build under ``R^2 [(n-1) N + (m-1) M]``
    multiply-adds.
    """
    return [v.value for v in factor_pair(None, mps.row_cores, mps.col_cores, counter)]


def mps_matvec(pair: list, x: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """``y = W @ x`` through the factor pair ``[F, G^T]``, in
    ``r * (N + M)`` multiply-adds; the dense matrix is never formed."""
    x = np.asarray(x, dtype=np.float64)
    n_cols = pair[1].shape[1]
    if x.shape != (n_cols,):
        raise ShapeError(f"expected input of length {n_cols}, got shape {x.shape}")
    return apply(None, x[None], pair, counter).value[0]


def _chain_madds(extents, ranks) -> int:
    """Closed form of the multiply-adds ``ttrain.collapse_right`` counts for
    a chain whose core k has shape (ranks[k], extents[k], ranks[k+1])."""
    total = 0
    tail = extents[-1] * ranks[-1]
    for k in range(len(extents) - 2, -1, -1):
        total += ranks[k] * extents[k] * ranks[k + 1] * tail
        tail *= extents[k]
    return total


def mpo_matvec(mpo: MpoTrain, x: np.ndarray, cache: np.ndarray | None = None,
               counter: OpCounter | None = None) -> np.ndarray:
    """``y = W @ x`` by reconstructing the dense matrix first.

    Pass the previously reconstructed matrix as ``cache`` to skip the
    rebuild; the arithmetic after reconstruction is identical either way.
    """
    fact = mpo.fact
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fact.n_cols,):
        raise ShapeError(f"expected input of length {fact.n_cols}, got shape {x.shape}")
    if cache is None:
        check_capacity(fact)
        cache = dense_matrix(None, fact, mpo.cores, counter).value
    elif cache.shape != (fact.n_rows, fact.n_cols):
        raise ShapeError(f"cache shape {cache.shape} != {(fact.n_rows, fact.n_cols)}")
    return apply(None, x[None], [cache], counter).value[0]


@dataclass(frozen=True)
class CostReport:
    """Exact storage/operation counts plus the closed-form bound terms.

    ``storage`` and the ``*_ops`` fields are exact counts for the given
    rank chains. The ``*_bound`` fields evaluate the closed-form bounds
    with R the maximum rank, I the maximum row factor and J the maximum
    column factor; rank planning targets ``storage_bound``.
    """

    kind: str
    n_factors: int
    max_rank: int
    storage: int
    storage_bound: int
    matvec_ops: int       # per matvec, factor pair or dense matrix already built
    build_ops: int        # one-time factor-pair build (MPS) or reconstruction (MPO)
    matvec_ops_bound: int


def cost_model(fact: ShapeFactorization, ranks, kind: str) -> CostReport:
    """Storage and operation accounting for a factorization and rank choice.

    ``ranks`` may be a single uniform inner rank (``uniform_mps_ranks``/
    ``uniform_mpo_ranks``) or explicit chains (a ``(row_chain, col_chain)``
    pair for MPS, one chain for MPO) of any integer type. A chain that
    ``new_mps``/``new_mpo`` would reject raises the same :class:`RankError`.
    """
    if kind not in ("mps", "mpo"):
        raise DomainError(f"kind must be 'mps' or 'mpo', got {kind!r}")
    chains = ttrain._rank_chains(fact, ranks, kind)
    n, m = fact.n, fact.m
    big_n, big_m = fact.n_rows, fact.n_cols
    max_i, max_j = max(fact.row_dims), max(fact.col_dims)
    if kind == "mps":
        row, col = chains
        r = max(row + col)
        storage = sum(row[k] * row[k + 1] * fact.row_dims[k] for k in range(n))
        storage += sum(col[k] * col[k + 1] * fact.col_dims[k] for k in range(m))
        storage_bound = r * (max_i + max_j) + r * r * ((n - 1) * max_i + (m - 1) * max_j)
        mid = row[-1]
        matvec_ops = mid * (big_n + big_m)
        # collapse_left on the rows counts what collapse_right does on the mirrored chain
        build_ops = _chain_madds(fact.row_dims[::-1], row[::-1]) + _chain_madds(fact.col_dims, col)
        ops_bound = r * (big_n + big_m) + r * r * ((n - 1) * big_n + (m - 1) * big_m)
    else:
        chain, = chains
        fused = fact.fused_dims()
        r = max(chain)
        storage = sum(chain[k] * chain[k + 1] * fused[k] for k in range(n))
        storage_bound = max_i * max_j * (2 * r + (n - 2) * r * r)
        matvec_ops = big_n * big_m
        build_ops = _chain_madds(fused, chain)
        ops_bound = big_n * big_m * (r + r * r * (n - 2))
    return CostReport(kind, n, int(r), int(storage), int(storage_bound),
                      int(matvec_ops), int(build_ops), int(ops_bound))


def pick_rank(target_rate: float, fact: ShapeFactorization, kind: str) -> int:
    """Uniform inner rank whose bound-level storage hits ``1/target_rate``
    of the dense parameter count; floor of the closed form, clamped to 1.

    The closed forms invert ``storage_bound`` (maximum factor extents), so
    the achieved rate measured against ``storage_bound`` tracks the target
    closely, while the exact ``storage`` of uneven factorizations can sit
    well above it.
    """
    if target_rate <= 1.0:
        raise DomainError(f"target rate must exceed 1, got {target_rate}")
    if fact.n != fact.m:
        raise DomainError("rank planning assumes n == m")
    n = fact.n
    kappa = 1.0 / target_rate
    nm = fact.n_rows * fact.n_cols
    max_i, max_j = max(fact.row_dims), max(fact.col_dims)
    if kind == "mps":
        if n == 1:
            r = kappa * nm / (max_i + max_j)
        else:
            r = (math.sqrt(1.0 + 4.0 * kappa * (n - 1) * nm / (max_i + max_j)) - 1.0) / (2 * (n - 1))
    elif kind == "mpo":
        if n == 1:
            raise DomainError("a single-core MPO has no inner rank to plan")
        if n == 2:
            r = kappa * nm / (2.0 * max_i * max_j)
        else:
            r = (math.sqrt(1.0 + kappa * (n - 2) * nm / (max_i * max_j)) - 1.0) / (n - 2)
    else:
        raise DomainError(f"kind must be 'mps' or 'mpo', got {kind!r}")
    return max(1, int(math.floor(r)))


def compression_rate(full_param_count: int, tt_param_count: int) -> float:
    """Dense parameter count over compressed parameter count."""
    if full_param_count <= 0 or tt_param_count <= 0:
        raise DomainError("parameter counts must be positive")
    return full_param_count / tt_param_count
