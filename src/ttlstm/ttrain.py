"""MPS and MPO tensor-train representations of a weight matrix.

An ``N x M`` matrix is embedded into a tensor by factorizing
``N = I_1 * ... * I_n`` and ``M = J_1 * ... * J_m``. Its MPS train keeps
row cores ``A_k`` of shape ``(r_{k-1}, I_k, r_k)`` and column cores
``B_k`` of shape ``(s_{k-1}, J_k, s_k)`` with boundary ranks
``r_0 = s_m = 1`` and a shared middle rank ``r_n = s_0``. The MPO train
(requires ``n == m``) fuses row factor k with column factor k into a
single middle extent ``I_k * J_k``, pairing ``(i_k, j_k)`` as the fused
index ``i_k + (j_k - 1) I_k``.

Trains are immutable value objects; construction takes an explicit seed.

This module also holds the package's one contraction path, written on
:mod:`autograd` ops, so ``tape=None`` computes plain values and a tape
records gradients to the cores. An MPS chain contracts only as its factor
pair (:func:`factor_pair`): the row chain collapses left to right into
``F`` (``N x r``), the column chain right to left into ``G^T``
(``r x M``), and its dense matrix is ``F G^T``, which costs the pair's
``build_ops`` plus ``N r M`` multiply-adds. An MPO chain collapses right
to left as a whole and then unfuses its paired indices
(:func:`dense_matrix`). :func:`reconstruct` here, ``build_factor_pair``
and ``mpo_matvec`` in :mod:`contract`, and ``TTLinear.factors`` and
``dense_var`` in :mod:`nn` all call them; a window calls them once per stack.
A stack's product ``x W^T`` is :func:`apply`, which ``TTLinear.prepare``,
``mps_matvec`` and ``mpo_matvec`` run. ``forward_lm`` does not call it:
``lstm_scan`` takes both stacks' factor lists as they are and multiplies
their rows by the factors' transposes itself, with the same products.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import autograd as ag
from .autograd import Var
from .errors import CapacityError, DomainError, RankError, ShapeError

__all__ = [
    "MATERIALIZATION_CAP",
    "ShapeFactorization",
    "InitScheme",
    "MpsTrain",
    "MpoTrain",
    "uniform_mps_ranks",
    "uniform_mpo_ranks",
    "inverse_normal_cdf",
    "init_params",
    "new_mps",
    "new_mpo",
    "storage_count",
    "collapse_left",
    "collapse_right",
    "factor_pair",
    "dense_matrix",
    "apply",
    "check_capacity",
    "reconstruct",
    "balanced_factorization",
]

# Dense materialization guard for reconstruct(); reconstruction is a test
# and oracle path, not the production inference path for MPS.
MATERIALIZATION_CAP = 1 << 26


@dataclass(frozen=True)
class ShapeFactorization:
    """Dimension factorizations embedding an ``N x M`` matrix into a tensor."""

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self):
        if not self.row_dims or not self.col_dims:
            raise ShapeError("factorizations need at least one factor per side")
        if any(d < 1 for d in self.row_dims + self.col_dims):
            raise ShapeError("all factors must be >= 1")
        object.__setattr__(self, "row_dims", tuple(int(d) for d in self.row_dims))
        object.__setattr__(self, "col_dims", tuple(int(d) for d in self.col_dims))

    @property
    def n(self) -> int:
        return len(self.row_dims)

    @property
    def m(self) -> int:
        return len(self.col_dims)

    @property
    def n_rows(self) -> int:
        return math.prod(self.row_dims)

    @property
    def n_cols(self) -> int:
        return math.prod(self.col_dims)

    def fused_dims(self) -> tuple[int, ...]:
        """Middle extents ``I_k * J_k`` of the MPO cores."""
        if self.n != self.m:
            raise ShapeError(f"MPO fusing needs n == m, got {self.n} and {self.m}")
        return tuple(i * j for i, j in zip(self.row_dims, self.col_dims))


@dataclass(frozen=True)
class InitScheme:
    """How core entries are drawn.

    kind:
      * ``gaussian-variance-matched``: i.i.d. normal cores chosen so the
        reconstructed matrix entries have variance ``M**-0.5``.
      * ``flat-gaussian``: normal cores sized so reconstructed entries land
        in ``(-bound, bound)`` with probability ``1 - alpha``.
      * ``flat-uniform``: uniform cores with the same flatness target.
    ``bound`` defaults to ``1/sqrt(M)`` when left unset.
    """

    GAUSSIAN = "gaussian-variance-matched"
    FLAT_GAUSSIAN = "flat-gaussian"
    FLAT_UNIFORM = "flat-uniform"
    KINDS = (GAUSSIAN, FLAT_GAUSSIAN, FLAT_UNIFORM)

    kind: str = GAUSSIAN
    bound: float | None = None
    alpha: float = 0.05

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown init kind {self.kind!r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.bound is not None and self.bound <= 0:
            raise DomainError("bound must be positive")


def _check_chain(cores: list[np.ndarray], dims: tuple[int, ...], what: str):
    if len(cores) != len(dims):
        raise ShapeError(f"{what}: {len(cores)} cores for {len(dims)} factors")
    for k, (core, extent) in enumerate(zip(cores, dims)):
        if core.ndim != 3:
            raise ShapeError(f"{what} core {k} is rank-{core.ndim}, expected 3")
        if core.shape[1] != extent:
            raise ShapeError(f"{what} core {k} middle extent {core.shape[1]} != factor {extent}")
    for k in range(len(cores) - 1):
        if cores[k].shape[2] != cores[k + 1].shape[0]:
            raise RankError(
                f"{what} cores {k} and {k + 1} do not chain: "
                f"{cores[k].shape[2]} vs {cores[k + 1].shape[0]}"
            )


@dataclass(frozen=True)
class MpsTrain:
    """Row-core and column-core chains of one matrix, kept separate."""

    fact: ShapeFactorization
    row_cores: tuple[np.ndarray, ...]
    col_cores: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_cores", tuple(self.row_cores))
        object.__setattr__(self, "col_cores", tuple(self.col_cores))
        _check_chain(list(self.row_cores), self.fact.row_dims, "row")
        _check_chain(list(self.col_cores), self.fact.col_dims, "col")
        _rank_chains(self.fact, (self.row_ranks, self.col_ranks), "mps")

    @property
    def row_ranks(self) -> tuple[int, ...]:
        return (self.row_cores[0].shape[0],) + tuple(c.shape[2] for c in self.row_cores)

    @property
    def col_ranks(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self.col_cores) + (self.col_cores[-1].shape[2],)

    @property
    def cores(self) -> tuple[np.ndarray, ...]:
        """The whole chain: the row cores, then the column cores."""
        return self.row_cores + self.col_cores


@dataclass(frozen=True)
class MpoTrain:
    """Single core chain with fused row/column middle extents."""

    fact: ShapeFactorization
    cores: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "cores", tuple(self.cores))
        _check_chain(list(self.cores), self.fact.fused_dims(), "mpo")
        _rank_chains(self.fact, self.ranks, "mpo")

    @property
    def ranks(self) -> tuple[int, ...]:
        return (self.cores[0].shape[0],) + tuple(c.shape[2] for c in self.cores)


def _rank_chains(fact: ShapeFactorization, ranks, kind: str) -> list[tuple[int, ...]]:
    """``[row_chain, col_chain]`` for MPS, ``[chain]`` for MPO, from one uniform
    inner rank or the chains themselves: the one check of the rank-chain
    rules (lengths, boundary ranks 1, a shared middle rank, ranks >= 1)."""
    try:
        rank = operator.index(ranks)
    except TypeError:
        chains = [tuple(map(operator.index, c)) for c in (ranks if kind == "mps" else [ranks])]
    else:
        return list(uniform_mps_ranks(fact, rank)) if kind == "mps" else [uniform_mpo_ranks(fact, rank)]
    lengths = [fact.n + 1, fact.m + 1] if kind == "mps" else [fact.n + 1]
    if [len(c) for c in chains] != lengths:
        raise RankError(f"{kind} rank chains need lengths {lengths}, got {chains}")
    if chains[0][0] != 1 or chains[-1][-1] != 1:
        raise RankError(f"boundary ranks must be 1, got {chains}")
    if chains[0][-1] != chains[-1][0]:
        raise RankError(f"the row chain must end on the column chain's first rank, got {chains}")
    if min(min(c) for c in chains) < 1:
        raise RankError(f"ranks must be >= 1, got {chains}")
    return chains


def uniform_mps_ranks(fact: ShapeFactorization, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rank chains with every inner rank (including the shared middle) = rank."""
    if rank < 1:
        raise RankError("rank must be >= 1")
    row = (1,) + (rank,) * fact.n
    col = (rank,) * fact.m + (1,)
    return row, col


def uniform_mpo_ranks(fact: ShapeFactorization, rank: int) -> tuple[int, ...]:
    if rank < 1:
        raise RankError("rank must be >= 1")
    if fact.n != fact.m:
        raise ShapeError("MPO needs n == m")
    return (1,) + (rank,) * (fact.n - 1) + (1,)


def inverse_normal_cdf(p: float) -> float:
    """Quantile function of the standard normal distribution."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def init_params(scheme: InitScheme, fan_in: int, total_cores: int, ranks) -> float:
    """Per-entry scale for i.i.d. core initialization.

    Returns the standard deviation for the gaussian kinds and the uniform
    half-width for ``flat-uniform``. ``ranks`` is the rank chain of the
    train; boundary 1s may be included or omitted (they do not change the
    product). ``fan_in`` is the matrix column count M.
    """
    if fan_in < 1:
        raise DomainError("fan_in must be >= 1")
    if total_cores < 1:
        raise DomainError("total_cores must be >= 1")
    ranks = tuple(int(r) for r in ranks)
    if any(r < 1 for r in ranks):
        raise RankError("ranks must be positive")
    rank_prod = math.prod(ranks)
    n = total_cores
    if scheme.kind == InitScheme.GAUSSIAN:
        variance = rank_prod ** (-1.0 / n) * fan_in ** (-1.0 / (2 * n))
        return math.sqrt(variance)
    bound = scheme.bound if scheme.bound is not None else 1.0 / math.sqrt(fan_in)
    quantile = inverse_normal_cdf(1.0 - scheme.alpha / 2.0)
    if scheme.kind == InitScheme.FLAT_GAUSSIAN:
        variance = (bound / quantile) ** (2.0 / n) * rank_prod ** (-1.0 / n)
        return math.sqrt(variance)
    # flat-uniform: half-width of the per-entry uniform distribution
    return math.sqrt(3.0) * (bound / quantile) ** (1.0 / n) * rank_prod ** (-1.0 / (2 * n))


def _draw(rng: np.random.Generator, scheme: InitScheme, scale: float, shape) -> np.ndarray:
    if scheme.kind == InitScheme.FLAT_UNIFORM:
        return rng.uniform(-scale, scale, size=shape)
    return rng.normal(0.0, scale, size=shape)


def new_mps(fact: ShapeFactorization, row_ranks, col_ranks,
            init: InitScheme = InitScheme(), seed: int = 0) -> MpsTrain:
    """Allocate an MPS train with i.i.d. entries; deterministic per seed.

    ``row_ranks`` is the chain ``(1, r_1, ..., r_n)`` and ``col_ranks`` the
    chain ``(s_0, ..., s_{m-1}, 1)`` with ``r_n == s_0``.
    """
    row_ranks, col_ranks = _rank_chains(fact, (row_ranks, col_ranks), "mps")
    chain = row_ranks + col_ranks[1:]
    scale = init_params(init, fact.n_cols, fact.n + fact.m, chain)
    rng = np.random.default_rng(seed)
    row_cores = [
        _draw(rng, init, scale, (row_ranks[k], fact.row_dims[k], row_ranks[k + 1]))
        for k in range(fact.n)
    ]
    col_cores = [
        _draw(rng, init, scale, (col_ranks[k], fact.col_dims[k], col_ranks[k + 1]))
        for k in range(fact.m)
    ]
    return MpsTrain(fact, tuple(row_cores), tuple(col_cores))


def new_mpo(fact: ShapeFactorization, ranks,
            init: InitScheme = InitScheme(), seed: int = 0) -> MpoTrain:
    """Allocate an MPO train (requires ``n == m``); deterministic per seed."""
    fused = fact.fused_dims()
    ranks, = _rank_chains(fact, ranks, "mpo")
    scale = init_params(init, fact.n_cols, fact.n, ranks)
    rng = np.random.default_rng(seed)
    cores = [
        _draw(rng, init, scale, (ranks[k], fused[k], ranks[k + 1]))
        for k in range(fact.n)
    ]
    return MpoTrain(fact, tuple(cores))


def storage_count(train: MpsTrain | MpoTrain) -> int:
    """Total number of stored parameters: the sum of all core sizes."""
    return int(sum(c.size for c in train.cores))


def _matmul(tape, a: Var, b: Var, counter) -> Var:
    if counter is not None:
        counter.add(a.shape[0] * a.shape[1] * b.shape[1])
    return ag.matmul(tape, a, b)


def collapse_left(tape, cores, counter=None) -> Var:
    """Left-to-right pairwise contraction of a core chain, cheap when the
    chain starts on rank 1.

    Returns ``(first_rank * fused_free, last_rank)`` with the free indices
    colexicographic (first core slowest). ``cores`` may be arrays or Vars;
    with ``tape=None`` this computes plain values. ``counter`` (anything
    with ``add(int)``) receives the multiply-adds of every matmul run.
    """
    first = cores[0]
    r_prev, extent, r_next = first.shape
    acc = ag.reshape(tape, first, (r_prev * extent, r_next))
    for core in cores[1:]:
        r_prev, extent, r_next = core.shape
        mat = ag.reshape(tape, core, (r_prev, extent * r_next))
        prod = _matmul(tape, acc, mat, counter)
        acc = ag.reshape(tape, prod, (prod.shape[0] * extent, r_next))
    return acc


def collapse_right(tape, cores, counter=None) -> Var:
    """Right-to-left mirror of :func:`collapse_left`, cheap when the chain
    ends on rank 1.

    Returns ``(first_rank, fused_free * last_rank)`` whose columns
    enumerate the free indices colexicographically with the trailing rank
    index fastest.
    """
    last = cores[-1]
    r_prev, extent, r_next = last.shape
    acc = ag.reshape(tape, last, (r_prev, extent * r_next))
    for core in reversed(cores[:-1]):
        r_prev, extent, r_next = core.shape
        mat = ag.reshape(tape, core, (r_prev * extent, r_next))
        prod = _matmul(tape, mat, acc, counter)
        acc = ag.reshape(tape, prod, (r_prev, extent * prod.shape[1]))
    return acc


def factor_pair(tape, row_cores, col_cores, counter=None) -> list[Var]:
    """``[F, G^T]`` of an MPS chain, with ``W = F G^T``.

    Each chain collapses from its rank-1 end: the rows left to right into
    ``F`` of shape ``(N, r)``, the columns right to left into ``G^T`` of
    shape ``(r, M)``, where ``r`` is the shared middle rank.
    """
    return [collapse_left(tape, row_cores, counter), collapse_right(tape, col_cores, counter)]


def dense_matrix(tape, fact: ShapeFactorization, cores, counter=None) -> Var:
    """The ``N x M`` matrix of a whole core chain.

    ``cores`` is either the full MPS chain (row cores, then column cores),
    whose matrix is ``F @ G^T`` from :func:`factor_pair`, or an MPO chain,
    which collapses right to left and whose fused axes are split and
    reordered here.
    """
    if len(cores) == fact.n + fact.m:
        f, g_t = factor_pair(tape, cores[:fact.n], cores[fact.n:], counter)
        return _matmul(tape, f, g_t, counter)
    acc = collapse_right(tape, cores, counter)
    # Fused index i_k + (j_k - 1) I_k means j varies slower than i, so each
    # fused axis splits as (J_k, I_k) in row-major order.
    split = []
    for i_dim, j_dim in zip(fact.row_dims, fact.col_dims):
        split.extend((j_dim, i_dim))
    tensor = ag.reshape(tape, acc, split)
    rows_then_cols = [2 * k + 1 for k in range(fact.n)] + [2 * k for k in range(fact.m)]
    tensor = ag.transpose(tape, tensor, rows_then_cols)
    return ag.reshape(tape, tensor, (fact.n_rows, fact.n_cols))


def apply(tape, x, factors, counter=None) -> Var:
    """``x W^T`` for batch-first rows ``x``, with ``W`` the product of
    ``factors`` (``[F, G^T]`` or ``[W]``): ``x`` times each factor's
    transpose, last factor first, ``x G F^T`` for a pair. That is ``rows *
    r * (M + N)`` multiply-adds for a pair, ``rows * N * M`` for a matrix,
    counted into ``counter`` as in :func:`factor_pair`."""
    for f in reversed(factors):
        x = _matmul(tape, x, ag.transpose(tape, f), counter)
    return x


def check_capacity(fact: ShapeFactorization):
    """Raise :class:`CapacityError` when ``N * M`` exceeds ``MATERIALIZATION_CAP``."""
    if fact.n_rows * fact.n_cols > MATERIALIZATION_CAP:
        raise CapacityError(f"{fact.n_rows} x {fact.n_cols} exceeds cap of "
                            f"{MATERIALIZATION_CAP} entries")


def reconstruct(train: MpsTrain | MpoTrain) -> np.ndarray:
    """Materialize the dense ``N x M`` matrix the train represents.

    Raises :class:`CapacityError` when ``N * M`` exceeds ``MATERIALIZATION_CAP``.
    """
    check_capacity(train.fact)
    return dense_matrix(None, train.fact, train.cores).value


def balanced_factorization(value: int, parts: int) -> tuple[int, ...]:
    """Split ``value`` into ``parts`` integer factors with the smallest
    possible maximum factor (ties broken toward the lexicographically
    smallest ascending tuple). Deterministic.

    Only non-decreasing tuples are searched, so a factor ``d`` is tried
    only while ``d ** p`` does not exceed what is left to split into ``p``
    parts: every factor but the last is a divisor up to ``isqrt(value)``.
    At most ``omega``, the count of prime factors with multiplicity, differ
    from 1, so further parts are leading ones and the search stays shallow.
    """
    if parts < 1:
        raise DomainError("parts must be >= 1")
    if value < 1:
        raise DomainError("value must be >= 1")
    divisors = [d for d in range(1, math.isqrt(value) + 1) if value % d == 0]
    omega, rest = 0, value
    for d in divisors[1:]:
        while rest % d == 0:
            rest, omega = rest // d, omega + 1
    omega += rest > 1
    if parts > omega:
        return (1,) * (parts - omega) + (balanced_factorization(value, omega) if omega else ())
    best: tuple[int, ...] | None = None

    def search(v: int, p: int, low: int, acc: tuple[int, ...]):
        nonlocal best
        if p == 1:
            # acc is non-decreasing and v >= acc[-1], so v is the largest factor
            if best is None or (v, acc + (v,)) < (best[-1], best):
                best = acc + (v,)
            return
        for d in divisors:
            if d ** p > v:
                break
            if d >= low and v % d == 0:
                search(v // d, p - 1, d, acc + (d,))

    search(value, parts, 1, ())
    assert best is not None
    return best
