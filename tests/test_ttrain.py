import functools
import itertools
import math
import time

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_reconstruct_mpo, brute_reconstruct_mps
from ttlstm.contract import cost_model
from ttlstm.errors import CapacityError, DomainError, RankError, ShapeError
from ttlstm.ttrain import (
    InitScheme,
    MpoTrain,
    MpsTrain,
    ShapeFactorization,
    balanced_factorization,
    init_params,
    inverse_normal_cdf,
    new_mpo,
    new_mps,
    reconstruct,
    storage_count,
    uniform_mpo_ranks,
    uniform_mps_ranks,
)


_SEED = st.integers(0, 2**31 - 1)


def _extents(count):
    """``count`` factor dims or inner ranks, each 1 to 3."""
    return st.lists(st.integers(1, 3), min_size=count, max_size=count).map(tuple)


class TestConstruction:
    def test_650_stack_two_factor_core_shapes(self):
        fact = ShapeFactorization((50, 52), (25, 26))
        train = new_mps(fact, (1, 20, 20), (20, 20, 1), seed=0)
        shapes = [c.shape for c in train.cores]
        assert shapes == [(1, 50, 20), (20, 52, 20), (20, 25, 20), (20, 26, 1)]

    def test_rank_one_train_parameter_count(self):
        fact = ShapeFactorization((2, 2), (2, 2))
        train = new_mps(fact, (1, 1, 1), (1, 1, 1), seed=1)
        assert storage_count(train) == 8

    def test_seed_determinism(self):
        fact = ShapeFactorization((3, 4), (2, 5))
        a = new_mps(fact, (1, 3, 2), (2, 3, 1), seed=42)
        b = new_mps(fact, (1, 3, 2), (2, 3, 1), seed=42)
        for ca, cb in zip(a.cores, b.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_bad_rank_chains(self):
        fact = ShapeFactorization((3, 4), (2, 5))
        with pytest.raises(RankError):
            new_mps(fact, (2, 3, 2), (2, 3, 1), seed=0)   # leading != 1
        with pytest.raises(RankError):
            new_mps(fact, (1, 3, 2), (2, 3, 2), seed=0)   # trailing != 1
        with pytest.raises(RankError):
            new_mps(fact, (1, 3, 2), (3, 3, 1), seed=0)   # middle mismatch
        with pytest.raises(RankError):
            new_mps(fact, (1, 3, 2), (-1, 3, 1), seed=0)  # negative col-side middle

    def test_mpo_two_factor_650_stack(self):
        fact = ShapeFactorization((50, 52), (25, 26))
        train = new_mpo(fact, (1, 20, 1), seed=0)
        assert [c.shape for c in train.cores] == [(1, 1250, 20), (20, 1352, 1)]

    def test_mpo_three_factor_fused_dims(self):
        fact = ShapeFactorization((13, 10, 20), (13, 5, 10))
        assert fact.fused_dims() == (169, 50, 200)

    def test_mpo_rank_one_count(self):
        fact = ShapeFactorization((3, 4), (2, 5))
        train = new_mpo(fact, (1, 1, 1), seed=0)
        assert storage_count(train) == 3 * 2 + 4 * 5

    def test_mpo_needs_square_factorization(self):
        fact = ShapeFactorization((3, 4), (2, 5, 1))
        with pytest.raises(ShapeError):
            new_mpo(fact, (1, 2, 2, 1), seed=0)


class TestStorage:
    def test_650_stack_mps_at_rank_20(self):
        fact = ShapeFactorization((50, 52), (25, 26))
        train = new_mps(fact, *uniform_mps_ranks(fact, 20), seed=0)
        # independent per-core element count
        expected = sum(math.prod(c.shape) for c in train.cores)
        assert storage_count(train) == expected == 32_320

    def test_650_stack_mpo_at_rank_20(self):
        fact = ShapeFactorization((50, 52), (25, 26))
        train = new_mpo(fact, uniform_mpo_ranks(fact, 20), seed=0)
        expected = sum(math.prod(c.shape) for c in train.cores)
        assert storage_count(train) == expected == 52_040

    def test_formula_grid_mps(self):
        # exhaustive over a small grid: storage equals the rank-chain sums
        for rows in [(2,), (2, 3), (3, 2, 2)]:
            for cols in [(2,), (3, 2)]:
                fact = ShapeFactorization(rows, cols)
                for r in (1, 2, 3):
                    train = new_mps(fact, *uniform_mps_ranks(fact, r), seed=5)
                    rr, cc = train.row_ranks, train.col_ranks
                    formula = sum(rr[k] * rr[k + 1] * rows[k] for k in range(len(rows)))
                    formula += sum(cc[k] * cc[k + 1] * cols[k] for k in range(len(cols)))
                    assert storage_count(train) == formula

    def test_formula_grid_mpo(self):
        for rows, cols in [((2,), (3,)), ((2, 3), (3, 2)), ((2, 2, 3), (3, 2, 2))]:
            fact = ShapeFactorization(rows, cols)
            for r in (1, 2, 3):
                train = new_mpo(fact, uniform_mpo_ranks(fact, r), seed=5)
                ranks = train.ranks
                fused = fact.fused_dims()
                formula = sum(ranks[k] * ranks[k + 1] * fused[k] for k in range(len(rows)))
                assert storage_count(train) == formula

    def test_rank_one_sums_middle_extents(self):
        fact = ShapeFactorization((4, 3), (2, 6))
        train = new_mps(fact, (1, 1, 1), (1, 1, 1), seed=0)
        assert storage_count(train) == 4 + 3 + 2 + 6


class TestReconstruct:
    def test_all_ones_rank_one(self):
        fact = ShapeFactorization((2, 2), (2, 2))
        cores_row = (np.ones((1, 2, 1)), np.ones((1, 2, 1)))
        cores_col = (np.ones((1, 2, 1)), np.ones((1, 2, 1)))
        train = MpsTrain(fact, cores_row, cores_col)
        np.testing.assert_array_equal(reconstruct(train), np.ones((4, 4)))

    def test_mpo_rank_one_outer_structure(self):
        fact = ShapeFactorization((2, 3), (2, 2))
        rng = np.random.default_rng(9)
        a = rng.normal(size=(1, 4, 1))
        b = rng.normal(size=(1, 6, 1))
        train = MpoTrain(fact, (a, b))
        np.testing.assert_allclose(reconstruct(train), brute_reconstruct_mpo(train),
                                   rtol=0, atol=1e-13)

    def test_random_mps_vs_brute_force(self):
        fact = ShapeFactorization((4, 4), (4, 4))
        train = new_mps(fact, (1, 3, 2), (2, 3, 1), seed=17)
        np.testing.assert_allclose(reconstruct(train), brute_reconstruct_mps(train),
                                   rtol=1e-12, atol=1e-12)

    def test_random_mpo_vs_brute_force(self):
        fact = ShapeFactorization((2, 3, 2), (3, 2, 2))
        train = new_mpo(fact, (1, 3, 2, 1), seed=23)
        np.testing.assert_allclose(reconstruct(train), brute_reconstruct_mpo(train),
                                   rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_mps_reconstruct_matches_brute_force(self, data):
        rows = data.draw(_extents(data.draw(st.integers(1, 3))), label="row_dims")
        cols = data.draw(_extents(data.draw(st.integers(1, 3))), label="col_dims")
        row_ranks = (1,) + data.draw(_extents(len(rows)), label="row_ranks")
        col_ranks = (row_ranks[-1],) + data.draw(_extents(len(cols) - 1), label="col_ranks") + (1,)
        train = new_mps(ShapeFactorization(rows, cols), row_ranks, col_ranks,
                        seed=data.draw(_SEED, label="seed"))
        np.testing.assert_allclose(reconstruct(train), brute_reconstruct_mps(train),
                                   rtol=1e-11, atol=1e-11)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mpo_reconstruct_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 3), label="cores")
        rows = data.draw(_extents(n), label="row_dims")
        cols = data.draw(_extents(n), label="col_dims")
        ranks = (1,) + data.draw(_extents(n - 1), label="ranks") + (1,)
        train = new_mpo(ShapeFactorization(rows, cols), ranks,
                        seed=data.draw(_SEED, label="seed"))
        np.testing.assert_allclose(reconstruct(train), brute_reconstruct_mpo(train),
                                   rtol=1e-11, atol=1e-11)

    def test_linearity_in_each_core(self):
        fact = ShapeFactorization((3, 2), (2, 3))
        train = new_mps(fact, (1, 2, 2), (2, 2, 1), seed=3)
        base = reconstruct(train)
        for k in range(4):
            cores = list(train.cores)
            cores[k] = cores[k] * 2.5
            scaled = MpsTrain(fact, tuple(cores[:2]), tuple(cores[2:]))
            np.testing.assert_allclose(reconstruct(scaled), base * 2.5, rtol=1e-12)

    def test_materialization_cap(self):
        # 2^27 entries, twice the cap; the check runs before any contraction
        fact = ShapeFactorization((2 ** 13,), (2 ** 14,))
        train = new_mps(fact, (1, 1), (1, 1), seed=0)
        with pytest.raises(CapacityError):
            reconstruct(train)

    def test_degenerate_mps_mpo_equivalence(self):
        # All column factors 1: the MPO fused extents equal the row extents
        # and both trains reduce to the same column vector.
        fact = ShapeFactorization((3, 2), (1, 1))
        rng = np.random.default_rng(5)
        a = rng.normal(size=(1, 3, 2))
        b = rng.normal(size=(2, 2, 1))
        mps = MpsTrain(fact, (a, b), (np.ones((1, 1, 1)), np.ones((1, 1, 1))))
        mpo = MpoTrain(fact, (a, b))
        np.testing.assert_allclose(reconstruct(mps), reconstruct(mpo), rtol=1e-12)


class TestInverseNormalCdf:
    def test_tabulated_quantiles(self):
        table = {
            0.975: 1.959963984540054,
            0.5: 0.0,
            0.8413447460685429: 1.0,
            0.99: 2.3263478740408408,
            0.0013498980316300933: -3.0,
        }
        for p, z in table.items():
            assert abs(inverse_normal_cdf(p) - z) < 1e-9

    def test_accuracy_against_scipy_across_domain(self):
        ps = np.concatenate([
            np.geomspace(1e-10, 0.4, 300),
            1.0 - np.geomspace(1e-10, 0.4, 300),
        ])
        ours = np.array([inverse_normal_cdf(float(p)) for p in ps])
        ref = scipy.special.ndtri(ps)
        assert np.max(np.abs(ours - ref)) < 1e-12

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                inverse_normal_cdf(bad)


class TestInitParams:
    def test_variance_matched_example(self):
        # independent evaluation of the closed form
        expected_var = 20 ** (-3.0 / 4.0) * 650 ** (-1.0 / 8.0)
        sigma = init_params(InitScheme(), 650, 4, (1, 20, 20, 20))
        assert abs(sigma ** 2 - expected_var) < 1e-12
        assert abs(sigma ** 2 - 0.04705581867681973) < 1e-12

    def test_degenerate_all_ones(self):
        sigma = init_params(InitScheme(), 1, 3, (1, 1, 1))
        assert sigma == 1.0

    def test_flat_uniform_example(self):
        # b = sqrt(3) * [B / Phi^{-1}(0.975)]**(1/2) with B=1, unit ranks
        scheme = InitScheme(InitScheme.FLAT_UNIFORM, bound=1.0, alpha=0.05)
        b = init_params(scheme, 4, 2, (1, 1))
        expected = math.sqrt(3.0) / math.sqrt(scipy.special.ndtri(0.975))
        assert abs(b - expected) < 1e-10
        assert abs(b - math.sqrt(3.0) / math.sqrt(1.959963984540054)) < 1e-10

    def test_flat_bound_defaults_to_inverse_sqrt_fan(self):
        scheme = InitScheme(InitScheme.FLAT_GAUSSIAN)
        explicit = InitScheme(InitScheme.FLAT_GAUSSIAN, bound=1.0 / math.sqrt(100.0))
        assert init_params(scheme, 100, 4, (1, 2, 2, 2)) == init_params(explicit, 100, 4, (1, 2, 2, 2))

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            InitScheme(InitScheme.FLAT_GAUSSIAN, alpha=0.0)
        with pytest.raises(DomainError):
            InitScheme(InitScheme.FLAT_GAUSSIAN, alpha=1.0)

    def test_monte_carlo_variance_cross_check(self):
        # Reconstructed entries of variance-matched trains should have
        # empirical variance within 10% of M**-0.5. Entries within one
        # train are correlated through the shared cores, so the 1e4-entry
        # sample is pooled across independently initialized trains.
        fact = ShapeFactorization((10, 10), (10, 10))
        target = fact.n_cols ** -0.5
        rng = np.random.default_rng(0)
        pooled = np.concatenate([
            reconstruct(new_mps(fact, (1, 8, 8), (8, 8, 1), InitScheme(), seed=k))
            .reshape(-1)[rng.choice(10_000, size=100, replace=False)]
            for k in range(100)
        ])
        assert pooled.size == 10_000
        assert abs(pooled.var() - target) / target < 0.10


def test_central_limit_variance_for_mpo():
    fact = ShapeFactorization((10, 10), (10, 10))
    target = fact.n_cols ** -0.5
    rng = np.random.default_rng(1)
    pooled = np.concatenate([
        reconstruct(new_mpo(fact, (1, 8, 1), InitScheme(), seed=k))
        .reshape(-1)[rng.choice(10_000, size=100, replace=False)]
        for k in range(100)
    ])
    assert abs(pooled.var() - target) / target < 0.10


class TestBalancedFactorization:
    def test_reproduces_650_stack_two_factor_shapes(self):
        assert balanced_factorization(2600, 2) == (50, 52)
        assert balanced_factorization(650, 2) == (25, 26)

    def test_small_values(self):
        assert balanced_factorization(64, 2) == (8, 8)
        assert balanced_factorization(256, 2) == (16, 16)
        assert balanced_factorization(7, 1) == (7,)

    def test_product_preserved(self):
        for value in (12, 30, 64, 90):
            for parts in (1, 2, 3):
                f = balanced_factorization(value, parts)
                assert math.prod(f) == value
                assert len(f) == parts

    def test_matches_the_exhaustive_search(self):
        # every value below 400 has at most 8 prime factors, so there parts up
        # to 8 cover parts above, at and below that count
        for value in range(1, 2601):
            for parts in range(1, 9 if value < 400 else 5):
                assert balanced_factorization(value, parts) == \
                    _exhaustive_balanced_factorization(value, parts), (value, parts)

    def test_parts_beyond_the_prime_count_are_leading_ones(self):
        # 48 = 2^4 * 3; one recursion level per part would overflow the stack
        assert balanced_factorization(48, 1000) == (1,) * 995 + (2, 2, 2, 2, 3)
        assert balanced_factorization(1, 3) == (1, 1, 1)

    def test_large_value_takes_no_linear_scan(self):
        start = time.perf_counter()
        assert balanced_factorization(4 * 10**11, 2) == (625000, 640000)
        assert time.perf_counter() - start < 5.0


@functools.lru_cache(maxsize=None)
def _all_divisors(value: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, value + 1) if value % d == 0)


def _exhaustive_balanced_factorization(value: int, parts: int) -> tuple[int, ...]:
    """Every ordered split of ``value`` into ``parts`` factors, sorted, and
    the one with the smallest maximum, then the smallest tuple."""
    best = None

    def search(v, p, acc):
        nonlocal best
        if p == 1:
            cand = tuple(sorted(acc + [v]))
            if best is None or (max(cand), cand) < (max(best), best):
                best = cand
            return
        for d in _all_divisors(v):
            search(v // d, p - 1, acc + [d])

    search(value, parts, [])
    return best


_RULE_FACT = ShapeFactorization((3, 4), (2, 5))

# (kind, chains, the word the RankError names); chains are (row, col) for MPS
_BAD_CHAINS = [
    ("mps", ((1, 3), (3, 3, 1)), "lengths"),
    ("mps", ((1, 3, 3), (3, 3, 3, 1)), "lengths"),
    ("mpo", (1, 3, 3, 1), "lengths"),
    ("mps", ((2, 3, 3), (3, 3, 1)), "boundary"),
    ("mps", ((1, 3, 3), (3, 3, 2)), "boundary"),
    ("mpo", (2, 3, 1), "boundary"),
    ("mpo", (1, 3, 3), "boundary"),
    ("mps", ((1, 3, 2), (5, 3, 1)), "column chain"),
    ("mps", ((1, 0, 2), (2, 3, 1)), ">= 1"),
    ("mps", ((1, 3, 0), (0, 3, 1)), ">= 1"),
    ("mpo", (1, 0, 1), ">= 1"),
]


def _zero_train(kind, chains):
    """The train whose zero-filled cores have exactly ``chains``' ranks."""
    fact = _RULE_FACT
    if kind == "mps":
        row, col = chains
        return MpsTrain(fact, [np.zeros((row[k], fact.row_dims[k], row[k + 1])) for k in range(2)],
                        [np.zeros((col[k], fact.col_dims[k], col[k + 1])) for k in range(2)])
    fused = fact.fused_dims()
    return MpoTrain(fact, [np.zeros((chains[k], fused[k], chains[k + 1])) for k in range(2)])


class TestOneRankChainRuleSet:
    """A broken chain gets the same RankError from the cost model, the
    allocators and the train constructors."""

    @pytest.mark.parametrize("kind,chains,word", _BAD_CHAINS)
    def test_cost_model_and_allocators_agree(self, kind, chains, word):
        with pytest.raises(RankError, match=word):
            cost_model(_RULE_FACT, chains, kind)
        with pytest.raises(RankError, match=word):
            if kind == "mps":
                new_mps(_RULE_FACT, *chains, seed=0)
            else:
                new_mpo(_RULE_FACT, chains, seed=0)

    # a chain of the wrong length has the wrong core count, which _check_chain reports
    @pytest.mark.parametrize("kind,chains,word",
                             [row for row in _BAD_CHAINS if row[2] != "lengths"])
    def test_train_constructors_agree(self, kind, chains, word):
        with pytest.raises(RankError, match=word):
            _zero_train(kind, chains)

    def test_zero_trains_of_good_chains_build(self):
        assert _zero_train("mps", ((1, 3, 2), (2, 3, 1))).row_ranks == (1, 3, 2)
        assert _zero_train("mpo", (1, 3, 1)).ranks == (1, 3, 1)
