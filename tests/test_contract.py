import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mpo, random_mps
from ttlstm.contract import (
    OpCounter,
    build_factor_pair,
    compression_rate,
    cost_model,
    mpo_matvec,
    mps_matvec,
    pick_rank,
)
from ttlstm.errors import DomainError, RankError, ShapeError
from ttlstm.ttrain import (
    MpsTrain,
    ShapeFactorization,
    dense_matrix,
    new_mpo,
    new_mps,
    reconstruct,
    storage_count,
    uniform_mpo_ranks,
    uniform_mps_ranks,
)

STACK650_FACT = ShapeFactorization((50, 52), (25, 26))
STACK650_PARAMS = 2600 * 650


@st.composite
def _trains(draw, kind):
    """A random MPS or MPO train with uneven inner ranks."""
    def extents(count):
        return draw(st.lists(st.integers(1, 4), min_size=count, max_size=count).map(tuple))

    seed = draw(st.integers(0, 2**31 - 1), label="seed")
    if kind == "mps":
        rows, cols = extents(draw(st.integers(1, 3))), extents(draw(st.integers(1, 3)))
        row_ranks = (1,) + extents(len(rows))
        col_ranks = (row_ranks[-1],) + extents(len(cols) - 1) + (1,)
        return new_mps(ShapeFactorization(rows, cols), row_ranks, col_ranks, seed=seed)
    n = draw(st.integers(1, 3))
    return new_mpo(ShapeFactorization(extents(n), extents(n)), (1,) + extents(n - 1) + (1,), seed=seed)


class TestFactorPair:
    def test_all_ones_rank_one(self):
        fact = ShapeFactorization((2, 2), (2, 2))
        train = MpsTrain(
            fact,
            (np.ones((1, 2, 1)), np.ones((1, 2, 1))),
            (np.ones((1, 2, 1)), np.ones((1, 2, 1))),
        )
        f, g_t = build_factor_pair(train)
        np.testing.assert_array_equal(f, np.ones((4, 1)))
        np.testing.assert_array_equal(g_t, np.ones((1, 4)))

    def test_six_core_product_matches_reconstruct(self):
        fact = ShapeFactorization((3, 3, 3), (3, 3, 3))
        train = new_mps(fact, (1, 3, 2, 4), (4, 2, 3, 1), seed=8)
        f, g_t = build_factor_pair(train)
        dense = reconstruct(train)
        approx = f @ g_t
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(approx - dense)) <= 1e-10 * max(scale, 1.0)

    def test_factor_shapes(self):
        fact = ShapeFactorization((2, 4), (2, 2))
        train = new_mps(fact, (1, 2, 3), (3, 2, 1), seed=1)
        f, g_t = build_factor_pair(train)
        assert f.shape == (8, 3)
        assert f.size == 24
        assert g_t.shape == (3, 4)


class TestMpsMatvec:
    def test_all_ones_row_sums(self):
        fact = ShapeFactorization((2, 2), (2, 2))
        train = MpsTrain(
            fact,
            (np.ones((1, 2, 1)), np.ones((1, 2, 1))),
            (np.ones((1, 2, 1)), np.ones((1, 2, 1))),
        )
        fp = build_factor_pair(train)
        np.testing.assert_array_equal(mps_matvec(fp, np.ones(4)), np.full(4, 4.0))

    def test_matches_dense_oracle(self):
        fact = ShapeFactorization((4, 4), (4, 4))
        train = new_mps(fact, (1, 3, 3), (3, 3, 1), seed=4)
        fp = build_factor_pair(train)
        rng = np.random.default_rng(0)
        x = rng.normal(size=16)
        dense = reconstruct(train) @ x
        got = mps_matvec(fp, x)
        assert np.max(np.abs(got - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))

    def test_counter_bound_650_stack(self):
        train = new_mps(STACK650_FACT, *uniform_mps_ranks(STACK650_FACT, 20), seed=0)
        fp = build_factor_pair(train)
        counter = OpCounter()
        mps_matvec(fp, np.zeros(650), counter)
        assert counter.madds <= 2 * 20 * (2600 + 650) == 130_000

    def test_length_mismatch(self):
        fact = ShapeFactorization((2, 2), (2, 2))
        train = new_mps(fact, (1, 1, 1), (1, 1, 1), seed=0)
        fp = build_factor_pair(train)
        with pytest.raises(ShapeError):
            mps_matvec(fp, np.zeros(5))


class TestMpoMatvec:
    def test_rank_one_all_ones(self):
        fact = ShapeFactorization((2, 2), (2, 2))
        cores = (np.ones((1, 4, 1)), np.ones((1, 4, 1)))
        from ttlstm.ttrain import MpoTrain

        train = MpoTrain(fact, cores)
        y = mpo_matvec(train, np.ones(4))
        np.testing.assert_array_equal(y, np.full(4, 4.0))

    def test_matches_dense_oracle(self):
        fact = ShapeFactorization((4, 4), (4, 4))
        train = new_mpo(fact, (1, 3, 1), seed=12)
        rng = np.random.default_rng(1)
        x = rng.normal(size=16)
        dense = reconstruct(train) @ x
        got = mpo_matvec(train, x)
        assert np.max(np.abs(got - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))

    def test_cached_and_uncached_identical_bitwise(self):
        fact = ShapeFactorization((3, 3), (3, 3))
        train = new_mpo(fact, (1, 4, 1), seed=3)
        x = np.random.default_rng(2).normal(size=9)
        cache = reconstruct(train)
        np.testing.assert_array_equal(mpo_matvec(train, x), mpo_matvec(train, x, cache=cache))


def test_oracle_equivalence_random_grid():
    rng = np.random.default_rng(999)
    for _ in range(40):
        mps = random_mps(rng)
        fp = build_factor_pair(mps)
        x = rng.normal(size=mps.fact.n_cols)
        dense = reconstruct(mps) @ x
        got = mps_matvec(fp, x)
        assert np.max(np.abs(got - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))
    for _ in range(40):
        mpo = random_mpo(rng)
        x = rng.normal(size=mpo.fact.n_cols)
        dense = reconstruct(mpo) @ x
        got = mpo_matvec(mpo, x)
        assert np.max(np.abs(got - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))


def test_build_bound_holds_with_rank_far_above_factor_extents():
    # regression: collapsing the row chain from its rank-1 end keeps the
    # build quadratic in rank; collapsing from the shared-middle end would
    # cost 35,200 madds here and break the 25,600 bound
    fact = ShapeFactorization((2, 2, 2), (2, 2, 2))
    train = new_mps(fact, (1, 20, 20, 20), (20, 20, 20, 1), seed=0)
    counter = OpCounter()
    build_factor_pair(train, counter)
    bound = 4 * 20 * 20 * (2 * 8 + 2 * 8)
    assert counter.madds <= bound


def test_counter_bounds_random_grid():
    rng = np.random.default_rng(321)
    for _ in range(50):
        mps = random_mps(rng)
        fact = mps.fact
        n, m = fact.n, fact.m
        big_n, big_m = fact.n_rows, fact.n_cols
        r = max(mps.row_ranks + mps.col_ranks)
        build_counter = OpCounter()
        fp = build_factor_pair(mps, build_counter)
        # single-factor chains need no contraction at all
        build_bound = 4 * r * r * ((n - 1) * big_n + (m - 1) * big_m)
        assert build_counter.madds <= max(build_bound, 0)
        mv_counter = OpCounter()
        mps_matvec(fp, np.zeros(big_m), mv_counter)
        assert mv_counter.madds <= 2 * mps.row_ranks[-1] * (big_n + big_m)


class TestCostModel:
    def test_650_stack_mps_storage(self):
        report = cost_model(STACK650_FACT, 20, "mps")
        assert report.storage == 32_320
        train = new_mps(STACK650_FACT, *uniform_mps_ranks(STACK650_FACT, 20), seed=0)
        assert report.storage == storage_count(train)

    def test_650_stack_mpo_storage(self):
        report = cost_model(STACK650_FACT, 20, "mpo")
        assert report.storage == 52_040
        train = new_mpo(STACK650_FACT, uniform_mpo_ranks(STACK650_FACT, 20), seed=0)
        assert report.storage == storage_count(train)

    def test_single_factor_bound_degenerates(self):
        fact = ShapeFactorization((8,), (6,))
        report = cost_model(fact, 3, "mps")
        assert report.storage_bound == 3 * (8 + 6)
        assert report.matvec_ops_bound == 3 * (8 + 6)

    def test_build_ops_match_counter(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            mps = random_mps(rng)
            counter = OpCounter()
            build_factor_pair(mps, counter)
            report = cost_model(mps.fact, (mps.row_ranks, mps.col_ranks), "mps")
            assert report.build_ops == counter.madds
        mpos = [random_mpo(rng) for _ in range(20)]
        mpos.append(new_mpo(ShapeFactorization((2, 3, 4), (3, 2, 2)), (1, 3, 2, 1), seed=56))
        assert any(mpo.fact.n == 3 for mpo in mpos)
        for mpo in mpos:
            x = rng.normal(size=mpo.fact.n_cols)
            built, cached = OpCounter(), OpCounter()
            mpo_matvec(mpo, x, counter=built)
            mpo_matvec(mpo, x, cache=reconstruct(mpo), counter=cached)
            assert built.madds - cached.madds == cost_model(mpo.fact, mpo.ranks, "mpo").build_ops

    @pytest.mark.parametrize("rows,cols,row_ranks,col_ranks", [
        ((3, 4), (5, 2), (1, 3, 4), (4, 2, 1)),
        ((2, 3, 2), (3, 2, 4), (1, 2, 5, 3), (3, 4, 2, 1)),
        ((50, 52), (25, 26), (1, 109, 109), (109, 109, 1)),
    ])
    def test_mps_dense_matrix_counts_factor_pair_plus_product(self, rows, cols,
                                                              row_ranks, col_ranks):
        fact = ShapeFactorization(rows, cols)
        train = new_mps(fact, row_ranks, col_ranks, seed=57)
        counter = OpCounter()
        dense_matrix(None, fact, train.cores, counter)
        report = cost_model(fact, (row_ranks, col_ranks), "mps")
        want = report.build_ops + fact.n_rows * train.row_ranks[-1] * fact.n_cols
        assert counter.madds == want
        if rows == (50, 52):
            assert want == 222_823_250

    def test_matvec_ops_match_counter(self):
        fact = ShapeFactorization((4, 4), (2, 4))
        train = new_mps(fact, (1, 3, 2), (2, 2, 1), seed=9)
        fp = build_factor_pair(train)
        counter = OpCounter()
        mps_matvec(fp, np.zeros(8), counter)
        report = cost_model(fact, (train.row_ranks, train.col_ranks), "mps")
        assert report.matvec_ops == counter.madds

    def test_storage_monotone_in_every_rank(self):
        fact = ShapeFactorization((3, 4, 2), (2, 3, 4))
        base_row = [1, 3, 3, 3]
        base_col = [3, 3, 3, 1]
        base = cost_model(fact, (tuple(base_row), tuple(base_col)), "mps").storage
        for k in range(1, 4):
            row = list(base_row)
            row[k] += 1
            col = list(base_col)
            if k < 3:
                col[0] = row[3]
                col[k] += 1
            chains = (tuple(row), (row[3],) + tuple(base_col[1:]))
            bumped = cost_model(fact, chains, "mps").storage
            assert bumped > base


class TestRandomChains:
    """Kernels and closed forms on random chains, against ``reconstruct``
    and the ``ttrain`` contractions' own counts."""

    @settings(max_examples=60, deadline=None)
    @given(train=_trains("mps"), seed=st.integers(0, 2**31 - 1))
    def test_mps_matvec_equals_reconstruct(self, train, seed):
        x = np.random.default_rng(seed).normal(size=train.fact.n_cols)
        np.testing.assert_allclose(mps_matvec(build_factor_pair(train), x),
                                   reconstruct(train) @ x, rtol=1e-11, atol=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(train=_trains("mpo"), seed=st.integers(0, 2**31 - 1))
    def test_mpo_matvec_equals_reconstruct(self, train, seed):
        x = np.random.default_rng(seed).normal(size=train.fact.n_cols)
        np.testing.assert_allclose(mpo_matvec(train, x), reconstruct(train) @ x,
                                   rtol=1e-11, atol=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(train=st.one_of(_trains("mps"), _trains("mpo")))
    def test_storage_and_build_ops_equal_cost_model(self, train):
        # the MPS build collapses its rows left to right, so this also checks
        # the mirrored closed form
        counter = OpCounter()
        if isinstance(train, MpsTrain):
            build_factor_pair(train, counter)
            report = cost_model(train.fact, (train.row_ranks, train.col_ranks), "mps")
        else:
            dense_matrix(None, train.fact, train.cores, counter)
            report = cost_model(train.fact, train.ranks, "mpo")
        assert storage_count(train) == report.storage
        assert counter.madds == report.build_ops

    @pytest.mark.parametrize("kind", ["mps", "mpo"])
    def test_rank_zero_raises(self, kind):
        with pytest.raises(RankError):
            cost_model(STACK650_FACT, 0, kind)

    @pytest.mark.parametrize("kind,chains", [
        ("mps", ((1, 3), (3, 3, 1))),
        ("mps", ((1, 3, 3), (3, 3, 3, 1))),
        ("mpo", (1, 3, 0, 1)),
        ("mpo", (1, 1)),
    ])
    def test_chain_of_wrong_length_raises(self, kind, chains):
        with pytest.raises(RankError, match="lengths"):
            cost_model(ShapeFactorization((3, 4), (2, 5)), chains, kind)

    @pytest.mark.parametrize("kind,chains", [
        ("mps", ((2, 3, 3), (3, 3, 1))),
        ("mps", ((1, 3, 3), (3, 3, 2))),
        ("mpo", (2, 3, 1)),
        ("mpo", (1, 3, 3)),
    ])
    def test_boundary_rank_other_than_one_raises(self, kind, chains):
        with pytest.raises(RankError, match="boundary"):
            cost_model(ShapeFactorization((3, 4), (2, 5)), chains, kind)

    def test_row_chain_end_must_meet_column_chain_start(self):
        with pytest.raises(RankError, match="column chain"):
            cost_model(ShapeFactorization((3, 4), (2, 5)), ((1, 3, 2), (5, 3, 1)), "mps")

    @pytest.mark.parametrize("kind,chains", [
        ("mps", ((1, 0, 2), (2, 3, 1))),
        ("mps", ((1, 3, 2), (2, -1, 1))),
        ("mpo", (1, 0, 1)),
    ])
    def test_rank_below_one_in_a_chain_raises(self, kind, chains):
        with pytest.raises(RankError, match=">= 1"):
            cost_model(ShapeFactorization((3, 4), (2, 5)), chains, kind)

    @pytest.mark.parametrize("kind", ["mps", "mpo"])
    def test_numpy_integer_ranks_are_accepted(self, kind):
        fact = ShapeFactorization((3, 4), (2, 5))
        want = cost_model(fact, 3, kind)
        assert cost_model(fact, np.int64(3), kind) == want
        chains = uniform_mps_ranks(fact, 3) if kind == "mps" else (uniform_mpo_ranks(fact, 3),)
        as_numpy = [np.array(c, dtype=np.int64) for c in chains]
        assert cost_model(fact, as_numpy if kind == "mps" else as_numpy[0], kind) == want


class TestPickRank:
    def test_mpo_two_factor_closed_form(self):
        r = pick_rank(1.8, STACK650_FACT, "mpo")
        assert r == 347

    def test_mps_two_factor_closed_form(self):
        r = pick_rank(1.8, STACK650_FACT, "mps")
        assert r == 109

    def test_extreme_rate_clamps_to_one(self):
        extreme = STACK650_PARAMS / (52 + 26)
        assert pick_rank(extreme, STACK650_FACT, "mps") == 1

    def test_bad_rate(self):
        with pytest.raises(DomainError):
            pick_rank(1.0, STACK650_FACT, "mps")
        with pytest.raises(DomainError):
            pick_rank(0.5, STACK650_FACT, "mpo")

    @pytest.mark.parametrize("rho", [1.8, 2.6, 3.4, 6.0])
    @pytest.mark.parametrize("rows,cols", [
        ((50, 52), (25, 26)),
        ((13, 10, 20), (13, 5, 10)),
        ((10, 5, 4, 13), (5, 5, 13, 2)),
    ])
    @pytest.mark.parametrize("kind", ["mps", "mpo"])
    def test_bound_rate_within_25_percent(self, rho, rows, cols, kind):
        fact = ShapeFactorization(rows, cols)
        r = pick_rank(rho, fact, kind)
        report = cost_model(fact, r, kind)
        achieved = STACK650_PARAMS / report.storage_bound
        assert abs(achieved - rho) / rho <= 0.25


class TestCompressionRate:
    def test_650_stack_rate(self):
        # 1.69e6-parameter gate stack vs the rank-20 MPS above
        rate = compression_rate(STACK650_PARAMS, 32_320)
        assert abs(rate - 52.2896039604) < 1e-6

    def test_equal_counts(self):
        assert compression_rate(1234, 1234) == 1.0

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            compression_rate(10, 0)
