"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. The experiment and benchmark tests (8 and 9) train
real models and take a few minutes combined.
"""

import csv
import subprocess
import sys
import time

import numpy as np
import pytest

import ttlstm.autograd as ag
from conftest import random_mpo, random_mps
from ttlstm.autograd import Parameter, Var, grad_check
from ttlstm.contract import (
    OpCounter,
    build_factor_pair,
    cost_model,
    mpo_matvec,
    mps_matvec,
    pick_rank,
)
from ttlstm.data import build_vocab, encode_stream, synthetic_corpus
from ttlstm.distill import DistillConfig, TeacherWeights, accumulate_covariance, kd_penalty
from ttlstm.errors import FormatError
from ttlstm.modelfile import load_model, save_model
from ttlstm.nn import (
    ModelArch,
    build_model,
    forward_lm,
    sequence_nll,
)
from ttlstm.training import TrainConfig, evaluate, train_model
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

STACK650_FACT = ShapeFactorization((50, 52), (25, 26))
STACK650_PARAMS = 2600 * 650

TABLE1_SHAPES = [
    ((50, 52), (25, 26)),
    ((13, 10, 20), (13, 5, 10)),
    ((10, 5, 4, 13), (5, 5, 13, 2)),
]


def report(number: int, description: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {number:02d} {description}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert passed, line


def test_c01_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20260811)
    worst = 0.0
    cases = 0
    while cases < 100:
        if cases % 2 == 0:
            train = random_mps(rng)
            fact = train.fact
            if fact.n_rows > 64 or fact.n_cols > 64:
                continue
            fp = build_factor_pair(train)
            x = rng.normal(size=fact.n_cols)
            got = mps_matvec(fp, x)
        else:
            train = random_mpo(rng)
            fact = train.fact
            if fact.n_rows > 64 or fact.n_cols > 64:
                continue
            x = rng.normal(size=fact.n_cols)
            got = mpo_matvec(train, x)
        ref = reconstruct(train) @ x
        rel = np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))
        worst = max(worst, rel)
        cases += 1
    elapsed = time.time() - start
    report(1, "matvec kernels match dense reconstruct @ x (1e-10 rel, 100 cases)",
           worst <= 1e-10 and elapsed < 60.0,
           f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_c02_exact_storage_formulas():
    ok = True
    for rows in [(2,), (3, 2), (2, 2, 2), (3, 4, 2)]:
        for cols in [(2,), (2, 3), (4, 2, 2)]:
            fact = ShapeFactorization(rows, cols)
            for r in (1, 2, 3):
                train = new_mps(fact, *uniform_mps_ranks(fact, r), seed=1)
                rr, cc = train.row_ranks, train.col_ranks
                formula = sum(rr[k] * rr[k + 1] * rows[k] for k in range(len(rows)))
                formula += sum(cc[k] * cc[k + 1] * cols[k] for k in range(len(cols)))
                ok &= storage_count(train) == formula
            if len(rows) == len(cols):
                for r in (1, 2, 3):
                    train = new_mpo(fact, uniform_mpo_ranks(fact, r), seed=1)
                    ranks = train.ranks
                    fused = fact.fused_dims()
                    formula = sum(ranks[k] * ranks[k + 1] * fused[k] for k in range(len(rows)))
                    ok &= storage_count(train) == formula
    stack = new_mps(STACK650_FACT, *uniform_mps_ranks(STACK650_FACT, 20), seed=0)
    ok &= storage_count(stack) == 32_320
    report(2, "storage equals the rank-chain sums; 650-unit 2-factor R=20 stack is 32,320",
           ok, f"stack650={storage_count(stack)}")


def test_c03_op_count_bounds():
    rng = np.random.default_rng(77)
    ok = True
    worst_ratio = 0.0
    for _ in range(100):
        train = random_mps(rng)
        fact = train.fact
        n, m = fact.n, fact.m
        big_n, big_m = fact.n_rows, fact.n_cols
        r = max(train.row_ranks + train.col_ranks)
        build_counter = OpCounter()
        fp = build_factor_pair(train, build_counter)
        build_bound = 4 * r * r * ((n - 1) * big_n + (m - 1) * big_m)
        ok &= build_counter.madds <= build_bound
        mv_counter = OpCounter()
        mps_matvec(fp, np.zeros(big_m), mv_counter)
        mv_bound = 2 * train.row_ranks[-1] * (big_n + big_m)
        ok &= mv_counter.madds <= mv_bound
        worst_ratio = max(worst_ratio, mv_counter.madds / mv_bound)
    report(3, "multiply-add counters stay under the closed-form bounds",
           ok, f"worst matvec count/bound {worst_ratio:.2f}")


def test_c04_rank_planning():
    ok = True
    details = []
    for rows, cols in TABLE1_SHAPES:
        fact = ShapeFactorization(rows, cols)
        for kind in ("mps", "mpo"):
            for rho in (1.8, 2.6, 3.4, 6.0):
                r = pick_rank(rho, fact, kind)
                rep = cost_model(fact, r, kind)
                achieved = STACK650_PARAMS / rep.storage_bound
                ok &= abs(achieved - rho) / rho <= 0.25
    r_mpo = pick_rank(1.8, STACK650_FACT, "mpo")
    r_mps = pick_rank(1.8, STACK650_FACT, "mps")
    ok &= r_mpo == 347 and r_mps == 109
    report(4, "planned ranks hit targets within 25%; n=2 forms give R=347 (MPO), 109 (MPS)",
           ok, f"R_mpo={r_mpo} R_mps={r_mps}")


def test_c05_gradient_checks():
    start = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0

    # every primitive op in isolation
    a = Parameter(rng.normal(size=(3, 4)), "a")
    b = Parameter(rng.normal(size=(4,)), "b")
    mt = Parameter(rng.normal(size=(4, 3)), "m")
    gain = Parameter(rng.normal(1.0, 0.1, size=(4, 3)), "g")       # the scan's W_x layer norm
    bias = Parameter(rng.normal(size=(4, 3)), "bb")
    table = Parameter(rng.normal(size=(6, 3)), "table")
    logits = Parameter(rng.normal(size=(5, 7)), "logits")
    rows = Parameter(rng.normal(size=(12, 4)), "rows")      # ax of a (T=2, B=2, H=3) scan
    w_h = Parameter(rng.normal(size=(3, 12)), "w_h")
    ln_gain = Parameter(rng.normal(1.0, 0.1, size=(4, 3)), "ln_g")
    gate_b = Parameter(rng.normal(size=(12,)), "gate_b")
    h0, c0 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    proj_b = Parameter(rng.normal(size=(3,)), "proj_b")
    checks = [
        ([a, b], lambda t: ag.reduce_sum(t, ag.mul(t, ag.add(t, a, b), ag.sub(t, a, b)))),
        ([a, mt], lambda t: ag.reduce_sum(t, ag.mul(t, ag.matmul(t, a, mt), ag.matmul(t, a, mt)))),
        ([rows, gain, bias, w_h, ln_gain, gate_b], lambda t: ag.scale(t, ag.reduce_sum(t, ag.lstm_scan(
            t, ag.reshape(t, ag.transpose(t, rows), (2, 2, 12)), (gain, bias), [w_h],
            (ln_gain, np.zeros((4, 3))), gate_b, h0, c0)[0]), 0.5)),
        ([a, mt, proj_b], lambda t: ag.linear_cross_entropy(t, a, mt, proj_b, np.array([0, 2, 1]))),
        ([table], lambda t: ag.reduce_sum(t, ag.mul(t, ag.gather_rows(t, table, np.array([0, 2, 2, 5])),
                                                    ag.gather_rows(t, table, np.array([0, 2, 2, 5]))))),
        ([logits], lambda t: ag.linear_cross_entropy(t, np.eye(5), logits, np.zeros(7),
                                                     np.array([0, 3, 6, 1, 1]))),
    ]
    for params, build in checks:
        worst = max(worst, grad_check(params, build))

    # full one-step layer-normalized LSTM LM with 4-core MPS gates
    arch = ModelArch(vocab_size=20, embed_dim=8, hidden_dim=8,
                     representation="mps", n_factors=2, rank=3,
                     unroll=1, batch_size=2)
    model = build_model(arch, seed=2)
    tokens = np.array([[3], [11]])
    targets = np.array([[11], [19]])

    def build_lm(t):
        out = forward_lm(model, tokens, t)
        return sequence_nll(t, out, targets)

    lm_err = grad_check(model.parameters(), build_lm)
    worst = max(worst, lm_err)
    elapsed = time.time() - start
    report(5, "all ops and the one-step LN-LSTM pass finite-difference checks (<1e-4)",
           worst < 1e-4 and elapsed < 120.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c06_initialization_statistics():
    # Entries of a single train are correlated through the shared cores, so
    # the variance target is checked on 1e4 entries pooled across
    # independently initialized trains (the ensemble the derivation is
    # about); see the unit tests for the per-train construction checks.
    fact = ShapeFactorization((10, 10), (10, 10))
    target = fact.n_cols ** -0.5
    rng = np.random.default_rng(2024)
    samples = []
    for k in range(100):
        train = new_mps(fact, (1, 8, 8), (8, 8, 1), InitScheme(), seed=k)
        w = reconstruct(train).reshape(-1)
        samples.append(w[rng.choice(w.size, size=100, replace=False)])
    pooled = np.concatenate(samples)
    rel = abs(pooled.var() - target) / target
    report(6, "variance-matched init: reconstructed entry variance within 10% of M^-1/2",
           pooled.size >= 10_000 and rel < 0.10,
           f"rel dev {rel:.3f} over {pooled.size} entries, 100 trains")


def test_c07_kd_identities():
    rng = np.random.default_rng(13)
    w_star = rng.normal(size=(6, 5))
    w = Var(rng.normal(size=(6, 5)))
    lam = 0.73

    xs = rng.normal(size=(40, 5))
    cov = accumulate_covariance(xs).matrix
    centered = xs - xs.mean(axis=0)
    direct = lam * sum(np.sum(((w_star - w.value) @ x) ** 2) for x in centered)
    trace_form = float(kd_penalty(None, w_star, w, lam, cov).value)
    trace_ok = abs(trace_form - direct) <= 1e-10 * max(1.0, abs(direct))

    frob = lam * np.sum((w_star - w.value) ** 2)
    identity_form = float(kd_penalty(None, w_star, w, lam, np.eye(5)).value)
    plain_form = float(kd_penalty(None, w_star, w, lam).value)
    frob_ok = (abs(identity_form - frob) <= 1e-12 * abs(frob)
               and abs(plain_form - frob) <= 1e-12 * abs(frob))
    report(7, "trace penalty equals summed squared activations; identity S is Frobenius",
           trace_ok and frob_ok,
           f"trace rel {abs(trace_form - direct) / abs(direct):.1e}")


@pytest.fixture(scope="module")
def desk_corpus():
    text = synthetic_corpus(50_000, vocab_size=500, seed=11)
    vocab = build_vocab(text, 2000)
    ids = encode_stream(text, vocab)
    n = ids.size
    return vocab, ids[: int(n * 0.8)], ids[int(n * 0.8): int(n * 0.9)], ids[int(n * 0.9):]


def test_c08_desk_scale_experiment(desk_corpus):
    start = time.time()
    vocab, train_ids, valid_ids, test_ids = desk_corpus
    assert vocab.size <= 2000

    def arch(rep, rank):
        return ModelArch(vocab_size=vocab.size, embed_dim=64, hidden_dim=64,
                         representation=rep, n_factors=2, rank=rank,
                         unroll=35, batch_size=20)

    def cfg(distill=DistillConfig()):
        return TrainConfig(optimizer="adam", lr=0.01, epochs=8, clip=5.0, distill=distill)

    # (a) dense model vs unigram baseline (add-one smoothing on train counts)
    counts = np.bincount(train_ids, minlength=vocab.size).astype(float)
    probs = (counts + 1.0) / (counts.sum() + vocab.size)
    unigram_ppl = float(np.exp(-np.log(probs[test_ids]).mean()))
    dense = build_model(arch("dense", 0), seed=1)
    train_model(dense, train_ids, valid_ids, cfg())
    _, dense_ppl = evaluate(dense, test_ids)
    beats_unigram = dense_ppl < unigram_ppl

    # (b) 4-core MPS at compression close to 1.8: exact-rate scan over ranks
    fact = ShapeFactorization((16, 16), (8, 8))
    full = 2 * 256 * 64
    best_rank = min(range(2, 40), key=lambda r: abs(full / (2 * cost_model(fact, r, "mps").storage) - 1.8))
    mps = build_model(arch("mps", best_rank), seed=1)
    rate = mps.gate_compression_rate()
    train_model(mps, train_ids, valid_ids, cfg())
    _, mps_ppl = evaluate(mps, test_ids)
    mps_ok = mps_ppl <= 1.15 * dense_ppl and abs(rate - 1.8) < 0.15

    # (c) weight distillation with a grid lambda must not hurt by more than 5%
    lam = 1e-5
    teacher = TeacherWeights.from_model(dense)
    kdw = build_model(arch("mps", best_rank), seed=1)
    train_model(kdw, train_ids, valid_ids, cfg(DistillConfig("kdw", lam)), teacher=teacher)
    _, kdw_ppl = evaluate(kdw, test_ids)
    kdw_ok = kdw_ppl <= 1.05 * mps_ppl

    elapsed = time.time() - start
    report(8, "desk-scale experiment: dense beats unigram; MPS@1.8 within 1.15x; KDW within 5%",
           beats_unigram and mps_ok and kdw_ok and elapsed < 1800.0,
           f"unigram {unigram_ppl:.1f}, dense {dense_ppl:.2f}, "
           f"mps {mps_ppl:.2f} (rate {rate:.2f}), kdw {kdw_ppl:.2f}, {elapsed:.0f}s")


def _bench_model(tmp_path, rep, rank, vocab, vocab_file):
    arch = ModelArch(vocab_size=vocab.size, embed_dim=650, hidden_dim=650,
                     representation=rep, n_factors=2, rank=rank,
                     wx_row_dims=(50, 52), wx_col_dims=(25, 26),
                     wh_row_dims=(50, 52), wh_col_dims=(25, 26),
                     unroll=35, batch_size=20)
    model = build_model(arch, seed=0)
    path = tmp_path / f"{rep}.ttlm"
    import hashlib

    sha = hashlib.sha256(vocab_file.read_bytes()).hexdigest()
    save_model(model, path, vocab_sha256=sha)
    (tmp_path / f"{rep}.ttlm.vocab").write_bytes(vocab_file.read_bytes())
    return path, model.gate_compression_rate()


def test_c09_benchmark_direction(tmp_path):
    from ttlstm.data import save_vocab

    text = synthetic_corpus(760, vocab_size=50, seed=3)
    vocab = build_vocab(text, 60)
    corpus = tmp_path / "bench.txt"
    corpus.write_text(text, encoding="utf-8")
    vocab_file = tmp_path / "bench.vocab"
    save_vocab(vocab, vocab_file)

    r_mps = pick_rank(1.8, STACK650_FACT, "mps")
    r_mpo = pick_rank(1.8, STACK650_FACT, "mpo")
    mps_path, mps_rate = _bench_model(tmp_path, "mps", r_mps, vocab, vocab_file)
    mpo_path, mpo_rate = _bench_model(tmp_path, "mpo", r_mpo, vocab, vocab_file)

    means = {}
    for name, path in (("mps", mps_path), ("mpo", mpo_path)):
        records = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ttlstm", "bench", "--model", str(path),
             "--corpus", str(corpus), "--runs", "12", "--discard", "2",
             "--threads", "1", "--records", str(records)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with open(records, encoding="utf-8", newline="") as fh:
            row = list(csv.DictReader(fh))[-1]
        assert row["metric"] == "forward_seconds"
        means[name] = float(row["value"])
    speedup = means["mpo"] / means["mps"]
    report(9, "4-core MPS forward pass at rate 1.8 is >= 1.5x faster than 2-core MPO",
           speedup >= 1.5 and abs(mps_rate - 1.8) < 0.15 and abs(mpo_rate - 1.8) < 0.15,
           f"mps {means['mps']:.3f}s vs mpo {means['mpo']:.3f}s ({speedup:.2f}x)")


def test_c10_determinism_and_format(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(synthetic_corpus(2200, vocab_size=40, seed=19), encoding="utf-8")
    config = tmp_path / "train.cfg"
    config.write_text(
        "vocab_size=80\nembed_dim=10\nhidden_dim=10\nunroll=6\nbatch_size=4\n"
        "representation=mps\nfactors=2\nrank=3\noptimizer=sgd\nlr=0.5\nepochs=1\nseed=5\n")

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"model_{tag}.ttlm"
        proc = subprocess.run(
            [sys.executable, "-m", "ttlstm", "train", "--config", str(config),
             "--corpus", str(corpus), "--out", str(out), "--threads", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    bitwise = outs[0].read_bytes() == outs[1].read_bytes()

    model, _ = load_model(outs[0])
    clone = tmp_path / "clone.ttlm"
    save_model(model, clone, vocab_sha256="")
    reload_ok = all(
        a.value.tobytes() == b.value.tobytes()
        for a, b in zip(model.parameters(), load_model(clone)[0].parameters()))

    corrupt = tmp_path / "corrupt.ttlm"
    corrupt.write_bytes(outs[0].read_bytes()[:-17])
    try:
        load_model(corrupt)
        rejected = False
    except FormatError:
        rejected = True
    report(10, "same-seed training is bitwise; save/load round trip; corruption rejected",
           bitwise and reload_ok and rejected,
           f"bitwise={bitwise} reload={reload_ok} rejected={rejected}")
