"""End-to-end tests of the ``ttlstm`` command line via subprocesses."""

import csv
import io
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ttlstm.contract import cost_model, pick_rank
from ttlstm.data import build_vocab, encode_stream, load_vocab, save_vocab, synthetic_corpus
from ttlstm.cli import _CONFIG_DEFAULTS, MAX_FACTORS, MAX_SIZE, main, read_config
from ttlstm.distill import DistillConfig, TeacherWeights, accumulate_covariance
from ttlstm.errors import ConfigError, FormatError
from ttlstm.modelfile import MAGIC, load_model, save_model
from ttlstm.nn import ForwardResult, ModelArch, TTLinear, build_model
from ttlstm.training import (TrainConfig, collect_stack_inputs, evaluate, stack_covariances,
                             train_model)
from ttlstm.ttrain import new_mps, storage_count


def _records(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(*argv, expect=0):
    proc = subprocess.run([sys.executable, "-m", "ttlstm", *map(str, argv)],
                          capture_output=True, text=True)
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\nstderr: {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "corpus.txt").write_text(synthetic_corpus(2500, vocab_size=40, seed=21),
                                     encoding="utf-8")
    (root / "test.txt").write_text(synthetic_corpus(600, vocab_size=40, seed=22),
                                   encoding="utf-8")
    (root / "dense.cfg").write_text(
        "vocab_size=100\nembed_dim=12\nhidden_dim=12\nunroll=8\nbatch_size=4\n"
        "representation=dense\noptimizer=adam\nlr=0.01\nepochs=1\nseed=3\n")
    (root / "mps.cfg").write_text(
        "vocab_size=100\nembed_dim=12\nhidden_dim=12\nunroll=8\nbatch_size=4\n"
        "representation=mps\nfactors=2\nrank=4\noptimizer=adam\nlr=0.01\nepochs=1\n"
        "distill=kdw\nlambda=0.00005\nseed=3\n")
    (root / "kda.cfg").write_text(
        "vocab_size=100\nembed_dim=12\nhidden_dim=12\nunroll=8\nbatch_size=4\n"
        "representation=mps\nfactors=2\nrank=4\noptimizer=adam\nlr=0.01\nepochs=1\n"
        "distill=kda\nlambda=0.000001\nseed=3\n")
    return root


@pytest.fixture(scope="module")
def teacher(workdir):
    model = workdir / "teacher.ttlm"
    run_cli("train", "--config", workdir / "dense.cfg", "--corpus", workdir / "corpus.txt",
            "--out", model, "--records", workdir / "records.csv")
    return model


def test_train_writes_model_vocab_and_records(workdir, teacher):
    assert teacher.exists()
    assert (workdir / "teacher.ttlm.vocab").exists()
    rows = _records(workdir / "records.csv")
    metrics = {row["metric"] for row in rows}
    assert {"train_perplexity", "valid_perplexity"} <= metrics


def test_eval_reports_perplexity(workdir, teacher):
    proc = run_cli("eval", "--model", teacher, "--corpus", workdir / "test.txt",
                   "--records", workdir / "records.csv")
    assert "test perplexity" in proc.stdout
    proc2 = run_cli("eval", "--model", teacher, "--corpus", workdir / "test.txt")
    assert proc.stdout.splitlines()[0] == proc2.stdout.splitlines()[0]


def _teacher_ids(workdir, teacher):
    """The teacher model and the corpus encoded in its vocabulary."""
    model, manifest = load_model(teacher)
    vocab = load_vocab(workdir / "teacher.ttlm.vocab")
    return model, manifest, encode_stream(
        (workdir / "corpus.txt").read_text(encoding="utf-8"), vocab)


def test_two_phase_distillation_protocol(workdir, teacher):
    student = workdir / "student_kda.ttlm"
    run_cli("train", "--config", workdir / "kda.cfg", "--corpus", workdir / "corpus.txt",
            "--teacher", teacher, "--out", student)
    # the same student in-process, its covariances streamed over the training split only
    teacher_model, manifest, ids = _teacher_ids(workdir, teacher)
    cut = int(round(ids.size * 0.9))                         # valid_fraction=0.1
    train_ids, valid_ids = ids[:cut], ids[cut:]
    cov_x, cov_h = stack_covariances(teacher_model, train_ids)
    arch = ModelArch(vocab_size=teacher_model.vocab_size, embed_dim=12, hidden_dim=12,
                     unroll=8, batch_size=4, representation="mps", n_factors=2, rank=4)
    model = build_model(arch, seed=3)
    distill = DistillConfig("kda", 0.000001)
    train_model(model, train_ids, valid_ids,
                TrainConfig(optimizer="adam", lr=0.01, epochs=1, distill=distill),
                teacher=TeacherWeights.from_model(teacher_model), cov_x=cov_x, cov_h=cov_h)
    expected = workdir / "student_kda_in_process.ttlm"
    save_model(model, expected, vocab_sha256=manifest["vocab_sha256"], train_meta={
        "optimizer": "adam", "lr": "0.01", "epochs": "1", "clip": "5.0",
        "distill_mode": "kda", "distill_lambda": repr(distill.lam)})
    assert student.read_bytes() == expected.read_bytes()


def test_kdw_student_training(workdir, teacher):
    student = workdir / "student.ttlm"
    run_cli("train", "--config", workdir / "mps.cfg", "--corpus", workdir / "corpus.txt",
            "--teacher", teacher, "--out", student)
    run_cli("eval", "--model", student, "--corpus", workdir / "test.txt")


def test_bench_aggregates_exactly_runs_minus_discard(workdir, teacher):
    records = workdir / "bench.csv"
    proc = run_cli("bench", "--model", teacher, "--corpus", workdir / "test.txt",
                   "--runs", 5, "--discard", 2, "--records", records)
    assert "over 3 runs" in proc.stdout
    rows = _records(records)
    assert rows[-1]["metric"] == "forward_seconds"
    assert float(rows[-1]["value"]) > 0


def test_no_loop_or_command_reads_the_logits(tmp_path, monkeypatch):
    """Evaluation, a training epoch, ``eval`` and ``bench`` score windows
    through ``sequence_nll``'s output-layer record; none of them forms
    ``ForwardResult.logits``."""
    def unread(self):
        raise AssertionError("ForwardResult.logits was read")

    monkeypatch.setattr(ForwardResult, "logits", property(unread))
    text = synthetic_corpus(600, vocab_size=40, seed=23)
    vocab = build_vocab(text, 42)
    ids = encode_stream(text, vocab)
    model = build_model(ModelArch(vocab_size=vocab.size, embed_dim=12, hidden_dim=12,
                                  representation="mps", rank=4, unroll=8, batch_size=4), seed=1)
    evaluate(model, ids)
    train_model(model, ids[:400], ids[400:], TrainConfig(epochs=1))
    path, corpus = tmp_path / "m.ttlm", tmp_path / "test.txt"
    save_model(model, path)
    save_vocab(vocab, f"{path}.vocab")
    corpus.write_text(text, encoding="utf-8")
    assert main(["eval", "--model", str(path), "--corpus", str(corpus)]) == 0
    assert main(["bench", "--model", str(path), "--corpus", str(corpus),
                 "--runs", "2", "--discard", "1"]) == 0


def test_bench_rejects_runs_not_exceeding_discard(workdir, teacher):
    proc = run_cli("bench", "--model", teacher, "--corpus", workdir / "test.txt",
                   "--runs", 2, "--discard", 2, expect=2)
    assert "config error" in proc.stderr


@pytest.mark.parametrize("runs, discard", [(3, -1), (0, -2)])
def test_bench_rejects_negative_discard(workdir, teacher, runs, discard):
    # a negative discard used to slice from the end: "over 1 runs", or a
    # nan mean "over 0 runs"
    proc = run_cli("bench", "--model", teacher, "--corpus", workdir / "test.txt",
                   "--runs", runs, "--discard", discard, expect=2)
    assert "config error" in proc.stderr and "discard" in proc.stderr


def test_info_from_config_emits_cost_csv(workdir):
    proc = run_cli("info", "--config", workdir / "mps.cfg")
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("matrix,kind,n_factors,rank,storage")
    assert len(lines) == 3
    wx = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert wx["kind"] == "mps"
    assert int(wx["storage"]) > 0
    assert float(wx["compression_rate"]) > 1.0


def test_readme_config_example_parses_with_its_comments(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.S | re.M)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    values, _ = read_config(cfg)
    assert (values["representation"], values["rank"], values["distill"]) == ("mps", "19", "none")
    proc = run_cli("info", "--config", cfg)
    assert proc.stdout.startswith("matrix,kind,")


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029"],
                         ids=["vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"])
def test_config_separators_other_than_line_ends_stay_in_the_line(tmp_path, sep):
    """``lr=0.5<sep>epochs=3`` is one line: ``lr`` holds the rest and
    ``epochs`` keeps its default, as ``data.encode_stream`` reads a line."""
    cfg = tmp_path / "sep.cfg"
    cfg.write_text(f"lr=0.5{sep}epochs=3\nseed=4\n", encoding="utf-8")
    values, _ = read_config(cfg)
    assert values["lr"] == f"0.5{sep}epochs=3"
    assert (values["epochs"], values["seed"]) == (_CONFIG_DEFAULTS["epochs"], "4")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_config_lines_end_at_each_line_end(tmp_path, end):
    cfg = tmp_path / "ends.cfg"
    cfg.write_bytes(end.join(["lr=0.5  # comment", "epochs=3", "wat=1", ""]).encode())
    with pytest.raises(ConfigError, match=r"ends.cfg:3: unknown config key 'wat'"):
        read_config(cfg)
    cfg.write_bytes(end.join(["lr=0.5  # comment", "epochs=3", ""]).encode())
    values, _ = read_config(cfg)
    assert (values["lr"], values["epochs"]) == ("0.5", "3")


def _model_with_lambda(folder, value):
    """A small saved model, its vocabulary and a corpus, with the manifest
    line ``distill_lambda=<value>`` written past ``save_model``'s checks."""
    text = synthetic_corpus(600, vocab_size=40, seed=23)
    vocab = build_vocab(text, 42)
    model = build_model(ModelArch(vocab_size=vocab.size, embed_dim=8, hidden_dim=8,
                                  unroll=4, batch_size=2), seed=1)
    path, corpus = folder / "m.ttlm", folder / "test.txt"
    save_model(model, path, train_meta={"distill_lambda": "0.25"})
    raw = path.read_bytes()
    head = len(MAGIC) + 8
    (size,) = struct.unpack("<Q", raw[len(MAGIC):head])
    manifest = raw[head:head + size].replace(b"distill_lambda=0.25\n",
                                             f"distill_lambda={value}\n".encode())
    path.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest + raw[head + size:])
    save_vocab(vocab, f"{path}.vocab")
    corpus.write_text(text, encoding="utf-8")
    return path, corpus


@pytest.mark.parametrize("value", ["abc", "", "nan", "1e400"])
def test_eval_of_a_model_with_a_non_numeric_lambda_exits_3(tmp_path, capsys, value):
    path, corpus = _model_with_lambda(tmp_path, value)
    records = tmp_path / "records.csv"
    assert main(["eval", "--model", str(path), "--corpus", str(corpus),
                 "--records", str(records)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and not records.exists()
    assert err.startswith("format error:") and "distill_lambda" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_eval_records_the_manifest_lambda(tmp_path, capsys):
    path, corpus = _model_with_lambda(tmp_path, "1e-06")
    records = tmp_path / "records.csv"
    assert main(["eval", "--model", str(path), "--corpus", str(corpus),
                 "--records", str(records)]) == 0
    rows = _records(records)
    assert [(row["command"], row["lambda"]) for row in rows] == [("eval", "1e-06")]


def test_info_dense_rate_is_one(workdir):
    proc = run_cli("info", "--config", workdir / "dense.cfg")
    row = proc.stdout.strip().splitlines()[1].split(",")
    header = proc.stdout.strip().splitlines()[0].split(",")
    assert float(dict(zip(header, row))["compression_rate"]) == 1.0


def test_info_with_covariance_reports_eigen_extremes(workdir, teacher):
    proc = run_cli("info", "--model", teacher, "--corpus", workdir / "corpus.txt")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    teacher_model, _, ids = _teacher_ids(workdir, teacher)
    covs = [accumulate_covariance(v) for v in collect_stack_inputs(teacher_model, ids)]
    assert [row["matrix"] for row in rows] == ["wx", "wh"]
    for row, cov in zip(rows, covs):
        eigs = np.linalg.eigvalsh(cov.matrix)
        lo, hi = float(eigs[0]), float(eigs[-1])
        assert float(row["s_eigen_min"]) == pytest.approx(lo, rel=1e-12, abs=1e-12)
        assert float(row["s_eigen_max"]) == pytest.approx(hi, rel=1e-12)
        assert hi >= lo >= -1e-6


def test_info_reproduces_gate_stack_costs(workdir):
    # 2600x650 gate stacks factored as (50,52)/(25,26) at uniform rank 20
    cfg = workdir / "stack650.cfg"
    cfg.write_text(
        "vocab_size=100\nembed_dim=650\nhidden_dim=650\nrepresentation=mps\n"
        "factors=2\nrank=20\nwx_row_dims=50,52\nwx_col_dims=25,26\n"
        "wh_row_dims=50,52\nwh_col_dims=25,26\n")
    proc = run_cli("info", "--config", cfg)
    lines = proc.stdout.strip().splitlines()
    wx = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert int(wx["storage"]) == 32_320
    assert abs(float(wx["compression_rate"]) - 52.2896) < 1e-3
    # 1,690,000 dense multiply-adds per row over 20 * (2600 + 650) through the factor pair
    assert abs(float(wx["efficiency_gain"]) - 26.0) < 1e-9


@pytest.mark.parametrize("dims", [{}, {"wx_row_dims": (4, 16), "wx_col_dims": (2, 8)}])
def test_info_plans_target_rate_rank_on_the_model_factorization(tmp_path, dims):
    arch = ModelArch(vocab_size=100, embed_dim=16, hidden_dim=16, representation="mps",
                     rank=1, **dims)
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("vocab_size=100\nembed_dim=16\nhidden_dim=16\nrepresentation=mps\n"
                   "target_rate=1.8\n"
                   + "".join(f"{key}={','.join(map(str, v))}\n" for key, v in dims.items()))
    proc = run_cli("info", "--config", cfg)
    lines = proc.stdout.strip().splitlines()
    ranks = {dict(zip(lines[0].split(","), line.split(",")))["rank"] for line in lines[1:]}
    assert ranks == {str(pick_rank(1.8, arch.wx_fact(), "mps"))}


@pytest.mark.parametrize("rep,factors,rank", [
    ("dense", 2, 0), ("mps", 2, 1), ("mps", 2, 5), ("mps", 3, 3),
    ("mpo", 2, 4), ("mpo", 3, 2), ("mpo", 3, 7),
])
def test_info_rows_are_cost_model_reports(tmp_path, monkeypatch, capsys, rep, factors, rank):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # main exports --threads; undone after the test
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"vocab_size=50\nembed_dim=12\nhidden_dim=18\nrepresentation={rep}\n"
                   f"factors={factors}\nrank={rank}\n")
    assert main(["info", "--config", str(cfg)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    arch = ModelArch(vocab_size=50, embed_dim=12, hidden_dim=18, representation=rep,
                     n_factors=factors, rank=rank)
    assert [row["matrix"] for row in rows] == ["wx", "wh"]
    for row, fact in zip(rows, (arch.wx_fact(), arch.wh_fact())):
        full = fact.n_rows * fact.n_cols
        if rep == "dense":
            storage, build_ops, matvec_ops = full, 0, full
        else:
            report = cost_model(fact, rank, rep)
            storage, build_ops, matvec_ops = report.storage, report.build_ops, report.matvec_ops
        assert row["kind"] == rep
        assert (int(row["storage"]), int(row["build_ops"]), int(row["matvec_ops"])) == \
            (storage, build_ops, matvec_ops)
        assert float(row["compression_rate"]) == full / storage
        assert float(row["efficiency_gain"]) == full / matvec_ops


def test_info_model_reports_the_stored_rank_chains(workdir, tmp_path):
    """A saved stack whose chains are not uniform at the model's rank is
    reported from its own chains, not from ``arch.rank``."""
    model = build_model(ModelArch(vocab_size=40, embed_dim=12, hidden_dim=12,
                                  representation="mps", rank=4), seed=1)
    model.wx = TTLinear.from_train(new_mps(model.wx.fact, (1, 2, 4), (4, 3, 1), seed=2),
                                   name="wx")
    path = tmp_path / "chains.ttlm"
    save_model(model, path)
    save_vocab(build_vocab((workdir / "corpus.txt").read_text(encoding="utf-8"), 40),
               tmp_path / "chains.ttlm.vocab")
    rows = list(csv.DictReader(io.StringIO(run_cli("info", "--model", path).stdout)))
    assert [row["matrix"] for row in rows] == ["wx", "wh"]
    for row, lin in zip(rows, (model.wx, model.wh)):
        train = lin.to_train()
        report = cost_model(lin.fact, (train.row_ranks, train.col_ranks), "mps")
        assert int(row["storage"]) == storage_count(train) == report.storage
        assert (int(row["rank"]), int(row["build_ops"]), int(row["matvec_ops"])) == \
            (report.max_rank, report.build_ops, report.matvec_ops)
        assert float(row["compression_rate"]) == lin.out_dim * lin.in_dim / report.storage
    uniform = cost_model(model.wx.fact, 4, "mps")
    assert int(rows[0]["storage"]) < uniform.storage


def test_numeric_error_record_reports_the_model_compression_rate(workdir, tmp_path):
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("vocab_size=100\nembed_dim=12\nhidden_dim=12\nunroll=8\nbatch_size=4\n"
                   "representation=mps\nfactors=2\nrank=2\nlr=1e300\nclip=1e300\nseed=3\n")
    records = tmp_path / "records.csv"
    proc = run_cli("train", "--config", cfg, "--corpus", workdir / "corpus.txt",
                   "--out", tmp_path / "blowup.ttlm", "--records", records, expect=4)
    assert "numeric error" in proc.stderr
    (row,) = [r for r in _records(records) if r["metric"] == "numeric_error"]
    rate = build_model(ModelArch(vocab_size=100, embed_dim=12, hidden_dim=12,
                                 representation="mps", rank=2)).gate_compression_rate()
    assert rate > 1.0
    assert float(row["compression_rate"]) == rate


def test_unknown_config_key_exits_2(workdir):
    bad = workdir / "bad.cfg"
    bad.write_text("embed_dim=8\nhidden_dim=8\nwat=1\n")
    proc = run_cli("train", "--config", bad, "--corpus", workdir / "corpus.txt",
                   "--out", workdir / "x.ttlm", expect=2)
    assert "unknown config key" in proc.stderr


def test_repeated_config_key_exits_2(workdir, tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text((workdir / "dense.cfg").read_text() + "epochs=3\n")
    proc = run_cli("train", "--config", cfg, "--corpus", workdir / "corpus.txt",
                   "--out", tmp_path / "twice.ttlm", expect=2)
    line = len((workdir / "dense.cfg").read_text().splitlines()) + 1
    assert f"twice.cfg:{line}: repeated config key 'epochs'" in proc.stderr
    assert "epoch 1" not in proc.stdout


@pytest.mark.parametrize("seed_from", ["config", "flag"])
def test_negative_seed_exits_2(workdir, tmp_path, seed_from):
    if seed_from == "config":
        argv, named = ["--config", _config_with(workdir, tmp_path, "seed", -1, "dense.cfg")], \
            "'seed'"
    else:
        argv, named = ["--config", workdir / "dense.cfg", "--seed", -3], "--seed"
    proc = run_cli("train", *argv, "--corpus", workdir / "corpus.txt",
                   "--out", tmp_path / "seed.ttlm", expect=2)
    assert proc.stderr.startswith("config error:") and named in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.1"])
def test_valid_fraction_outside_the_unit_interval_exits_2(workdir, tmp_path, fraction):
    cfg = _config_with(workdir, tmp_path, "valid_fraction", fraction, "dense.cfg")
    proc = run_cli("train", "--config", cfg, "--corpus", workdir / "corpus.txt",
                   "--out", tmp_path / "split.ttlm", expect=2)
    assert "'valid_fraction'" in proc.stderr and "Traceback" not in proc.stderr


def test_corrupted_model_exits_3(workdir, teacher):
    corrupt = workdir / "corrupt.ttlm"
    raw = teacher.read_bytes()
    corrupt.write_bytes(raw[:-20])
    (workdir / "corrupt.ttlm.vocab").write_bytes((workdir / "teacher.ttlm.vocab").read_bytes())
    proc = run_cli("eval", "--model", corrupt, "--corpus", workdir / "test.txt", expect=3)
    assert "format error" in proc.stderr


def test_non_integer_declared_dimension_exits_3(workdir, teacher, tmp_path):
    # the first digit of the embedding rows becomes "a"; the manifest length is unchanged
    raw = bytearray(teacher.read_bytes())
    raw[raw.index(b"embedding:") + len(b"embedding:")] = ord("a")
    corrupt = tmp_path / "corrupt.ttlm"
    corrupt.write_bytes(bytes(raw))
    (tmp_path / "corrupt.ttlm.vocab").write_bytes((workdir / "teacher.ttlm.vocab").read_bytes())
    proc = run_cli("eval", "--model", corrupt, "--corpus", workdir / "test.txt", expect=3)
    assert "format error" in proc.stderr and "embedding" in proc.stderr


def test_vocab_mismatch_exits_2(workdir, teacher, tmp_path):
    clone = tmp_path / "clone.ttlm"
    clone.write_bytes(teacher.read_bytes())
    vocab_text = (workdir / "teacher.ttlm.vocab").read_text().splitlines()
    vocab_text[2] = "tampered\t2"
    (tmp_path / "clone.ttlm.vocab").write_text("\n".join(vocab_text) + "\n")
    proc = run_cli("eval", "--model", clone, "--corpus", workdir / "test.txt", expect=2)
    assert "does not match" in proc.stderr


def test_vocab_size_that_misfits_the_model_exits_2(workdir, tmp_path):
    # no vocab hash in the manifest, so only the size can catch the mismatch
    model = tmp_path / "small.ttlm"
    save_model(build_model(ModelArch(vocab_size=20, embed_dim=4, hidden_dim=4,
                                     unroll=8, batch_size=4)), model)
    vocab = build_vocab((workdir / "corpus.txt").read_text(encoding="utf-8"), 40)
    assert vocab.size == 40
    save_vocab(vocab, tmp_path / "small.ttlm.vocab")
    proc = run_cli("eval", "--model", model, "--corpus", workdir / "test.txt", expect=2)
    assert "40 tokens" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", [
    "eval missing model", "train missing teacher", "info model is a directory",
    "train non-UTF-8 corpus", "train non-UTF-8 config", "eval non-UTF-8 corpus",
    "records in a missing directory", "out in a missing directory",
])
def test_file_that_cannot_be_read_or_written_exits_2(workdir, teacher, tmp_path, case):
    latin = tmp_path / "latin.txt"
    latin.write_bytes("caf\xe9 au lait\n".encode("latin-1"))
    corpus, cfg, missing = workdir / "corpus.txt", workdir / "dense.cfg", tmp_path / "missing"
    argv = {
        "eval missing model": ["eval", "--model", tmp_path / "nope.ttlm", "--corpus", corpus],
        "train missing teacher": ["train", "--config", workdir / "mps.cfg", "--corpus", corpus,
                                  "--teacher", tmp_path / "nope.ttlm", "--out", tmp_path / "s.ttlm"],
        "info model is a directory": ["info", "--model", tmp_path],
        "train non-UTF-8 corpus": ["train", "--config", cfg, "--corpus", latin,
                                   "--out", tmp_path / "x.ttlm"],
        "train non-UTF-8 config": ["train", "--config", latin, "--corpus", corpus,
                                   "--out", tmp_path / "x.ttlm"],
        "eval non-UTF-8 corpus": ["eval", "--model", teacher, "--corpus", latin],
        "records in a missing directory": ["info", "--config", cfg,
                                           "--records", missing / "records.csv"],
        "out in a missing directory": ["train", "--config", cfg, "--corpus", corpus,
                                       "--out", missing / "x.ttlm"],
    }[case]
    proc = run_cli(*argv, expect=2)
    assert proc.stderr.startswith("config error:")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_non_utf8_vocab_file_exits_3(tmp_path):
    # no vocab hash in the manifest, so the vocab file itself is parsed
    model = tmp_path / "m.ttlm"
    save_model(build_model(ModelArch(vocab_size=20, embed_dim=4, hidden_dim=4,
                                     representation="mps", rank=2)), model)
    (tmp_path / "m.ttlm.vocab").write_bytes(b"<unk>\t0\n<eos>\t1\ncaf\xe9\t2\n")
    proc = run_cli("info", "--model", model, expect=3)
    assert proc.stderr.startswith("format error:") and "m.ttlm.vocab" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_same_seed_training_bitwise_identical_model_files(workdir):
    out1, out2 = workdir / "det1.ttlm", workdir / "det2.ttlm"
    for out in (out1, out2):
        run_cli("train", "--config", workdir / "dense.cfg", "--corpus",
                workdir / "corpus.txt", "--out", out, "--threads", 1)
    assert out1.read_bytes() == out2.read_bytes()
    assert (workdir / "det1.ttlm.vocab").read_bytes() == (workdir / "det2.ttlm.vocab").read_bytes()


def test_threads_flag_overrides_preset_blas_environment(workdir):
    import os

    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4")
    script = ("import os, sys\n"
              "from ttlstm.cli import main\n"
              "rc = main(['info', '--config', sys.argv[1], '--threads', '2'])\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'], rc)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(workdir / "dense.cfg")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "2 2 0"


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_one_exits_2(workdir, monkeypatch, capsys, threads):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # main exports --threads; undone after the test
    assert main(["info", "--config", str(workdir / "dense.cfg"), "--threads", str(threads)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and "--threads" in err
    assert "OMP_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("command", ["eval", "train", "bench", "info"])
def test_corpus_shorter_than_one_window_exits_2(workdir, teacher, tmp_path, command):
    short = tmp_path / "short.txt"
    short.write_text("the cat sat on the mat and the dog ran\n", encoding="utf-8")
    argv = {
        "eval": ["eval", "--model", teacher, "--corpus", short],
        "train": ["train", "--config", workdir / "dense.cfg", "--corpus", short,
                  "--out", tmp_path / "short.ttlm"],
        "bench": ["bench", "--model", teacher, "--corpus", short, "--runs", 2, "--discard", 1],
        "info": ["info", "--model", teacher, "--corpus", short],
    }[command]
    proc = run_cli(*argv, expect=2)
    assert proc.stderr.startswith("config error:")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_train_on_empty_corpus_exits_2(workdir, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    proc = run_cli("train", "--config", workdir / "dense.cfg", "--corpus", empty,
                   "--out", tmp_path / "empty.ttlm", expect=2)
    assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["info", "train"])
def test_factor_dims_that_miss_the_stack_exit_2(workdir, tmp_path, command):
    cfg = tmp_path / "bad_dims.cfg"
    cfg.write_text("vocab_size=100\nembed_dim=8\nhidden_dim=8\nunroll=8\nbatch_size=4\n"
                   "representation=mps\nfactors=2\nrank=2\nwx_row_dims=3,3\n")
    argv = ["--config", cfg]
    if command == "train":
        argv += ["--corpus", workdir / "corpus.txt", "--out", tmp_path / "bad.ttlm"]
    proc = run_cli(command, *argv, expect=2)
    assert "wx_row_dims" in proc.stderr and "Traceback" not in proc.stderr


def _config_with(workdir, tmp_path, key, value, base="mps.cfg"):
    """A copy of ``base`` whose ``key`` line reads ``key=value``."""
    lines = [line for line in (workdir / base).read_text().splitlines()
             if not line.startswith(f"{key}=")]
    cfg = tmp_path / "edited.cfg"
    cfg.write_text("\n".join(lines + [f"{key}={value}"]) + "\n")
    return cfg


@pytest.mark.parametrize("command,key,value", [("info", "factors", "two"),
                                               ("train", "lr", "fast"),
                                               ("train", "wx_row_dims", "8,x")])
def test_non_numeric_config_value_exits_2(workdir, tmp_path, command, key, value):
    cfg = _config_with(workdir, tmp_path, key, value)
    argv = ["--config", cfg]
    if command == "train":
        argv += ["--corpus", workdir / "corpus.txt", "--out", tmp_path / "words.ttlm"]
    proc = run_cli(command, *argv, expect=2)
    assert proc.stderr.startswith("config error:") and repr(key) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,flag", [("train", "--covariance"), ("info", "--covariance"),
                                          ("info", "--covariance-out")])
def test_removed_covariance_flags_exit_2(workdir, teacher, tmp_path, command, flag):
    rest = (["--config", workdir / "kda.cfg", "--teacher", teacher, "--out", tmp_path / "s.ttlm"]
            if command == "train" else ["--model", teacher])
    proc = run_cli(command, *rest, "--corpus", workdir / "corpus.txt",
                   flag, tmp_path / "cov.npz", expect=2)
    assert "unrecognized arguments" in proc.stderr and "epoch" not in proc.stdout


def test_info_corpus_without_a_model_exits_2(workdir):
    proc = run_cli("info", "--config", workdir / "mps.cfg", "--corpus", workdir / "corpus.txt",
                   expect=2)
    assert proc.stderr.startswith("config error:") and "--model" in proc.stderr
    assert proc.stdout == ""


def test_info_model_and_config_together_exits_2(workdir, teacher):
    proc = run_cli("info", "--model", teacher, "--config", workdir / "mps.cfg", expect=2)
    assert proc.stderr.startswith("config error:") and "--config" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["info", "train"])
def test_mpo_config_with_unequal_factor_counts_exits_2(workdir, tmp_path, command):
    cfg = tmp_path / "mpo.cfg"
    cfg.write_text("vocab_size=100\nembed_dim=12\nhidden_dim=12\nunroll=8\nbatch_size=4\n"
                   "representation=mpo\nrank=2\nwx_row_dims=4,4,3\n")
    extra = () if command == "info" else ("--corpus", workdir / "corpus.txt",
                                          "--out", tmp_path / "m.ttlm")
    proc = run_cli(command, "--config", cfg, *extra, expect=2)
    assert proc.stderr.startswith("config error:") and "column factors" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_teacher_too_large_to_materialize_exits_2(workdir, tmp_path, monkeypatch, capsys):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # main exports --threads; undone after the test
    arch = ModelArch(vocab_size=40, embed_dim=12, hidden_dim=12, representation="mps",
                     rank=1, unroll=8, batch_size=4)
    teacher = tmp_path / "mps_teacher.ttlm"
    save_model(build_model(arch, seed=1), teacher)
    save_vocab(build_vocab((workdir / "corpus.txt").read_text(encoding="utf-8"), 40),
               tmp_path / "mps_teacher.ttlm.vocab")
    # the teacher's W_x is 4H x E = 576 entries, one above the cap
    monkeypatch.setattr("ttlstm.ttrain.MATERIALIZATION_CAP", 4 * 12 * 12 - 1)
    out = tmp_path / "student.ttlm"
    assert main(["train", "--config", str(workdir / "mps.cfg"),
                 "--corpus", str(workdir / "corpus.txt"), "--teacher", str(teacher),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "exceeds cap" in err
    assert not out.exists()


def test_streamed_covariance_pass_memory_does_not_grow_with_the_stream():
    arch = ModelArch(vocab_size=50, embed_dim=32, hidden_dim=32, unroll=10, batch_size=8)
    model = build_model(arch, seed=5)
    rng = np.random.default_rng(6)
    streams = {w: rng.integers(0, 50, size=8 * (10 * w + 1)) for w in (4, 16)}
    stack_covariances(model, streams[4])          # warm up lazy imports and caches
    peaks = {}
    for windows, ids in streams.items():
        tracemalloc.start()
        try:
            stack_covariances(model, ids)
            peaks[windows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] <= 1.2 * peaks[4], peaks


@pytest.mark.parametrize("factors", [0, -1, MAX_FACTORS + 1, 1000])
def test_factors_outside_its_range_exits_2(tmp_path, factors):
    cfg = tmp_path / "factors.cfg"
    cfg.write_text(f"embed_dim=12\nhidden_dim=12\nrepresentation=mps\nrank=2\nfactors={factors}\n")
    proc = run_cli("info", "--config", cfg, expect=2)
    assert proc.stderr.startswith("config error:") and "'factors'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_factors_at_the_bound_is_accepted(tmp_path):
    cfg = tmp_path / "factors.cfg"
    cfg.write_text("embed_dim=12\nhidden_dim=12\nrepresentation=mps\nrank=2\n"
                   f"factors={MAX_FACTORS}\n")
    rows = list(csv.DictReader(io.StringIO(run_cli("info", "--config", cfg).stdout)))
    assert {int(row["n_factors"]) for row in rows} == {MAX_FACTORS}


@pytest.mark.parametrize("rep,extra", [("mps", "rank=4\ntarget_rate=1.8\n"),
                                       ("mpo", "rank=2\ntarget_rate=5\n"),
                                       ("dense", "rank=4\n"),
                                       ("dense", "target_rate=1.8\n")])
def test_conflicting_rank_keys_exit_2(tmp_path, rep, extra):
    cfg = tmp_path / "conflict.cfg"
    cfg.write_text(f"embed_dim=12\nhidden_dim=12\nrepresentation={rep}\n{extra}")
    proc = run_cli("info", "--config", cfg, expect=2)
    assert proc.stderr.startswith("config error:") and "'target_rate'" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("extra,named", [("init=flat-uniform\n", ["init"]),
                                         ("factors=3\n", ["factors"]),
                                         ("wx_row_dims=4,12\n", ["wx_row_dims"]),
                                         ("init=flat-gaussian\nwh_col_dims=3,4\n",
                                          ["init", "wh_col_dims"])])
def test_dense_config_key_the_model_ignores_exits_2(workdir, tmp_path, extra, named):
    """A dense stack has no cores to factor or draw: a config that sets
    ``factors``, ``init`` or a factor dims key off its default is refused
    before any work, each such key named."""
    cfg = tmp_path / "ignored.cfg"
    cfg.write_text((workdir / "dense.cfg").read_text() + extra)
    out = tmp_path / "x.ttlm"
    for argv in (["info", "--config", cfg],
                 ["train", "--config", cfg, "--corpus", workdir / "corpus.txt", "--out", out]):
        proc = run_cli(*argv, expect=2)
        assert proc.stderr.startswith("config error:") and proc.stdout == ""
        assert all(repr(key) in proc.stderr for key in named)
    assert not out.exists() and not Path(f"{out}.vocab").exists()


@pytest.mark.parametrize("extra,named", [("init=flat-uniform\n", "'init'"),
                                         ("valid_fraction=1.5\n", "'valid_fraction'"),
                                         ("distill=kdx\n", "'kdx'"),
                                         ("clip=-1\n", "clip")])
def test_train_config_error_exits_2_before_the_teacher_is_read(workdir, tmp_path, extra,
                                                               named):
    """A config error is found before ``--corpus`` or ``--teacher`` is read:
    with a teacher file that is not a model it exits 2, not the format
    error's 3."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text((workdir / "dense.cfg").read_text() + extra)
    not_a_model = tmp_path / "teacher.ttlm"
    not_a_model.write_text("not a model\n")
    out = tmp_path / "x.ttlm"
    proc = run_cli("train", "--config", cfg, "--corpus", workdir / "corpus.txt",
                   "--teacher", not_a_model, "--out", out, expect=2)
    assert proc.stderr.startswith("config error:") and named in proc.stderr
    assert proc.stdout == "" and not out.exists() and not Path(f"{out}.vocab").exists()


@pytest.mark.parametrize("cfg_name", ["mps.cfg", "kda.cfg"])
def test_distillation_without_a_teacher_exits_2_before_the_corpus_is_read(workdir, tmp_path,
                                                                         cfg_name):
    """An active ``distill`` with no ``--teacher`` is a config error, found
    before ``--corpus`` is read: a missing corpus file is not what it names."""
    out = tmp_path / "x.ttlm"
    proc = run_cli("train", "--config", workdir / cfg_name, "--corpus", tmp_path / "missing.txt",
                   "--out", out, expect=2)
    assert proc.stderr.startswith("config error:") and "teacher" in proc.stderr
    assert "corpus" not in proc.stderr and "missing.txt" not in proc.stderr
    assert proc.stdout == "" and not out.exists() and not Path(f"{out}.vocab").exists()


def test_dense_config_keys_at_their_defaults_are_accepted(workdir, tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text((workdir / "dense.cfg").read_text()
                   + "factors=2\ninit=gaussian-variance-matched\nwx_row_dims=\n")
    rows = list(csv.DictReader(io.StringIO(run_cli("info", "--config", cfg).stdout)))
    assert [row["kind"] for row in rows] == ["dense", "dense"]


@pytest.mark.parametrize("key", ["vocab_size", "embed_dim", "hidden_dim"])
def test_config_size_above_the_bound_exits_2(tmp_path, key):
    sizes = {"vocab_size": 100, "embed_dim": 12, "hidden_dim": 12, key: 10**20}
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in sizes.items())
                   + "representation=mps\nrank=2\n")
    proc = subprocess.run([sys.executable, "-m", "ttlstm", "info", "--config", str(cfg)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and repr(key) in proc.stderr


def test_config_sizes_at_the_bound_are_accepted(tmp_path):
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(f"vocab_size={MAX_SIZE}\nembed_dim={MAX_SIZE}\nhidden_dim={MAX_SIZE}\n"
                   "representation=mps\nrank=2\n")
    proc = subprocess.run([sys.executable, "-m", "ttlstm", "info", "--config", str(cfg)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line.split(",")[0] for line in proc.stdout.splitlines()] == ["matrix", "wx", "wh"]


@pytest.mark.parametrize("flag", ["--out", "--records"])
def test_train_into_a_missing_directory_exits_2_before_training(workdir, tmp_path, flag):
    missing = tmp_path / "missing"
    out = missing / "x.ttlm" if flag == "--out" else tmp_path / "x.ttlm"
    records = [] if flag == "--out" else ["--records", missing / "records.csv"]
    proc = run_cli("train", "--config", workdir / "dense.cfg", "--corpus", workdir / "corpus.txt",
                   "--out", out, *records, expect=2)
    assert proc.stderr.startswith("config error:") and str(missing) in proc.stderr
    assert "epoch 1:" not in proc.stdout and not out.exists()


@pytest.mark.parametrize("command,flag", [("eval", "--records"), ("bench", "--records"),
                                          ("info", "--records")])
def test_output_into_a_missing_directory_exits_2_before_any_work(workdir, teacher, tmp_path,
                                                                 command, flag):
    missing = tmp_path / "missing"
    proc = run_cli(command, "--model", teacher, "--corpus", workdir / "test.txt",
                   flag, missing / "out.csv", expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error:") and str(missing) in proc.stderr


@pytest.mark.parametrize("command,flag,target", [
    ("train", "--out", "folder"), ("train", "--out", "folder/"), ("train", "--out", "vocab"),
    ("train", "--records", "folder"), ("eval", "--records", "folder"),
    ("bench", "--records", "folder"), ("info", "--records", "folder"),
], ids=["train-out", "train-out-slash", "train-out-vocab", "train-records", "eval-records",
        "bench-records", "info-records"])
def test_output_path_naming_a_directory_exits_2_before_any_work(workdir, teacher, tmp_path,
                                                                command, flag, target):
    """An output path that names an existing directory (``--out``, with or
    without a trailing separator, the ``.vocab`` file next to it, or
    ``--records``) exits 2 before any work: no epoch, perplexity or CSV line
    on stdout, and no file written next to it or inside it."""
    folder = tmp_path / "folder"
    folder.mkdir()
    (tmp_path / "model.ttlm.vocab").mkdir()
    path = {"folder": str(folder), "folder/": str(folder) + os.sep,
            "vocab": str(tmp_path / "model.ttlm")}[target]
    if command == "train":
        argv = ["train", "--config", workdir / "dense.cfg", "--corpus", workdir / "corpus.txt",
                "--out", path if flag == "--out" else tmp_path / "x.ttlm"]
    else:
        argv = [command, "--model", teacher] + (["--corpus", workdir / "test.txt"]
                                                if command != "info" else [])
    if flag == "--records":
        argv += ["--records", path]
    before = sorted(tmp_path.rglob("*"))
    proc = run_cli(*argv, expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error:") and "is a directory" in proc.stderr
    assert sorted(tmp_path.rglob("*")) == before


_ALWAYS_WRITTEN = ["format_version", "vocab_size", "embed_dim", "hidden_dim", "unroll",
                   "batch_size", "gate_order", "init_kind", "seed", "vocab_sha256", "tensors",
                   "wx_kind", "wh_kind"]
_STACK_KEYS = {"mps": ["row_dims", "col_dims", "row_ranks", "col_ranks"],
               "mpo": ["row_dims", "col_dims", "ranks"]}


@pytest.mark.parametrize("rep,key", [("mps", key) for key in _ALWAYS_WRITTEN] + [
    (rep, f"{prefix}_{key}") for rep, keys in _STACK_KEYS.items()
    for prefix in ("wx", "wh") for key in keys])
def test_model_file_missing_a_written_key_exits_3(workdir, tmp_path, rep, key):
    """Every key ``save_model`` writes is required: without it the file
    raises ``FormatError`` and ``ttlstm eval`` exits 3."""
    arch = ModelArch(vocab_size=40, embed_dim=12, hidden_dim=12, representation=rep,
                     rank=4, unroll=8, batch_size=4)
    path = tmp_path / "m.ttlm"
    save_model(build_model(arch, seed=1), path)
    raw = path.read_bytes()
    head = len(MAGIC) + 8
    (man_len,) = struct.unpack("<Q", raw[len(MAGIC): head])
    lines = raw[head: head + man_len].decode().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith(f"{key}=")).encode()
    assert len(kept) < man_len
    path.write_bytes(MAGIC + struct.pack("<Q", len(kept)) + kept + raw[head + man_len:])
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert repr(key) in str(err.value)
    save_vocab(build_vocab((workdir / "corpus.txt").read_text(encoding="utf-8"), 40),
               tmp_path / "m.ttlm.vocab")
    proc = run_cli("eval", "--model", path, "--corpus", workdir / "test.txt", expect=3)
    assert "format error" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("rep,line", [("mpo", "wx_row_ranks=1,99,1"), ("dense", "wh_ranks=1,7,1"),
                                      ("mps", "wx_ranks=1,4,1")])
def test_model_file_with_a_stack_key_its_kind_never_writes_exits_3(workdir, tmp_path, rep, line):
    """A stack's keys are exactly the ones ``save_model`` writes for its
    kind: an extra one raises ``FormatError`` and ``ttlstm eval`` exits 3."""
    arch = ModelArch(vocab_size=40, embed_dim=12, hidden_dim=12, representation=rep,
                     rank=0 if rep == "dense" else 4, unroll=8, batch_size=4)
    path = tmp_path / "m.ttlm"
    save_model(build_model(arch, seed=1), path)
    raw = path.read_bytes()
    head = len(MAGIC) + 8
    (man_len,) = struct.unpack("<Q", raw[len(MAGIC): head])
    manifest = raw[head: head + man_len] + f"{line}\n".encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest + raw[head + man_len:])
    key = line.split("=")[0]
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert key in str(err.value)
    save_vocab(build_vocab((workdir / "corpus.txt").read_text(encoding="utf-8"), 40),
               tmp_path / "m.ttlm.vocab")
    proc = run_cli("eval", "--model", path, "--corpus", workdir / "test.txt", expect=3)
    assert key in proc.stderr and "Traceback" not in proc.stderr
