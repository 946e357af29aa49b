#!/usr/bin/env python3
"""A small end-to-end language-model run: dense teacher, compressed
students, and weight distillation.

Uses the bundled synthetic pseudo-language (a sparse Markov chain over a
few hundred word types), so everything runs on a laptop CPU in about two
minutes. The same flow is available from the command line; see the
distillation walkthrough in the README.
"""

import time

import numpy as np

from ttlstm.contract import cost_model
from ttlstm.data import build_vocab, encode_stream, synthetic_corpus
from ttlstm.distill import DistillConfig, TeacherWeights
from ttlstm.nn import ModelArch, build_model
from ttlstm.training import TrainConfig, evaluate, train_model
from ttlstm.ttrain import ShapeFactorization

start = time.time()
text = synthetic_corpus(20_000, vocab_size=300, seed=5)
vocab = build_vocab(text, 2000)
ids = encode_stream(text, vocab)
n = ids.size
train_ids, valid_ids, test_ids = ids[: int(n * 0.8)], ids[int(n * 0.8): int(n * 0.9)], ids[int(n * 0.9):]
print(f"corpus: {n:,} tokens, vocabulary {vocab.size}")

counts = np.bincount(train_ids, minlength=vocab.size).astype(float)
probs = (counts + 1.0) / (counts.sum() + vocab.size)
unigram = float(np.exp(-np.log(probs[test_ids]).mean()))
print(f"unigram baseline perplexity: {unigram:.1f}")


def arch(rep, rank=0):
    return ModelArch(vocab_size=vocab.size, embed_dim=64, hidden_dim=64,
                     representation=rep, n_factors=2, rank=rank,
                     unroll=35, batch_size=20)


def fit(model, distill=DistillConfig(), teacher=None):
    cfg = TrainConfig(optimizer="adam", lr=0.01, epochs=6, distill=distill)
    train_model(model, train_ids, valid_ids, cfg, teacher=teacher)
    _, ppl = evaluate(model, test_ids)
    return ppl


print("\ntraining the dense teacher ...")
dense = build_model(arch("dense"), seed=1)
dense_ppl = fit(dense)
print(f"  dense test perplexity {dense_ppl:.2f}  ({time.time() - start:.0f}s)")

fact = ShapeFactorization((16, 16), (8, 8))
rank = 19
rate = (2 * 256 * 64) / (2 * cost_model(fact, rank, "mps").storage)
print(f"\ntraining a 4-core MPS student, rank {rank} (compression {rate:.2f}x) ...")
mps = build_model(arch("mps", rank), seed=1)
mps_ppl = fit(mps)
print(f"  mps test perplexity {mps_ppl:.2f} "
      f"({mps_ppl / dense_ppl:.3f}x the dense model)  ({time.time() - start:.0f}s)")

lam = 1e-5
print(f"\nsame student with weight distillation (lambda {lam:g}) ...")
kdw = build_model(arch("mps", rank), seed=1)
kdw_ppl = fit(kdw, DistillConfig("kdw", lam), TeacherWeights.from_model(dense))
print(f"  kdw test perplexity {kdw_ppl:.2f}  ({time.time() - start:.0f}s)")

print(f"\nsummary: unigram {unigram:.1f} | dense {dense_ppl:.2f} | "
      f"mps {mps_ppl:.2f} | mps+kdw {kdw_ppl:.2f}")
