"""Tensor-train (MPS/MPO) compression of LSTM weight matrices.

Submodules:

  ttrain     MPS/MPO construction, initialization, storage, reconstruction
  contract   factor-pair inference kernels, cost models, rank planning
  autograd   tape-based reverse-mode differentiation
  nn         layer-normalized LSTM language model with tensor-train gates
  distill    knowledge-distillation penalties and data covariances
  data       corpus ingestion, vocabulary, contiguous batching
  modelfile  binary model serialization and run-record CSV
  training   optimizers and the deterministic training loop
  cli        the ``ttlstm`` command-line entry point

Submodules are imported lazily so the command line can pin BLAS threads
before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("ttrain", "contract", "autograd", "nn", "distill", "data",
               "modelfile", "training", "cli", "errors")

__all__ = list(_SUBMODULES)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
