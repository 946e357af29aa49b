"""Corpus ingestion, vocabulary construction and contiguous batch layout.

Corpora are UTF-8 plain text, one sentence per line, whitespace-tokenized
with no case folding. Encoding appends an end-of-sentence marker per
non-empty line and maps out-of-vocabulary tokens to the unknown marker.

Batching reshapes the token stream into ``batch`` contiguous lanes
(dropping the remainder) and yields ``(inputs, targets)`` windows of
``unroll`` steps whose targets are the inputs shifted by one position;
windows never cross a lane boundary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .autograd import _integer_ids
from .errors import DomainError, FormatError, ShapeError

__all__ = [
    "UNK_TOKEN", "EOS_TOKEN", "Vocab", "build_vocab", "encode_stream",
    "save_vocab", "load_vocab", "Batch", "BatchStream", "make_batches",
    "synthetic_corpus",
]

UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"


@dataclass(frozen=True)
class Vocab:
    id_to_token: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_token_to_id",
                           {tok: i for i, tok in enumerate(self.id_to_token)})

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    @property
    def unk_id(self) -> int:
        return 0

    @property
    def eos_id(self) -> int:
        return 1


def build_vocab(text: str, max_size: int) -> Vocab:
    """Frequency-capped vocabulary: the ``max_size - 2`` most frequent
    tokens after the two reserved markers; ties break lexicographically."""
    if max_size < 2:
        raise DomainError("max_size must leave room for the reserved markers")
    counts = Counter(text.split())
    counts.pop(UNK_TOKEN, None)
    counts.pop(EOS_TOKEN, None)
    if not counts:
        raise DomainError("empty corpus")
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ordered[: max_size - 2]]
    return Vocab((UNK_TOKEN, EOS_TOKEN, *kept))


def encode_stream(text: str, vocab: Vocab) -> np.ndarray:
    r"""One id per token with an end-of-sentence id after each non-empty line.
    Lines end only at ``\n``, ``\r\n`` and ``\r``, as universal-newline
    reading gives them; other separators such as ``\f``, ``\x85`` or
    ``\u2028`` are whitespace between tokens, as in :func:`build_vocab`."""
    get, unk, eos = vocab._token_to_id.get, vocab.unk_id, vocab.eos_id
    ids: list[int] = []
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        tokens = line.split()
        if not tokens:
            continue
        ids += [get(t, unk) for t in tokens]
        ids.append(eos)
    return np.asarray(ids, dtype=np.int64)


def save_vocab(vocab: Vocab, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, tok in enumerate(vocab.id_to_token):
            fh.write(f"{tok}\t{i}\n")


def load_vocab(path) -> Vocab:
    """Read a ``save_vocab`` file; every token must appear once."""
    ids: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 2 or parts[1] != str(lineno):
                    raise FormatError(f"bad vocab line {lineno + 1}: {line!r}")
                if parts[0] in ids:
                    raise FormatError(f"bad vocab line {lineno + 1}: token {parts[0]!r} "
                                      f"already has id {ids[parts[0]]}")
                ids[parts[0]] = lineno
    except UnicodeDecodeError as exc:
        raise FormatError(f"vocab file {path} is not UTF-8: {exc}") from exc
    tokens = tuple(ids)
    if len(tokens) < 2 or tokens[0] != UNK_TOKEN or tokens[1] != EOS_TOKEN:
        raise FormatError("vocab file must start with the reserved markers")
    return Vocab(tokens)


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray     # (batch, unroll)
    targets: np.ndarray    # (batch, unroll), inputs shifted by one


class BatchStream:
    """Iterator over full ``(batch, unroll)`` windows of a token stream."""

    def __init__(self, ids: np.ndarray, batch_size: int, unroll: int):
        ids = np.asarray(ids)
        if ids.ndim != 1:
            raise ShapeError(f"token ids must be one 1-D stream, got shape {ids.shape}")
        if batch_size < 1 or unroll < 1:
            raise DomainError("batch size and unroll length must be >= 1")
        if ids.size < batch_size * (unroll + 1):
            raise DomainError(
                f"need at least {batch_size * (unroll + 1)} tokens, got {ids.size}")
        ids = _integer_ids(ids, "token ids").astype(np.int64, copy=False)
        lane_len = ids.size // batch_size
        self.lanes = ids[: lane_len * batch_size].reshape(batch_size, lane_len)
        self.batch_size = batch_size
        self.unroll = unroll
        self.n_windows = (lane_len - 1) // unroll

    def __len__(self) -> int:
        return self.n_windows

    def __iter__(self):
        for w in range(self.n_windows):
            lo = w * self.unroll
            yield Batch(self.lanes[:, lo: lo + self.unroll],
                        self.lanes[:, lo + 1: lo + self.unroll + 1])


def make_batches(ids: np.ndarray, batch_size: int, unroll: int) -> BatchStream:
    return BatchStream(ids, batch_size, unroll)


_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gr", "kl", "pl", "st", "tr", "sk")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "n", "r", "s", "t", "l", "m")


def _word_list(count: int, rng: np.random.Generator) -> list[str]:
    words: list[str] = []
    seen = set()
    while len(words) < count:
        syllables = rng.integers(1, 4)
        word = "".join(
            _ONSETS[rng.integers(len(_ONSETS))]
            + _VOWELS[rng.integers(len(_VOWELS))]
            + (_CODAS[rng.integers(len(_CODAS))] if s == syllables - 1 else "")
            for s in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def synthetic_corpus(n_tokens: int, vocab_size: int = 500, seed: int = 0) -> str:
    """Deterministic pseudo-language corpus for demos and tests.

    Sentences follow a sparse first-order Markov chain: every word has
    five possible successors with skewed probabilities, so there
    is real sequential structure for a model to learn while the unigram
    distribution stays broad. Generated from scratch, so the text is free
    of any third-party content.

    The draw order is a compatibility contract, pinned by the corpus
    digests in the tests and by the benchmark's recorded NLLs: after the
    word list and the successor table, each sentence draws one integer
    (its length) and then ``length`` doubles. The first double picks the
    start word and each later one a successor branch, through the
    inverse CDF that ``Generator.choice(p=...)`` uses, so the text is the
    one a per-token ``choice`` loop would write.
    """
    if n_tokens < 1 or vocab_size < 5:
        raise DomainError("need at least one token and five word types")
    rng = np.random.default_rng(seed)
    words = _word_list(vocab_size, rng)
    successors = np.array([
        rng.choice(vocab_size, size=5, replace=False)
        for _ in range(vocab_size)
    ]).tolist()
    weights = np.array([0.45, 0.25, 0.15, 0.10, 0.05])
    weights /= weights.sum()
    # Zipf-ish start-word distribution
    start_p = 1.0 / np.arange(1, vocab_size + 1, dtype=np.float64)
    start_p /= start_p.sum()
    start_cdf, branch_cdf = start_p.cumsum(), weights.cumsum()
    start_cdf /= start_cdf[-1]
    branch_cdf /= branch_cdf[-1]

    lines: list[str] = []
    produced = 0
    while produced < n_tokens:
        length = int(rng.integers(8, 21))
        draws = rng.random(length)
        w = int(start_cdf.searchsorted(draws[0], side="right"))
        sentence = [words[w]]
        for branch in branch_cdf.searchsorted(draws[1:], side="right").tolist():
            w = successors[w][branch]
            sentence.append(words[w])
        lines.append(" ".join(sentence))
        produced += length + 1     # mirrors the end-of-sentence id added on encode
    return "\n".join(lines) + "\n"
