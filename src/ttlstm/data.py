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


def _bounded(raw: np.ndarray, table) -> list:
    """``table[rng.integers(len(table))]`` for each raw 32-bit word, or
    ``None`` where numpy's bounded draw rejects the word and takes the next
    one: Lemire's multiply-shift, "Fast Random Integer Generation in an
    Interval" (2019)."""
    n = len(table)
    scaled = raw * n
    kept = (scaled & 0xFFFFFFFF) >= (2**32 - n) % n
    return np.array([*table, None], dtype=object)[np.where(kept, scaled >> 32, n)].tolist()


def _word_list(count: int, rng: np.random.Generator) -> list[str]:
    """``count`` distinct words. Each is a syllable count in [1, 3], an
    onset and a vowel per syllable and a coda after the last, every one a
    bounded ``rng.integers`` draw that takes one 32-bit word per try. The
    raw words come in bulk; then the state is rewound and advanced by the
    words used, so words and state are those of one call per draw."""
    start = rng.bit_generator.state
    syllables: list = []
    onsets: list = []
    vowels: list = []
    codas: list = []
    words: list[str] = []
    seen = set()
    used = 0
    while len(words) < count:
        try:
            # raw word i is the next draw; None marks a rejected one
            i = used
            while syllables[i] is None:
                i += 1
            parts = []
            for _ in range(syllables[i]):
                i += 1
                while onsets[i] is None:
                    i += 1
                parts.append(onsets[i])
                i += 1
                while vowels[i] is None:
                    i += 1
                parts.append(vowels[i])
            i += 1
            while codas[i] is None:
                i += 1
            parts.append(codas[i])
            used = i + 1
        except IndexError:
            # the word runs past the raw words drawn so far: draw more (a
            # word takes six on average) and build it again
            raw = rng.integers(0, 1 << 32, size=8 * (count - len(words)), dtype=np.uint64)
            syllables += _bounded(raw, (1, 2, 3))
            onsets += _bounded(raw, _ONSETS)
            vowels += _bounded(raw, _VOWELS)
            codas += _bounded(raw, _CODAS)
            continue
        word = "".join(parts)
        if word not in seen:
            seen.add(word)
            words.append(word)
    rng.bit_generator.state = start
    rng.integers(0, 1 << 32, size=used, dtype=np.uint64)
    return words


def _successor_table(vocab_size: int, rng: np.random.Generator) -> list[list[int]]:
    """Per word, five distinct successors in [0, V) as numpy's sampler
    without replacement draws them. Each row is Floyd's sampler, draws in
    [0, j] for j = V-5 … V-1, with ``j`` taken where the row already holds
    the draw, then a shuffle that swaps position i with a draw in [0, i]
    for i = 4 … 1 (Bentley & Floyd, "A sample of brilliance", 1987). All
    rows' draws are one ``integers`` call on an array of bounds, which
    draws each element as the sampler does, rejections included."""
    highs = np.r_[np.arange(vocab_size - 4, vocab_size + 1), 5, 4, 3, 2]
    draws = rng.integers(0, np.tile(highs, (vocab_size, 1)))
    rows = draws[:, :5]
    for t in range(1, 5):
        held = (rows[:, :t] == rows[:, t:t + 1]).any(axis=1)
        rows[held, t] = vocab_size - 5 + t
    every = np.arange(vocab_size)
    for i, j in zip(range(4, 0, -1), draws[:, 5:].T):
        swapped = rows[every, j]
        rows[every, j] = rows[:, i]
        rows[:, i] = swapped
    return rows.tolist()


def synthetic_corpus(n_tokens: int, vocab_size: int = 500, seed: int = 0) -> str:
    """Deterministic pseudo-language corpus for demos and tests.

    Sentences follow a sparse first-order Markov chain: every word has
    five possible successors with skewed probabilities, so there
    is real sequential structure for a model to learn while the unigram
    distribution stays broad. Generated from scratch, so the text is free
    of any third-party content.

    The draw order is a compatibility contract, pinned by the corpus
    digests in the tests and by the benchmark's recorded NLLs. First come
    the word list (per word one bounded integer for the syllable count,
    then per syllable one for the onset and one for the vowel, and one
    for the coda) and the successor table (per word the draws of numpy's
    five-of-V sample without replacement). Both are drawn in bulk, raw
    32-bit words and one broadcast ``integers`` call, and give the words,
    the table and the generator state of one numpy call per draw. Then
    each sentence draws one integer (its length) and ``length`` doubles.
    The first double picks the start word and each later one a successor
    branch, through the inverse CDF that ``Generator.choice`` uses with
    ``p``, so the text is the one a per-token ``choice`` loop would write.
    """
    if n_tokens < 1 or vocab_size < 5:
        raise DomainError("need at least one token and five word types")
    rng = np.random.default_rng(seed)
    words = _word_list(vocab_size, rng)
    successors = _successor_table(vocab_size, rng)
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
