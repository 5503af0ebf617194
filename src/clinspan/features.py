"""Per-token input features: word vector + POS embedding + char-CNN vector.

Each real token t gets the concatenation of its word-table row, its POS-table
row, and a character-CNN vector (one max-over-time pooled ReLU convolution
per filter per kernel width); the neural module builds these rows for the
real slots of a batch.  One char-CNN call stacks the windows of all its
tokens per width in one ragged array, for one gather and one GEMM, so its
memory follows the total number of chars, not the longest token.  Row 0
(PAD) of every table is all zeros and stays frozen through training.

Tables are read-only during featurization; the single writer during training
is the optimizer step (see the neural module).
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .corpus import PAD_INDEX, UNK_INDEX, ParseError, Vocabulary

# Values per loadtxt call (1 MB): a large file holds one block of text at a time.
VALUES_PER_BLOCK = 2**17


@dataclass
class EmbeddingTable:
    """An embedding table: the word vectors aligned to the word vocabulary,
    or the POS-tag table."""

    matrix: np.ndarray  # (V, D) float64

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass
class CharCnnParams:
    """Character table plus one bank of convolution filters per kernel width."""

    char_table: np.ndarray  # (C, D_c) float64
    widths: tuple[int, ...]
    filters: list[np.ndarray]  # per width: (F, k, D_c)
    biases: list[np.ndarray]  # per width: (F,)

    @property
    def char_dim(self) -> int:
        return self.char_table.shape[1]

    @property
    def n_filters(self) -> int:
        return self.filters[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.n_filters * len(self.widths)


@dataclass
class CharTrace:
    """Forward-pass state of one char-CNN call, kept for backprop."""

    window_ids: list[np.ndarray]  # per width: (P, k) char indices
    pre: list[np.ndarray]  # per width: (P, F) pre-ReLU activations
    best: list[np.ndarray]  # per width: (N, F) argmax window row per filter


def load_embeddings(stream, vocab: Vocabulary) -> EmbeddingTable:
    """Load word2vec-style text embeddings aligned to the vocabulary.

    Header line ``V D`` then at least one line ``word v1 ... vD``; a value
    that is not a finite float (``nan``, ``inf``, ``1e309``) is a ParseError.
    A repeated word keeps its last row.  Vocabulary words missing from the
    file get a reproducible pseudo-random row drawn uniform in [-0.5/D, 0.5/D]
    from a hash of the word, so every load is identical.
    """
    lines = iter(enumerate(stream, start=1))
    try:
        line_number, header = next(lines)
    except StopIteration:
        raise ParseError("empty embedding file", 1) from None
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("expected header 'V D'", line_number)
    try:
        _, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("expected integer header 'V D'", line_number) from None
    if dim < 1:
        raise ParseError("embedding dimension must be >= 1", line_number)

    rows = ((n, parts) for n, line in lines if (parts := line.split(maxsplit=1)))
    matrix, found = None, set()  # found: vocabulary indices that have a file row
    while block := list(itertools.islice(rows, max(1, VALUES_PER_BLOCK // dim))):
        words = [parts[0] for _, parts in block]
        texts = [parts[1] if len(parts) == 2 else "" for _, parts in block]
        # loadtxt splits on str.split's whitespace (comments=None: "#" is a value) but skips
        # a row without values.  If it refuses any row, the block goes through _parse_row.
        try:
            values = np.loadtxt(texts, comments=None, ndmin=2) if all(texts) else None
        except ValueError:
            values = None
        if values is None or values.shape != (len(block), dim) or not np.isfinite(values).all():
            fields = ([word, *text.split()] for word, text in zip(words, texts))  # line.split()
            values = np.array([_parse_row(f, dim, n) for f, (n, _) in zip(fields, block)])
        if matrix is None:
            matrix = np.zeros((vocab.word_size, dim), dtype=np.float64)
        last = {vocab.word_to_index[w]: i for i, w in enumerate(words) if w in vocab.word_to_index}
        last.pop(PAD_INDEX, None)
        matrix[list(last)] = values[list(last.values())]
        found.update(last)
    if matrix is None:
        raise ParseError("no embedding rows after the header", 1)
    for word, index in vocab.word_to_index.items():
        if index != PAD_INDEX and index not in found:
            matrix[index] = _hashed_row(word, dim)
    return EmbeddingTable(matrix)


def _parse_row(fields: list[str], dim: int, line_number: int) -> np.ndarray:
    """The values of one ``line.split()`` vector row; the loader's only error rule."""
    if len(fields) != dim + 1:
        raise ParseError(f"expected 1 word + {dim} values, got {len(fields)} fields", line_number)
    try:
        row = np.array(fields[1:], dtype=np.float64)
    except ValueError:
        raise ParseError("non-numeric embedding value", line_number) from None
    if not np.isfinite(row).all():
        raise ParseError("non-finite embedding value", line_number)
    return row


def _hashed_row(word: str, dim: int) -> np.ndarray:
    seed = int.from_bytes(hashlib.sha256(word.encode("utf-8")).digest()[:8], "little")
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5 / dim, 0.5 / dim, size=dim)


def char_cnn_trace(seqs: list[np.ndarray], params: CharCnnParams) -> tuple[np.ndarray, CharTrace]:
    """Char-CNN forward for N tokens, returning their vectors (N, F*W) and the
    trace their backward needs.

    Indices outside the char table map to UNK.  A token's real length runs
    through its last non-PAD char and is at least 1; positions before it
    read PAD (whose embedding row is all zeros), so a token shorter than a
    kernel width yields exactly one window.  Ties pool to the first window.
    """
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    ids = np.concatenate([*seqs, [PAD_INDEX]]).astype(np.int64)  # index -1 reads PAD
    ids = np.where((ids >= 0) & (ids < params.char_table.shape[0]), ids, UNK_INDEX)
    owner = np.repeat(np.arange(len(seqs)), lengths)
    starts = np.cumsum(lengths) - lengths
    nonpad = np.flatnonzero(ids[:-1] != PAD_INDEX)
    real = np.ones(len(seqs), dtype=np.intp)
    np.maximum.at(real, owner[nonpad], nonpad - starts[owner[nonpad]] + 1)
    starts[lengths == 0] = -1  # an empty token reads the sentinel
    per_width = []  # (vectors, window ids, pre-activations, argmax rows)
    for width, filters, bias in zip(params.widths, params.filters, params.biases):
        counts = np.maximum(real - width + 1, 1)
        first = np.cumsum(counts) - counts  # each token's first window row
        token = np.repeat(np.arange(len(seqs)), counts)
        rows = np.arange(token.size)
        # Window row r of token t starts at position r - first[t] + min(real, k) - k,
        # so its windows end at min(real, k) - 1 ... real - 1; before 0 is the sentinel.
        start = rows + (np.minimum(real, width) - width - first)[token]
        pos = start[:, None] + np.arange(width)
        window_ids = ids[np.where(pos >= 0, starts[token, None] + pos, -1)]  # (P, k)
        embedded = params.char_table[window_ids].reshape(token.size, filters[0].size)
        # numpy sends a one-row product to gemv, which rounds otherwise than
        # the gemm a larger call runs: give it two rows and keep the first.
        pre = (embedded if token.size != 1 else embedded[[0, 0]]) @ filters.reshape(
            filters.shape[0], -1
        ).T
        pre = pre[: token.size] + bias
        scores = np.maximum(pre, 0.0)
        top = np.maximum.reduceat(scores, first, axis=0)  # (N, F)
        # The first window reaching the max (a NaN max picks the token's first).
        hit_rows = np.where(scores < top[token], token.size, rows[:, None])
        per_width.append((top, window_ids, pre, np.minimum.reduceat(hit_rows, first, axis=0)))
    outputs, *trace = map(list, zip(*per_width))
    return np.concatenate(outputs, axis=1), CharTrace(*trace)
