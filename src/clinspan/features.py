"""Per-token input features: word vector + POS embedding + char-CNN vector.

Each real token t gets the concatenation of its word-table row, its POS-table
row, and a character-CNN vector (one max-over-time pooled ReLU convolution
per filter per kernel width); the neural module builds these rows for the
real slots of a batch.  Row 0 (PAD) of every table is all zeros and stays
frozen through training.

Tables are read-only during featurization; the single writer during training
is the optimizer step (see the neural module).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .corpus import PAD_INDEX, UNK_INDEX, ParseError, Vocabulary


@dataclass
class EmbeddingTable:
    """Word-vector table aligned to the word vocabulary; static by default."""

    matrix: np.ndarray  # (V, D_w) float64
    trainable: bool = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass
class PosEmbedding:
    """Low-dimensional trainable POS-tag table."""

    matrix: np.ndarray  # (P, D_p) float64

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
    """Forward-pass state of one token's char CNN, kept for backprop."""

    window_ids: list[np.ndarray]  # per width: (P, k) char indices
    pre: list[np.ndarray]  # per width: (P, F) pre-ReLU activations
    best: list[np.ndarray]  # per width: (F,) argmax window per filter


def load_embeddings(stream, vocab: Vocabulary) -> EmbeddingTable:
    """Load word2vec-style text embeddings aligned to the vocabulary.

    Header line ``V D`` then lines ``word v1 ... vD``; a value that is not a
    finite float (``nan``, ``inf``, ``1e309``) is a ParseError.  Vocabulary
    words missing from the file get a reproducible pseudo-random row drawn
    uniform in [-0.5/D, 0.5/D] from a hash of the word, so every load is
    identical.
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

    file_rows: dict[str, np.ndarray] = {}
    for line_number, line in lines:
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != dim + 1:
            raise ParseError(
                f"expected 1 word + {dim} values, got {len(fields)} fields",
                line_number,
            )
        try:
            row = np.array(fields[1:], dtype=np.float64)
        except ValueError:
            raise ParseError("non-numeric embedding value", line_number) from None
        if not np.isfinite(row).all():
            raise ParseError("non-finite embedding value", line_number)
        file_rows[fields[0]] = row

    matrix = np.zeros((vocab.word_size, dim), dtype=np.float64)
    for word, index in vocab.word_to_index.items():
        if index == PAD_INDEX:
            continue
        row = file_rows.get(word)
        matrix[index] = row if row is not None else _hashed_row(word, dim)
    return EmbeddingTable(matrix=matrix, trainable=False)


def _hashed_row(word: str, dim: int) -> np.ndarray:
    seed = int.from_bytes(hashlib.sha256(word.encode("utf-8")).digest()[:8], "little")
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5 / dim, 0.5 / dim, size=dim)


def char_cnn_trace(chars: np.ndarray, params: CharCnnParams) -> tuple[np.ndarray, CharTrace]:
    """Char-CNN forward for one token, returning the fixed-size vector and the
    trace its backward needs.

    Indices outside the char table map to UNK.  Tokens shorter than a kernel
    width are left-padded with the PAD character (whose embedding row is all
    zeros) to yield exactly one window.  Pooling covers only windows over the
    real sequence, so trailing PAD characters never change the output.
    """
    n_chars = params.char_table.shape[0]
    chars = np.where((chars >= 0) & (chars < n_chars), chars, UNK_INDEX)
    # Trailing PAD characters are padding by definition; dropping them keeps
    # pooling over real positions only.
    real = np.nonzero(chars != PAD_INDEX)[0]
    chars = chars[: real[-1] + 1] if real.size else chars[:1]
    trace = CharTrace(window_ids=[], pre=[], best=[])
    outputs = []
    for width, filters, bias in zip(params.widths, params.filters, params.biases):
        seq = chars
        if len(seq) < width:
            seq = np.concatenate(
                [np.full(width - len(seq), PAD_INDEX, dtype=np.int64), seq]
            )
        n_windows = len(seq) - width + 1
        window_ids = seq[np.arange(n_windows)[:, None] + np.arange(width)]  # (P, k)
        embedded = params.char_table[window_ids].reshape(n_windows, -1)
        pre = embedded @ filters.reshape(filters.shape[0], -1).T + bias
        scores = np.maximum(pre, 0.0)
        best = np.argmax(scores, axis=0)
        outputs.append(scores[best, np.arange(scores.shape[1])])
        trace.window_ids.append(window_ids)
        trace.pre.append(pre)
        trace.best.append(best)
    return np.concatenate(outputs), trace
