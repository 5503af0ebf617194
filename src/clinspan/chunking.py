"""Fixed-width overlapping windows over sentences and their reconciliation.

A sentence of L tokens becomes chunks of ``window`` slots starting every
``window - overlap`` tokens; the final chunk is right-padded so slot
arithmetic stays uniform.  Chunks never cross sentence boundaries.

The sentences of one pass are one ``ChunkTable``: flat per-token word, POS
and label ids, each sentence's first token and length, and every token's
char ids back to back in one int64 buffer with per-token offsets.  A chunk
is a row of the table, the token index of its slot 0 and its count of real
slots; no object is made per token or per chunk.  ``batch_chunks`` lays out
the slots of a batch: for table rows it is one fancy index over the token
arrays, and it also stacks ``PaddedChunk`` objects as they are.
``merge_chunk_predictions`` reconciles the tags of every chunk of the table
at once.  ``chunk_sentence`` gives one sentence's chunks as ``PaddedChunk``
objects, read-only rows of one batch, for code that reads a chunk by slot.
All functions are pure.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .corpus import LABEL_TO_INDEX, PAD_INDEX, UNK_INDEX, AnnotatedSentence, Vocabulary

Tag = TypeVar("Tag")  # a chunk slot's prediction: a tag index or a tag string


@dataclass(frozen=True)
class ChunkConfig:
    window: int = 19
    overlap: int = 2

    def __post_init__(self) -> None:
        if not 0 < self.overlap < self.window:
            raise ValueError(
                f"require 0 < overlap < window, got window={self.window}, overlap={self.overlap}"
            )

    @property
    def stride(self) -> int:
        return self.window - self.overlap


@dataclass
class PaddedChunk:
    """One window over a sentence: index arrays plus padding bookkeeping.

    Real slots form a contiguous prefix; ``sentence_offset`` is the sentence
    position of slot 0, and the chunks of a sentence sit at offsets 0,
    stride, 2*stride, ...  The arrays from ``chunk_sentence`` are read-only
    rows of one batch.  Labels are tag indices with -1 on pad slots;
    unlabeled input reads as ``O``.
    """

    word_ids: np.ndarray  # (window,) int64
    pos_ids: np.ndarray  # (window,) int64
    char_ids: Sequence[np.ndarray]  # per slot, int64, empty for pad slots
    mask: np.ndarray  # (window,) bool
    sentence_offset: int
    labels: np.ndarray  # (window,) int64, -1 at pads

    @property
    def window(self) -> int:
        return len(self.mask)

    @property
    def real_count(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class ChunkTable:
    """The sentences of one pass as flat token arrays, and their chunks as rows.

    Tokens are numbered through the sentences in order; one PAD token closes
    the arrays (word and POS PAD, label -1, no chars), so a pad slot reads
    token ``n_tokens``.  Token k's char ids are the int64 items of
    ``char_buffer`` from ``char_bounds[k]`` up to ``char_bounds[k + 1]``, so a
    char sequence's memo key is a slice of the buffer.  Chunk c covers the
    tokens ``chunk_start[c]`` to ``chunk_start[c] + chunk_real[c] - 1``; the
    chunks run through the sentences in order, each sentence's at offsets 0,
    stride, 2*stride, ...
    """

    window: int
    stride: int
    word_ids: np.ndarray  # (N + 1,) int64
    pos_ids: np.ndarray  # (N + 1,) int64
    labels: np.ndarray  # (N + 1,) int64
    char_buffer: bytes  # every token's char ids, int64, back to back
    char_bounds: np.ndarray  # (N + 2,) int64
    sentence_start: np.ndarray  # (S,) first token of each sentence
    sentence_length: np.ndarray  # (S,)
    sentence_chunks: np.ndarray  # (S,) chunks per sentence
    chunk_start: np.ndarray  # (C,) token at slot 0
    chunk_real: np.ndarray  # (C,) real slots

    def __len__(self) -> int:
        return len(self.chunk_start)

    @property
    def n_tokens(self) -> int:
        return len(self.word_ids) - 1

    def rows(self, index) -> ChunkRows:
        """The chunks at ``index`` (a slice or an index array), in that order."""
        return ChunkRows(self, self.chunk_start[index], self.chunk_real[index])


@dataclass(frozen=True)
class ChunkRows:
    """Some chunks of a table, in order: the input of ``batch_chunks``."""

    table: ChunkTable
    start: np.ndarray  # (B,) token at slot 0
    real: np.ndarray  # (B,) real slots

    def __len__(self) -> int:
        return len(self.start)


@dataclass
class ChunkBatch:
    word_ids: np.ndarray  # (B, T) int64
    pos_ids: np.ndarray  # (B, T) int64
    mask: np.ndarray  # (B, T) float64, 1.0 at real slots
    labels: np.ndarray  # (B, T) int64, -1 at pads
    char_buffer: bytes  # int64 char ids back to back: a table's buffer, or the stacked chunks'
    char_start: np.ndarray  # (B, T) each slot's first char in the buffer, in int64 items
    char_stop: np.ndarray  # (B, T) one past its last; pads are empty

    @property
    def size(self) -> int:
        return self.word_ids.shape[0]

    @property
    def chars(self) -> list[list[np.ndarray]]:
        """Per chunk, its slots' char-id arrays: views of the buffer."""
        flat = np.frombuffer(self.char_buffer, dtype=np.int64)
        return [
            [flat[a:b] for a, b in zip(start, stop)]
            for start, stop in zip(self.char_start.tolist(), self.char_stop.tolist())
        ]


def _chunks_per_sentence(lengths: int | np.ndarray, config: ChunkConfig) -> np.ndarray:
    """ceil((L - overlap) / stride), at least 1: the chunks of a sentence of
    L >= 1 tokens, for an int or elementwise for an int array."""
    return np.maximum(1, -((config.overlap - lengths) // config.stride))


def chunk_count(sentence_len: int, config: ChunkConfig) -> int:
    """How many windows a sentence of the given length produces."""
    if sentence_len < 1:
        raise ValueError("sentence_len must be >= 1")
    return int(_chunks_per_sentence(sentence_len, config))


def chunk_table(
    sentences: Sequence[AnnotatedSentence], vocab: Vocabulary, config: ChunkConfig
) -> ChunkTable:
    """The table of the sentences' chunks.  The char ids come from one
    ``vocab.char_indices`` call over the joined surfaces."""
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    if not lengths.all():
        raise ValueError("cannot chunk an empty sentence")
    tokens = [t for s in sentences for t in s.tokens]
    surfaces = [t.surface for t in tokens]
    words, pos = vocab.word_to_index.get, vocab.pos_to_index.get
    window, stride = config.window, config.stride
    # Array methods, not np.cumsum or np.repeat: they skip a layer of Python
    # dispatch, which shows in a one-sentence table.
    bounds = np.array([0, *map(len, surfaces), 0], dtype=np.int64).cumsum()  # the PAD token has no chars
    ends = lengths.cumsum()
    starts = ends - lengths
    counts = _chunks_per_sentence(lengths, config)
    # Chunk c, the j-th of sentence s, starts at starts[s] + j * stride.
    first = counts.cumsum() - counts
    chunk_start = (starts - first * stride).repeat(counts) + np.arange(counts.sum()) * stride
    return ChunkTable(
        window=window,
        stride=stride,
        word_ids=np.array([words(x, UNK_INDEX) for x in surfaces] + [PAD_INDEX], dtype=np.int64),
        pos_ids=np.array([pos(t.pos, UNK_INDEX) for t in tokens] + [PAD_INDEX], dtype=np.int64),
        labels=np.array([LABEL_TO_INDEX[t.label] for t in tokens] + [-1], dtype=np.int64),
        char_buffer=vocab.char_indices("".join(surfaces)).tobytes(),
        char_bounds=bounds,
        sentence_start=starts,
        sentence_length=lengths,
        sentence_chunks=counts,
        chunk_start=chunk_start,
        chunk_real=np.minimum(window, ends.repeat(counts) - chunk_start),
    )


def batch_chunks(chunks: ChunkRows | Sequence[PaddedChunk]) -> ChunkBatch:
    """The batch of some table rows or chunk objects, in order.

    Slot t of a table row reads token ``start + t``, and pad slots read the
    table's PAD token: one gather of each token array.  Chunk objects are
    stacked as they are, with the char ids of their real slots copied into
    one buffer.  Raises ValueError for no chunks or for chunk objects of
    different windows; ``forward_batch`` rejects real slots that are not a
    prefix of the window.
    """
    if not len(chunks):
        raise ValueError("empty chunk batch")
    if isinstance(chunks, ChunkRows):
        table = chunks.table
        slots = np.arange(table.window)
        mask = slots < chunks.real[:, None]
        token = np.where(mask, chunks.start[:, None] + slots, table.n_tokens)
        return ChunkBatch(
            word_ids=table.word_ids[token],
            pos_ids=table.pos_ids[token],
            mask=mask.astype(np.float64),
            labels=table.labels[token],
            char_buffer=table.char_buffer,
            char_start=table.char_bounds[token],
            char_stop=table.char_bounds[token + 1],
        )
    if any(c.window != chunks[0].window for c in chunks):
        raise ValueError("all chunks in a batch must share the window size")
    mask = np.stack([c.mask for c in chunks]).astype(bool)
    real = np.argwhere(mask).tolist()  # (chunk, slot) of each real slot, in row-major order
    seqs = [np.asarray(chunks[i].char_ids[t], dtype=np.int64) for i, t in real]
    lengths = np.zeros(mask.shape, dtype=np.int64)
    lengths[mask] = [len(s) for s in seqs]
    stop = lengths.cumsum().reshape(mask.shape)
    return ChunkBatch(
        word_ids=np.stack([c.word_ids for c in chunks]),
        pos_ids=np.stack([c.pos_ids for c in chunks]),
        mask=mask.astype(np.float64),
        labels=np.stack([c.labels for c in chunks]),
        char_buffer=b"".join(s.tobytes() for s in seqs),
        char_start=stop - lengths,
        char_stop=stop,
    )


def chunk_sentence(
    sentence: AnnotatedSentence, vocab: Vocabulary, config: ChunkConfig
) -> list[PaddedChunk]:
    """One sentence's chunks as objects: read-only rows of the batch of its
    table's rows, whose char ids are views of the table's char buffer."""
    table = chunk_table([sentence], vocab, config)
    batch = batch_chunks(table.rows(slice(None)))
    mask = batch.mask > 0
    for arr in (batch.word_ids, batch.pos_ids, batch.labels, mask):
        arr.setflags(write=False)  # the chunks share these arrays
    return [
        PaddedChunk(word_ids=w, pos_ids=p, char_ids=c, mask=m, sentence_offset=o, labels=y)
        for w, p, c, m, o, y in zip(batch.word_ids, batch.pos_ids, batch.chars, mask,
                                    table.chunk_start.tolist(), batch.labels)
    ]


def merge_chunk_predictions(table: ChunkTable, chunk_tags: np.ndarray) -> list[list[Tag]]:
    """Reconcile per-chunk tags into one tag sequence per sentence of the table.

    ``chunk_tags`` holds one row of ``window`` tags (indices or strings) per
    chunk of the table, in table order; pad slots never contribute.  Where
    chunks overlap, the tag from the chunk in which the position sits
    farthest from its real edge wins (that prediction saw the most context):
    chunk c with offset o and r real slots scores position p as
    ``min(p - o, r - 1 - (p - o))``.  Exact ties go to the earlier chunk.
    Integer arithmetic over every token at once, for any ``0 < overlap <
    window``.  Raises ValueError unless there is one row per chunk.
    """
    tags = np.asarray(chunk_tags)
    if tags.shape != (len(table), table.window):
        raise ValueError(
            f"chunk tags of shape {tags.shape} do not cover the table's "
            f"{len(table)} chunks of {table.window} slots"
        )
    window, start, real = table.window, table.chunk_start, table.chunk_real
    token = np.arange(table.n_tokens)
    # The last chunk starting at or before a token covers it (a sentence's
    # first chunk starts at its first token).  An earlier chunk scores below
    # 0 where it does not cover the token, so it never wins there.
    last = chunk = start.searchsorted(token, side="right") - 1
    local = token - start[last]
    best = np.minimum(local, real[last] - 1 - local)
    for back in range(1, min(-(-window // table.stride), int(table.sentence_chunks.max(initial=0)))):
        earlier_chunk = np.maximum(last - back, 0)  # before chunk 0, chunk 0 again: no change
        local_back = token - start[earlier_chunk]
        score = np.minimum(local_back, real[earlier_chunk] - 1 - local_back)
        earlier = score >= best  # the earlier chunk wins a tie
        best = np.where(earlier, score, best)
        chunk = np.where(earlier, earlier_chunk, chunk)
        local = np.where(earlier, local_back, local)
    merged = tags.reshape(-1)[chunk * window + local].tolist()
    starts, lengths = table.sentence_start.tolist(), table.sentence_length.tolist()
    return [merged[lo : lo + n] for lo, n in zip(starts, lengths)]
