"""Fixed-width overlapping windows over sentences and their reconciliation.

A sentence of L tokens becomes chunks of ``window`` slots starting every
``window - overlap`` tokens; the final chunk is right-padded so slot
arithmetic stays uniform.  Chunks never cross sentence boundaries.

The sentences of one pass are one ``ChunkTable``: flat per-token word, POS
and label ids, each sentence's first token and length, and every token's
char ids back to back in one int64 buffer with per-token offsets.  A chunk
is a row of the table, the token index of its slot 0 and its count of real
slots; no object is made per token or per chunk.  A batch of rows is one
fancy index over the token arrays (``neural.batch_chunks``), and
``merge_chunk_predictions`` reconciles the tags of every chunk of the table
at once.  ``chunk_sentence`` gives one sentence's chunks as ``PaddedChunk``
objects, read-only views of arrays gathered from its table, for code that
reads a chunk by slot.  All functions are pure.
"""
from __future__ import annotations

import math
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
    views shared with the overlapping neighbours.  Labels are tag indices
    with -1 on pad slots; unlabeled input reads as ``O``.
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


class CharSlots(Sequence):
    """Per-slot char ids of some chunk slots: slot t reads
    ``flat[start[t]:stop[t]]``, a view, made when it is read."""

    __slots__ = ("flat", "start", "stop")

    def __init__(self, flat: np.ndarray, start: list[int], stop: list[int]) -> None:
        self.flat, self.start, self.stop = flat, start, stop

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[k] for k in range(len(self))[t]]
        return self.flat[self.start[t] : self.stop[t]]


@dataclass(frozen=True)
class ChunkTable:
    """The sentences of one pass as flat token arrays, and their chunks as rows.

    Tokens are numbered through the sentences in order; one PAD token closes
    the arrays (word and POS PAD, label -1, no chars), so a pad slot reads
    token ``n_tokens``.  Token k's char ids are ``chars[char_bounds[k]:
    char_bounds[k + 1]]``, where ``chars`` views ``char_buffer`` as int64, so
    a char sequence's memo key is a slice of the buffer.  Chunk c covers the
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

    @property
    def chars(self) -> np.ndarray:
        return np.frombuffer(self.char_buffer, dtype=np.int64)

    def rows(self, index) -> ChunkRows:
        """The chunks at ``index`` (a slice or an index array), in that order."""
        return ChunkRows(self, self.chunk_start[index], self.chunk_real[index])


@dataclass(frozen=True)
class ChunkRows:
    """Some chunks of a table, in order: the input of ``neural.batch_chunks``."""

    table: ChunkTable
    start: np.ndarray  # (B,) token at slot 0
    real: np.ndarray  # (B,) real slots

    def __len__(self) -> int:
        return len(self.start)


def chunk_count(sentence_len: int, config: ChunkConfig) -> int:
    """How many windows a sentence of the given length produces."""
    if sentence_len < 1:
        raise ValueError("sentence_len must be >= 1")
    if sentence_len <= config.window:
        return 1
    return 1 + math.ceil((sentence_len - config.window) / config.stride)


def _table(
    word_ids: np.ndarray,
    pos_ids: np.ndarray,
    labels: np.ndarray,
    chars: np.ndarray,
    char_counts: list[int],
    lengths: np.ndarray,
    window: int,
    stride: int,
) -> ChunkTable:
    """A table over the given tokens (the PAD token included) and sentence
    lengths; ``char_counts`` has one entry per token before the PAD one."""
    # Array methods, not np.cumsum or np.repeat: they skip a layer of Python
    # dispatch, which shows in a one-sentence table.
    bounds = np.array([0, *char_counts, 0], dtype=np.int64).cumsum()  # the PAD token has no chars
    ends = lengths.cumsum()
    starts = ends - lengths
    counts = np.maximum(1, -((window - stride - lengths) // stride))  # ceil((L - overlap) / stride)
    # Chunk c, the j-th of sentence s, starts at starts[s] + j * stride.
    first = counts.cumsum() - counts
    chunk_start = (starts - first * stride).repeat(counts) + np.arange(counts.sum()) * stride
    chunk_real = np.minimum(window, ends.repeat(counts) - chunk_start)
    return ChunkTable(
        window=window,
        stride=stride,
        word_ids=word_ids,
        pos_ids=pos_ids,
        labels=labels,
        char_buffer=chars.astype(np.int64, copy=False).tobytes(),
        char_bounds=bounds,
        sentence_start=starts,
        sentence_length=lengths,
        sentence_chunks=counts,
        chunk_start=chunk_start,
        chunk_real=chunk_real,
    )


def chunk_table(
    sentences: Sequence[AnnotatedSentence], vocab: Vocabulary, config: ChunkConfig
) -> ChunkTable:
    """The table of the sentences' chunks.  The char ids come from one
    ``vocab.char_indices`` call over the joined surfaces."""
    lengths = [len(s) for s in sentences]
    if not all(lengths):
        raise ValueError("cannot chunk an empty sentence")
    tokens = [t for s in sentences for t in s.tokens]
    surfaces = [t.surface for t in tokens]
    words, pos = vocab.word_to_index.get, vocab.pos_to_index.get
    return _table(
        np.array([words(x, UNK_INDEX) for x in surfaces] + [PAD_INDEX], dtype=np.int64),
        np.array([pos(t.pos, UNK_INDEX) for t in tokens] + [PAD_INDEX], dtype=np.int64),
        np.array([LABEL_TO_INDEX[t.label] for t in tokens] + [-1], dtype=np.int64),
        vocab.char_indices("".join(surfaces)),
        [len(x) for x in surfaces],
        np.array(lengths, dtype=np.int64),
        config.window,
        config.stride,
    )


def chunk_rows(chunks: Sequence[PaddedChunk]) -> ChunkRows:
    """Chunk objects as the rows of a table of their own, in order: each
    chunk's real slots are one sentence.  Raises ValueError for no chunks,
    mixed windows, or real slots that are not a prefix of the window."""
    if not chunks:
        raise ValueError("empty chunk batch")
    window = chunks[0].window
    if any(c.window != window for c in chunks):
        raise ValueError("all chunks in a batch must share the window size")
    mask = np.stack([c.mask for c in chunks]).astype(bool)
    real = mask.sum(axis=1)
    if not (mask == (np.arange(window) < real[:, None])).all():
        raise ValueError("the real slots of every chunk must be a prefix of its window")
    seqs = [np.asarray(c.char_ids[t], dtype=np.int64) for c in chunks for t in range(c.real_count)]
    table = _table(
        *(np.append(np.stack([getattr(c, name) for c in chunks])[mask], fill)
          for name, fill in (("word_ids", PAD_INDEX), ("pos_ids", PAD_INDEX), ("labels", -1))),
        np.concatenate([*seqs, np.zeros(0, dtype=np.int64)]),
        [len(s) for s in seqs],
        real,
        window,
        window,
    )
    return table.rows(slice(None))


def chunk_sentence(
    sentence: AnnotatedSentence, vocab: Vocabulary, config: ChunkConfig
) -> list[PaddedChunk]:
    """One sentence's chunks as objects.  Their arrays are read-only views of
    one padded array per field, gathered from the sentence's table, so
    overlapping chunks share memory; their char ids are views of the table's
    char buffer."""
    table = chunk_table([sentence], vocab, config)
    length = len(sentence)
    slots = np.arange((len(table) - 1) * config.stride + config.window)
    mask = slots < length
    token = np.where(mask, slots, length)  # pads read the PAD token
    word_ids, pos_ids, labels = table.word_ids[token], table.pos_ids[token], table.labels[token]
    start, stop = table.char_bounds[token].tolist(), table.char_bounds[token + 1].tolist()
    for arr in (word_ids, pos_ids, labels, mask):
        arr.setflags(write=False)  # overlapping chunks share these arrays
    chars = table.chars
    offsets = range(0, len(table) * config.stride, config.stride)
    views = [slice(o, o + config.window) for o in offsets]
    return [
        PaddedChunk(
            word_ids=word_ids[v],
            pos_ids=pos_ids[v],
            char_ids=CharSlots(chars, start[v], stop[v]),
            mask=mask[v],
            sentence_offset=v.start,
            labels=labels[v],
        )
        for v in views
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
