"""Fixed-width overlapping windows over sentences and their reconciliation.

A sentence of L tokens becomes chunks of ``window`` slots starting every
``window - overlap`` tokens; the final chunk is right-padded so slot
arithmetic stays uniform.  Chunks never cross sentence boundaries.  A
chunk's word, POS, label and mask arrays are read-only views into arrays
built once per sentence, and its char-id arrays are the sentence's own, so
overlapping chunks share memory.  A chunk's ``sentence_offset`` is its only
position.  All functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from .corpus import LABEL_TO_INDEX, AnnotatedSentence, Vocabulary

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
    stride, 2*stride, ...  The arrays from ``chunk_sentence`` are shared
    with the overlapping neighbours, and all but the char ids are read-only
    views.  Labels are tag indices with -1 on pad slots; unlabeled input
    reads as ``O``.
    """

    word_ids: np.ndarray  # (window,) int64
    pos_ids: np.ndarray  # (window,) int64
    char_ids: tuple[np.ndarray, ...]  # per slot, empty for pad slots
    mask: np.ndarray  # (window,) bool
    sentence_offset: int
    labels: np.ndarray  # (window,) int64, -1 at pads

    @property
    def window(self) -> int:
        return len(self.mask)

    @property
    def real_count(self) -> int:
        return int(self.mask.sum())


def chunk_count(sentence_len: int, config: ChunkConfig) -> int:
    """How many windows a sentence of the given length produces."""
    if sentence_len < 1:
        raise ValueError("sentence_len must be >= 1")
    if sentence_len <= config.window:
        return 1
    return 1 + math.ceil((sentence_len - config.window) / config.stride)


def chunk_sentence(
    sentence: AnnotatedSentence, vocab: Vocabulary, config: ChunkConfig
) -> list[PaddedChunk]:
    if len(sentence) == 0:
        raise ValueError("cannot chunk an empty sentence")
    length = len(sentence)
    n_chunks = chunk_count(length, config)
    padded = (n_chunks - 1) * config.stride + config.window
    word_ids = np.zeros(padded, dtype=np.int64)
    pos_ids = np.zeros(padded, dtype=np.int64)
    label_ids = np.full(padded, -1, dtype=np.int64)
    word_ids[:length] = [vocab.word_index(t.surface) for t in sentence.tokens]
    pos_ids[:length] = [vocab.pos_index(t.pos) for t in sentence.tokens]
    label_ids[:length] = [LABEL_TO_INDEX[t.label] for t in sentence.tokens]
    mask = np.arange(padded) < length
    char_ids = tuple(vocab.char_indices(t.surface) for t in sentence.tokens)
    char_ids += (np.zeros(0, dtype=np.int64),) * (padded - length)
    for arr in (word_ids, pos_ids, label_ids, mask):
        arr.setflags(write=False)  # overlapping chunks share these arrays

    chunks = []
    for start in range(0, n_chunks * config.stride, config.stride):
        view = slice(start, start + config.window)
        chunks.append(
            PaddedChunk(
                word_ids=word_ids[view],
                pos_ids=pos_ids[view],
                char_ids=char_ids[view],
                mask=mask[view],
                sentence_offset=start,
                labels=label_ids[view],
            )
        )
    return chunks


def merge_chunk_predictions(
    chunks: Sequence[tuple[PaddedChunk, Sequence[Tag]]],
) -> list[Tag]:
    """Reconcile per-chunk tags into one sentence-level tag sequence.

    Each chunk's tags (indices or strings) cover at least its real slots.
    Where two chunks cover a position, the tag from the chunk in which the
    position sits farther from its real edge wins (that prediction saw more
    context); exact ties go to the earlier chunk.  Pad slots never contribute.
    """
    if not chunks:
        raise ValueError("no chunks to merge")
    ordered = sorted(chunks, key=lambda pair: pair[0].sentence_offset)
    offsets = [chunk.sentence_offset for chunk, _ in ordered]
    stride = offsets[1] if len(offsets) > 1 else 1
    if stride <= 0 or offsets != list(range(0, stride * len(offsets), stride)):
        raise ValueError(f"chunk offsets must be 0, s, 2s, ... with one s > 0; got {offsets}")
    if any(len(tags) < chunk.real_count for chunk, tags in ordered):
        raise ValueError("tag sequence shorter than the chunk's real slots")

    last_chunk = ordered[-1][0]
    length = last_chunk.sentence_offset + last_chunk.real_count
    merged: list[Tag | None] = [None] * length
    best_distance = [-1] * length
    for chunk, tags in ordered:
        real = chunk.real_count
        for local in range(real):
            pos = chunk.sentence_offset + local
            distance = min(local, real - 1 - local)
            if distance > best_distance[pos]:
                best_distance[pos] = distance
                merged[pos] = tags[local]
    if any(tag is None for tag in merged):
        raise ValueError("chunks do not cover the sentence")
    return merged  # type: ignore[return-value]
