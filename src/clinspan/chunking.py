"""Fixed-width overlapping windows over sentences and their reconciliation.

A sentence of L tokens becomes chunks of ``window`` slots starting every
``window - overlap`` tokens; the final chunk is right-padded so slot
arithmetic stays uniform.  Chunks never cross sentence boundaries.  All
functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import LABEL_TO_INDEX, AnnotatedSentence, Vocabulary


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
    position of slot 0 and always equals ``chunk_ordinal * stride``.  Labels
    are tag indices with -1 on pad slots (None for unlabeled input).
    """

    word_ids: np.ndarray  # (window,) int64
    pos_ids: np.ndarray  # (window,) int64
    char_ids: tuple[np.ndarray, ...]  # per slot, empty for pad slots
    mask: np.ndarray  # (window,) bool
    sentence_offset: int
    chunk_ordinal: int
    doc_id: str = ""
    sent_index: int = 0
    labels: np.ndarray | None = None  # (window,) int64, -1 at pads

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
    word_ids = np.array([vocab.word_index(t.surface) for t in sentence.tokens], dtype=np.int64)
    pos_ids = np.array([vocab.pos_index(t.pos) for t in sentence.tokens], dtype=np.int64)
    char_ids = [vocab.char_indices(t.surface) for t in sentence.tokens]
    label_ids = np.array([LABEL_TO_INDEX[t.label] for t in sentence.tokens], dtype=np.int64)

    chunks = []
    for ordinal in range(chunk_count(length, config)):
        start = ordinal * config.stride
        real = min(config.window, length - start)
        w = np.zeros(config.window, dtype=np.int64)
        p = np.zeros(config.window, dtype=np.int64)
        y = np.full(config.window, -1, dtype=np.int64)
        w[:real] = word_ids[start : start + real]
        p[:real] = pos_ids[start : start + real]
        y[:real] = label_ids[start : start + real]
        mask = np.zeros(config.window, dtype=bool)
        mask[:real] = True
        empty = np.zeros(0, dtype=np.int64)
        chars = tuple(
            char_ids[start + i] if i < real else empty for i in range(config.window)
        )
        chunks.append(
            PaddedChunk(
                word_ids=w,
                pos_ids=p,
                char_ids=chars,
                mask=mask,
                sentence_offset=start,
                chunk_ordinal=ordinal,
                doc_id=sentence.doc_id,
                sent_index=sentence.sent_index,
                labels=y,
            )
        )
    return chunks


def merge_chunk_predictions(
    chunks: Sequence[tuple[PaddedChunk, Sequence[str]]],
) -> list[str]:
    """Reconcile per-chunk tags into one sentence-level tag sequence.

    Where two chunks cover a position, the tag from the chunk in which the
    position sits farther from its real edge wins (that prediction saw more
    context); exact ties go to the earlier chunk.  Pad slots never contribute.
    """
    if not chunks:
        raise ValueError("no chunks to merge")
    ordered = sorted(chunks, key=lambda pair: pair[0].chunk_ordinal)
    stride = None
    for i, (chunk, tags) in enumerate(ordered):
        if chunk.chunk_ordinal != i:
            raise ValueError(
                f"chunk ordinals must form 0..n-1 without gaps; missing ordinal {i}"
            )
        if len(tags) < chunk.real_count:
            raise ValueError("tag sequence shorter than the chunk's real slots")
        if i == 1:
            stride = ordered[1][0].sentence_offset - ordered[0][0].sentence_offset
        if i >= 1 and chunk.sentence_offset != i * stride:
            raise ValueError("chunk offsets are inconsistent with their ordinals")

    last_chunk = ordered[-1][0]
    length = last_chunk.sentence_offset + last_chunk.real_count
    merged: list[str | None] = [None] * length
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
