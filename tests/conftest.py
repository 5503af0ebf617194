from __future__ import annotations

import inspect
import io
import textwrap
from pathlib import Path

import numpy as np
import pytest

from clinspan import neural
from clinspan.chunking import ChunkConfig, PaddedChunk, batch_chunks
from clinspan.corpus import AnnotatedCorpus, AnnotatedSentence, RawToken, Vocabulary, parse_corpus
from clinspan.features import EmbeddingTable

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def stats_corpus() -> AnnotatedCorpus:
    with open(DATA_DIR / "stats_corpus.txt", encoding="utf-8") as fh:
        return parse_corpus(fh)


@pytest.fixture(scope="session")
def overfit_corpus() -> AnnotatedCorpus:
    with open(DATA_DIR / "overfit_corpus.txt", encoding="utf-8") as fh:
        return parse_corpus(fh)


@pytest.fixture
def rolled_dense_gradient(monkeypatch):
    """Roll the analytic ``dense.w`` gradient by one position: a gradient bug
    that finite differences must catch."""
    exact = neural.backward_from_cache

    def rolled(model, cache):
        grads = exact(model, cache)
        grads["dense.w"] = np.roll(grads["dense.w"], 1)
        return grads

    monkeypatch.setattr(neural, "backward_from_cache", rolled)


@pytest.fixture
def assigned_char_gradients(monkeypatch):
    """``neural._feature_grads`` with one mutation: slots that share a char
    sequence assign their gradients to it instead of summing them, so only
    the last slot's gradient reaches the char CNN.  Only a batch whose slots
    share char sequences can catch it."""
    summed = "np.add.at(d_chars, cache.char_index, dx[:, d_w + d_p :])"
    source = textwrap.dedent(inspect.getsource(neural._feature_grads))
    assert source.count(summed) == 1, "the char-gradient sum changed: update this mutation"
    mutated: dict = {}
    exec(source.replace(summed, "d_chars[cache.char_index] = dx[:, d_w + d_p :]"),
         vars(neural), mutated)
    monkeypatch.setattr(neural, "_feature_grads", mutated["_feature_grads"])


# The hand-built probe: a tiny random model over PROBE_VOCAB plus one chunk
# of random ids, drawn from one seeded stream.  The GRU-structure tests size
# it to their case; clinspan.neural.build_probe is the gradient check's probe.
PROBE_VOCAB = Vocabulary(
    word_to_index={"<pad>": 0, "<unk>": 1, **{f"w{i}": i + 2 for i in range(6)}},
    pos_to_index={"<pad>": 0, "<unk>": 1, "NOUN": 2, "VERB": 3, "ADJ": 4},
    char_to_index={"<pad>": 0, "<unk>": 1, **{c: i + 2 for i, c in enumerate("abcdef")}},
)


def chunk_probe(
    seed: int = 0,
    hidden: int = 4,
    word_dim: int = 4,
    pos_dim: int = 2,
    char_dim: int = 3,
    char_filters: int = 2,
    char_widths: tuple[int, ...] = (3,),
    window: int = 7,
    real_tokens: int = 5,
    trainable_words: bool = False,
) -> tuple[neural.ModelParameters, PaddedChunk]:
    """Tiny random model plus one chunk of ``real_tokens`` random real slots."""
    rng = np.random.default_rng(seed)
    dims = neural.ModelDims(
        word_dim=word_dim,
        pos_dim=pos_dim,
        char_dim=char_dim,
        char_filters=char_filters,
        char_widths=char_widths,
        hidden=hidden,
        window=window,
        overlap=ChunkConfig.overlap,
    )
    word_matrix = rng.normal(0.0, 0.4, size=(PROBE_VOCAB.word_size, word_dim))
    word_matrix[0] = 0.0
    model = neural.init_parameters(
        dims, PROBE_VOCAB, EmbeddingTable(word_matrix), rng, trainable_words
    )

    word_ids = np.zeros(window, dtype=np.int64)
    pos_ids = np.zeros(window, dtype=np.int64)
    labels = np.full(window, -1, dtype=np.int64)
    mask = np.zeros(window, dtype=bool)
    empty = np.zeros(0, dtype=np.int64)
    chars: list[np.ndarray] = [empty] * window
    for t in range(real_tokens):
        word_ids[t] = rng.integers(1, PROBE_VOCAB.word_size)
        pos_ids[t] = rng.integers(2, PROBE_VOCAB.pos_size)
        length = int(rng.integers(1, 7))
        chars[t] = rng.integers(2, PROBE_VOCAB.char_size, size=length)
        labels[t] = rng.integers(0, 3)
        mask[t] = True
    chunk = PaddedChunk(
        word_ids=word_ids,
        pos_ids=pos_ids,
        char_ids=tuple(chars),
        mask=mask,
        sentence_offset=0,
        labels=labels,
    )
    return model, chunk


def chunk_backward(model, chunk: PaddedChunk) -> dict[str, np.ndarray]:
    """Gradients of one chunk's summed loss against its own labels, for
    every trainable tensor: the backward of its batch of one."""
    return neural.backward_from_cache(model, neural.forward_batch(model, batch_chunks([chunk])))


def make_sentence(
    labeled_words: list[tuple[str, str]],
    doc_id: str = "0",
    sent_index: int = 0,
    pos: str = "NOUN",
) -> AnnotatedSentence:
    """Build a sentence from (surface, label) pairs with a uniform POS tag."""
    tokens = tuple(
        RawToken(surface=w, pos=pos, label=lab) for w, lab in labeled_words
    )
    return AnnotatedSentence(tokens=tokens, doc_id=doc_id, sent_index=sent_index)


def make_corpus(sentences: list[AnnotatedSentence]) -> AnnotatedCorpus:
    docs = {s.doc_id for s in sentences}
    return AnnotatedCorpus(tuple(sentences), note_count=len(docs))


def parse_text(text: str, **kwargs) -> AnnotatedCorpus:
    return parse_corpus(io.StringIO(text), **kwargs)


# Independent oracle for the corpus parser (clinspan.corpus.parse_corpus): the
# per-line loop that splits, checks, normalizes and builds every token line,
# repeated or not.


def parse_by_loop(lines, require_labels: bool = True) -> AnnotatedCorpus:
    from clinspan.corpus import DOC_BOUNDARY, LABELS, ParseError, normalize_token

    sentences = []
    current = []
    doc_ordinal = -1
    note_count = 0
    sent_in_doc = 0

    def flush() -> None:
        nonlocal current, sent_in_doc
        if current:
            sentences.append(AnnotatedSentence(tuple(current), str(max(doc_ordinal, 0)), sent_in_doc))
            sent_in_doc += 1
            current = []

    for line_number, raw_line in enumerate(lines, start=1):
        line = raw_line.rstrip("\r\n").strip()
        if not line:
            flush()
            continue
        if line == DOC_BOUNDARY:
            flush()
            note_count += 1
            doc_ordinal += 1
            sent_in_doc = 0
            continue
        if doc_ordinal < 0:
            doc_ordinal = 0
            note_count = 1
        parts = line.split()
        if len(parts) == 2 and not require_labels:
            surface_raw, pos = parts
            label = "O"
            concept_id = None
        elif len(parts) in (3, 4):
            surface_raw, pos, label = parts[:3]
            concept_id = parts[3] if len(parts) == 4 else None
        else:
            raise ParseError(
                f"expected 3 or 4 whitespace-separated columns, got {len(parts)}", line_number
            )
        if label not in LABELS:
            raise ParseError(
                f"unknown label {label!r} (expected one of {', '.join(LABELS)})", line_number
            )
        current.append(RawToken(normalize_token(surface_raw), pos, label, concept_id))
    flush()
    return AnnotatedCorpus(tuple(sentences), note_count)


# Independent oracles for the span decoder (clinspan.corpus.decode_iob).


def count_spans(labels) -> int:
    """Number of maximal B(I)* runs; orphan I (after O or initial) opens a run."""
    count = 0
    prev = "O"
    for label in labels:
        if label == "B" or (label == "I" and prev == "O"):
            count += 1
        prev = label
    return count


def spans_to_iob(spans, length: int) -> list[str]:
    """Inverse of decode_iob for non-overlapping span sets."""
    tags = ["O"] * length
    for span in sorted(spans, key=lambda s: s.start):
        if span.end > length:
            raise ValueError(f"span [{span.start}, {span.end}) exceeds length {length}")
        if any(t != "O" for t in tags[span.start : span.end]):
            raise ValueError("overlapping spans cannot be encoded")
        tags[span.start] = "B"
        for i in range(span.start + 1, span.end):
            tags[i] = "I"
    return tags


# Independent oracle for the chunk merge (clinspan.chunking.merge_chunk_predictions):
# the per-position loop the table merge replaced.


def merge_by_loop(pairs):
    """Merge one sentence's (chunk, tags) pairs position by position.

    Where two chunks cover a position, the tag from the chunk in which it
    sits farther from its real edge wins; exact ties go to the earlier chunk.
    """
    if not pairs:
        raise ValueError("no chunks to merge")
    ordered = sorted(pairs, key=lambda pair: pair[0].sentence_offset)
    offsets = [chunk.sentence_offset for chunk, _ in ordered]
    stride = offsets[1] if len(offsets) > 1 else 1
    if stride <= 0 or offsets != list(range(0, stride * len(offsets), stride)):
        raise ValueError(f"chunk offsets must be 0, s, 2s, ... with one s > 0; got {offsets}")
    if any(len(tags) < chunk.real_count for chunk, tags in ordered):
        raise ValueError("tag sequence shorter than the chunk's real slots")
    last_chunk = ordered[-1][0]
    length = last_chunk.sentence_offset + last_chunk.real_count
    merged = [None] * length
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
    return merged


def chunk_by_loop(sentence, vocab, config):
    """One sentence's chunks, built token by token with the vocabulary's
    dicts: the construction the chunk table replaced, kept as an oracle."""
    from clinspan.chunking import chunk_count
    from clinspan.corpus import LABEL_TO_INDEX, UNK_INDEX

    length = len(sentence)
    n_chunks = chunk_count(length, config)
    padded = (n_chunks - 1) * config.stride + config.window
    word_ids = np.zeros(padded, dtype=np.int64)
    pos_ids = np.zeros(padded, dtype=np.int64)
    labels = np.full(padded, -1, dtype=np.int64)
    chars = [np.zeros(0, dtype=np.int64)] * padded
    for k, token in enumerate(sentence.tokens):
        word_ids[k] = vocab.word_to_index.get(token.surface, UNK_INDEX)
        pos_ids[k] = vocab.pos_to_index.get(token.pos, UNK_INDEX)
        labels[k] = LABEL_TO_INDEX[token.label]
        chars[k] = np.array(
            [vocab.char_to_index.get(c, UNK_INDEX) for c in token.surface], dtype=np.int64
        )
    mask = np.arange(padded) < length
    return [
        PaddedChunk(word_ids[o : o + config.window], pos_ids[o : o + config.window],
                    tuple(chars[o : o + config.window]), mask[o : o + config.window], o,
                    labels[o : o + config.window])
        for o in range(0, n_chunks * config.stride, config.stride)
    ]


# Independent oracle for the embeddings loader (clinspan.features.load_embeddings):
# the per-row loop that splits, converts and checks every line on its own.
# It accepts a header-only file, which the loader refuses.


def reference_load_embeddings(stream, vocab) -> np.ndarray:
    from clinspan.corpus import PAD_INDEX, ParseError
    from clinspan.features import _hashed_row

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
    return matrix
