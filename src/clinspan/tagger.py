"""End-to-end training, inference, and model persistence.

Training is single-writer over the parameters: batches are featurized and
backpropagated against the current snapshot, then the optimizer step applies.
A loaded model's arrays are read-only, so it is safe for concurrent inference;
``clone()`` it to get a trainable copy.
"""
from __future__ import annotations

import dataclasses
import json
import hashlib
import os
import struct
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import metrics
from .chunking import ChunkConfig, ChunkTable, batch_chunks, chunk_table, merge_chunk_predictions
# Unused here: perfbench's tracer patches this name in this module (perfbench/spans.py).
from .chunking import chunk_sentence  # noqa: F401
from .corpus import (
    LABEL_TO_INDEX,
    LABELS,
    AnnotatedCorpus,
    AnnotatedSentence,
    ConceptSpan,
    Vocabulary,
    decode_iob,
    stratified_split,
)
from .features import EmbeddingTable
from .neural import (
    AdamState,
    ModelDims,
    ModelParameters,
    NumericError,
    adam_step,
    backward_from_cache,
    clip_gradients,
    forward_batch,
    init_parameters,
    make_dropout_plan,
    tensor_shapes,
)

_TAG_STRINGS = np.array(LABELS)  # tag index -> tag string, for whole arrays at once
ARCHIVE_MAGIC = b"CLSPANMD"
ARCHIVE_VERSION = 1
EVAL_BATCH = 256


class ArchiveError(ValueError):
    """Model archive cannot be read."""


class ArchiveVersionError(ArchiveError):
    pass


class ArchiveChecksumError(ArchiveError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Every training hyperparameter; the defaults are the published values.

    Construction validates every field and raises ValueError naming one out
    of range; the model sizes and the window/overlap pair are checked by
    ``ModelDims``, which also rejects a size that is not an int.  A NaN
    learning rate is let through on purpose: it is caught by the numeric
    guards of ``train``.
    """

    epochs: int = 15
    lr: float = 0.001
    clip_norm: float = 5.0
    dropout: float = 0.5
    batch_size: int = 32
    early_stop_patience: int = 3  # <= 0 disables early stopping
    seed: int = 42
    valid_fraction: float = 0.2
    window: int = ChunkConfig.window
    overlap: int = ChunkConfig.overlap
    pos_dim: int = 16
    char_dim: int = 24
    char_filters: int = 32
    char_widths: tuple[int, ...] = (3,)
    hidden: int = 128
    min_count: int = 1
    train_word_embeddings: bool = False

    def __post_init__(self) -> None:
        rules = (
            ("epochs", self.epochs >= 0, ">= 0"),
            ("lr", not self.lr < 0, ">= 0"),
            ("clip_norm", self.clip_norm > 0, "> 0"),
            ("dropout", 0 <= self.dropout < 1, "in [0, 1)"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("valid_fraction", 0 < self.valid_fraction < 1, "in (0, 1)"),
            ("min_count", self.min_count >= 1, ">= 1"),
        )
        for name, ok, requirement in rules:
            if not ok:
                raise ValueError(f"{name} must be {requirement}, got {getattr(self, name)!r}")
        self.model_dims(word_dim=1)  # the word dim comes from the embeddings

    def model_dims(self, word_dim: int) -> ModelDims:
        """Dims of the model this config trains on ``word_dim``-wide word vectors."""
        return ModelDims(
            word_dim=word_dim,
            pos_dim=self.pos_dim,
            char_dim=self.char_dim,
            char_filters=self.char_filters,
            char_widths=tuple(self.char_widths),
            hidden=self.hidden,
            window=self.window,
            overlap=self.overlap,
        )

    @property
    def chunk_config(self) -> ChunkConfig:
        return ChunkConfig(window=self.window, overlap=self.overlap)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    valid_loss: float
    valid_f1: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0


def _evaluate_chunks(
    model: ModelParameters, table: ChunkTable, batch_size: int = EVAL_BATCH
) -> tuple[float, np.ndarray]:
    """One dropout-free forward over the table's chunks, in table order:
    summed loss and the tag indices of every slot (C, window), pads
    included; ties resolve B < I < O."""
    total = 0.0
    chunk_tags = np.empty((len(table), table.window), dtype=np.intp)
    for lo in range(0, len(table), batch_size):
        cache = forward_batch(model, batch_chunks(table.rows(slice(lo, lo + batch_size))))
        total += float(cache.chunk_losses.sum())
        chunk_tags[lo : lo + batch_size] = np.argmax(cache.probs, axis=-1)  # the first max wins
        del cache  # the next batch's forward should not run while this one is alive
    return total, chunk_tags


def _predict(
    model: ModelParameters, table: ChunkTable, batch_size: int = EVAL_BATCH
) -> tuple[float, list[list[str]]]:
    """One dropout-free forward over the table's chunks: summed loss and
    merged tags per sentence."""
    total, chunk_tags = _evaluate_chunks(model, table, batch_size)
    return total, merge_chunk_predictions(table, _TAG_STRINGS[chunk_tags])


def predict_corpus_labels(
    model: ModelParameters,
    vocab: Vocabulary,
    sentences: Sequence[AnnotatedSentence],
    config: ChunkConfig,
    batch_size: int = EVAL_BATCH,
) -> list[list[str]]:
    """Dropout-free predicted tag sequences, one per sentence."""
    return _predict(model, chunk_table(sentences, vocab, config), batch_size)[1]


def annotate_sentence(
    model: ModelParameters,
    vocab: Vocabulary,
    sentence: AnnotatedSentence,
    config: ChunkConfig,
) -> list[ConceptSpan]:
    """Predict concept spans for one sentence (deterministic, dropout-free)."""
    tags = predict_corpus_labels(model, vocab, [sentence], config)[0]
    return [
        ConceptSpan(s.start, s.end, doc_id=sentence.doc_id, sent_index=sentence.sent_index)
        for s in decode_iob(tags)
    ]


@np.errstate(all="ignore")  # divergence is reported by the non-finite loss guards below
def train(
    corpus: AnnotatedCorpus,
    embeddings: EmbeddingTable,
    config: TrainConfig,
    vocab: Vocabulary,
) -> tuple[ModelParameters, TrainHistory]:
    """Train with Adam, gradient clipping, dropout, and early stopping.

    Per epoch: shuffle training chunks, run batched forward/backward/clip/
    Adam, then record the dropout-free summed loss over the training and
    validation chunks plus validation span-F1.  The parameters returned come
    from the epoch with the lowest validation loss (checkpoint restore).
    Raises NumericError when no epoch's validation loss is finite.
    """
    if len(corpus.sentences) == 0:
        raise ValueError("cannot train on an empty corpus")

    chunk_config = config.chunk_config
    if len(corpus.sentences) >= 2:
        split = stratified_split(corpus, config.valid_fraction, config.seed)
        if not split.stratified:
            warnings.warn(
                "corpus has no concept spans; validation split is plain random",
                stacklevel=2,
            )
        train_sents, valid_sents = split.train.sentences, split.valid.sentences
    else:
        train_sents, valid_sents = corpus.sentences, ()

    rng = np.random.default_rng(config.seed)
    dims = config.model_dims(embeddings.dim)
    model = init_parameters(dims, vocab, embeddings, rng, config.train_word_embeddings)

    train_chunks = chunk_table(train_sents, vocab, chunk_config)
    valid_chunks = chunk_table(valid_sents, vocab, chunk_config)
    valid_gold = [[(s.start, s.end) for s in decode_iob(sent.labels())] for sent in valid_sents]
    if (train_chunks.labels[:-1] == LABEL_TO_INDEX["O"]).all():
        warnings.warn("training data contains no concept spans", stacklevel=2)

    state = AdamState.for_model(model)
    history = TrainHistory()
    best_loss = np.inf
    best_model: ModelParameters | None = None
    patience = config.early_stop_patience

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_chunks))
        for lo in range(0, len(order), config.batch_size):
            batch = batch_chunks(train_chunks.rows(order[lo : lo + config.batch_size]))
            plan = make_dropout_plan(
                rng, config.dropout, batch.size, config.window, dims.feature_dim, dims.hidden
            )
            cache = forward_batch(model, batch, plan)
            if not np.isfinite(cache.chunk_losses).all():
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {lo // config.batch_size}"
                )
            grads = backward_from_cache(model, cache)
            clip_gradients(grads, config.clip_norm)
            adam_step(model, grads, state, config.lr)

        train_loss, _ = _evaluate_chunks(model, train_chunks)
        if valid_sents:
            valid_loss, predicted = _predict(model, valid_chunks)
            pred = [[(s.start, s.end) for s in decode_iob(tags)] for tags in predicted]
            _, _, valid_f1 = metrics.prf(metrics.span_match_counts(valid_gold, pred))
        else:
            valid_loss, valid_f1 = train_loss, float("nan")
        history.epochs.append(EpochStats(epoch, train_loss, valid_loss, valid_f1))
        history.stopped_epoch = epoch
        if valid_loss < best_loss:
            best_loss = valid_loss
            history.best_epoch = epoch
            best_model = model.clone()
        if patience > 0 and epoch - history.best_epoch >= patience:
            break

    if history.epochs and best_model is None:
        raise NumericError(
            f"no epoch of {history.stopped_epoch} produced a finite validation loss "
            f"(last: {history.epochs[-1].valid_loss})"
        )
    if best_model is not None:
        model = best_model
    return model, history


# ---------------------------------------------------------------------------
# Persistence
#
# Archive layout (all integers little-endian):
#   magic (8 bytes) | version (u32) | header_len (u64) | header JSON (UTF-8)
#   | tensor payload (concatenated float64 little-endian arrays)
#   | SHA-256 over everything before it (32 bytes)
# The header records dims, the vocabulary, the word-table trainable flag, and
# the tensor manifest (name, shape) in payload order.


def save_model(model: ModelParameters, vocab: Vocabulary, path: str) -> None:
    manifest = [(name, list(arr.shape)) for name, arr in model.tensors.items()]
    header = {
        "dims": dataclasses.asdict(model.dims),
        "word_table_trainable": model.word_table_trainable,
        "vocab": {
            "word_to_index": vocab.word_to_index,
            "pos_to_index": vocab.pos_to_index,
            "char_to_index": vocab.char_to_index,
        },
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    blob = bytearray()
    blob += ARCHIVE_MAGIC
    blob += struct.pack("<I", ARCHIVE_VERSION)
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for arr in model.tensors.values():
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()
    write_atomic(path, bytes(blob))


def write_atomic(path: str, data: bytes | str) -> None:
    """Write ``data`` (text as UTF-8) to ``path`` through a temp file in the
    same directory, so a failed write leaves any previous file intact."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path: str) -> tuple[ModelParameters, Vocabulary]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 + 4 + 8 + 32:
        raise ArchiveError("file too short to be a model archive")
    if blob[:8] != ARCHIVE_MAGIC:
        raise ArchiveError("bad magic: not a model archive")
    (version,) = struct.unpack("<I", blob[8:12])
    if version != ARCHIVE_VERSION:
        raise ArchiveVersionError(
            f"archive version {version} unsupported (expected {ARCHIVE_VERSION})"
        )
    digest = hashlib.sha256(blob[:-32]).digest()
    if digest != blob[-32:]:
        raise ArchiveChecksumError("archive checksum mismatch (truncated or corrupt)")

    (header_len,) = struct.unpack("<Q", blob[12:20])
    header_end = 20 + header_len
    dims, trainable, vocab, manifest = _read_header(blob[20:header_end])
    # Checked before anything is allocated: the header's dims may be absurd.
    expected = dict(tensor_shapes(dims, vocab))
    names = [name for name, _ in manifest]
    if names != list(expected):
        missing = [n for n in expected if n not in names] or ["none"]
        unexpected = [n for n in names if n not in expected] or ["none"]
        raise ArchiveError(
            f"tensor manifest does not match the dims (missing: {', '.join(missing)}; "
            f"unexpected: {', '.join(unexpected)})"
        )
    for name, shape in manifest:
        if shape != expected[name]:
            raise ArchiveError(f"tensor {name} has shape {shape}, expected {expected[name]}")

    tensors: dict[str, np.ndarray] = {}
    cursor = header_end
    payload_end = len(blob) - 32
    for name, shape in manifest:
        nbytes = int(np.prod(shape)) * 8
        if cursor + nbytes > payload_end:
            raise ArchiveError(f"payload truncated while reading tensor {name}")
        tensors[name] = (
            np.frombuffer(blob[cursor : cursor + nbytes], dtype="<f8")
            .reshape(shape)
            .astype(np.float64)
        )
        if not np.isfinite(tensors[name]).all():
            raise ArchiveError(f"tensor {name} contains non-finite values")
        cursor += nbytes
    if cursor != payload_end:
        raise ArchiveError("trailing bytes after tensor payload")

    model = ModelParameters(dims, tensors, trainable)
    for arr in [model.gru_w, model.gru_u, model.gru_b, *model.tensors.values()]:
        arr.setflags(write=False)  # views need their own flag; clone() makes writable copies
    model.char_memo = {}  # safe only because the char tensors are now read-only
    return model, vocab


def _read_header(
    raw: bytes,
) -> tuple[ModelDims, bool, Vocabulary, list[tuple[str, tuple[int, ...]]]]:
    """Dims, word-table flag, vocabulary and tensor manifest of an archive
    header; any malformed or missing entry raises ArchiveError."""
    try:
        header = json.loads(raw.decode("utf-8"))
        dims_raw = dict(header["dims"])
        dims = ModelDims(**{**dims_raw, "char_widths": tuple(dims_raw["char_widths"])})
        trainable = header["word_table_trainable"]
        vocab = Vocabulary(
            word_to_index=dict(header["vocab"]["word_to_index"]),
            pos_to_index=dict(header["vocab"]["pos_to_index"]),
            char_to_index=dict(header["vocab"]["char_to_index"]),
        )
        manifest = [(str(name), tuple(shape)) for name, shape in header["tensors"]]
    except KeyError as exc:
        raise ArchiveError(f"archive header has no {exc} entry") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ArchiveError(f"malformed archive header: {exc}") from None
    for kind in ("word", "pos", "char"):
        indices = getattr(vocab, f"{kind}_to_index").values()
        if set(indices) != set(range(len(indices))) or not all(type(i) is int for i in indices):
            raise ArchiveError(f"archive {kind} vocabulary does not map onto 0..size-1")
    if not isinstance(trainable, bool):
        raise ArchiveError("archive header's word_table_trainable is not a boolean")
    if not all(type(n) is int for shape in (s for _, s in manifest) for n in shape):
        raise ArchiveError("archive tensor shapes are not integer lists")
    return dims, trainable, vocab, manifest


def format_history(history: TrainHistory) -> str:
    lines = ["# epoch train_loss valid_loss valid_f1"]
    for e in history.epochs:
        lines.append(f"{e.epoch} {e.train_loss:.10g} {e.valid_loss:.10g} {e.valid_f1:.10g}")
    lines.append(f"# best_epoch {history.best_epoch} stopped_epoch {history.stopped_epoch}")
    return "\n".join(lines) + "\n"
