"""Numeric core: bidirectional GRU tagger with hand-derived backpropagation.

Forward path per chunk: feature rows -> (input dropout) -> forward and
backward GRU passes -> concatenated hidden states -> dense softmax over the
three tags -> cross-entropy summed over real tokens.  The backward pass
produces exact reverse-mode gradients for every trainable tensor, verified
against central finite differences.

GRU cell convention (fixed throughout):

    z = sigmoid(W_z x + U_z h_prev + b_z)
    r = sigmoid(W_r x + U_r h_prev + b_r)
    h~ = tanh(W_h x + U_h (r * h_prev) + b_h)
    h  = (1 - z) * h_prev + z * h~

Recurrent dropout is variational: one mask per chunk per direction, applied
to h_prev where it enters the gates (the state carry itself is undropped).

Compute layout.  A batch comes from ``chunking.batch_chunks`` (imported
here under the same name): (B, T) word, POS and label ids and mask, plus
each slot's char range in one char buffer.  Each real slot gathers its char
vector through an index into the batch's distinct char-id sequences, found
by the bytes of those ranges (slices of the buffer, which are also the memo
keys); the forward runs the char CNN as one call over those the memo does
not serve, and keeps no trace.  Backward recomputes one call over all of
them and sums the slots' gradients per sequence first, which is exact
because the char CNN's backward is linear in its output gradient.  Only
real slots are featurized: the real slots of a chunk must be a prefix of
its window, and feature rows hold them in row-major order.

Only a model from ``load_model`` has a ``char_memo`` (char-id bytes -> the
char-CNN vector's float64 bytes).  It is filled lazily with the sequences
of in-vocabulary slots (word id > UNK), at most one per word-table row; OOV
sequences are never stored.  If a char tensor is writeable at the start of
a forward, the memo is dropped for good, so it never serves a stale row.
Concurrent forwards may share it: inserts are idempotent and a dict store
is atomic under the GIL.

The GRU weights are stored once, in the layout the loop computes with:
W (2, 3H, D), U (2, 3H, H) and b (2, 3H), direction first (forward,
backward), gate blocks z | r | h.  The per-gate tensors (``gru_fwd.w_z``
... ``gru_bwd.b_h``, the archive layout) are views into these arrays.  Both
directions run in one packed time loop: the chunks are sorted by real
length, longest first, so the chunks still running at step k are a prefix
of that order, and step k reads position k for the forward direction and
position L - 1 - k for the backward one.  Both directions therefore have
the same running rows at every step, the loop runs max(L) steps, and no pad
slot is computed.  One loop body takes a slice of directions, ``0:2`` or
one of ``0:1`` and ``1:2``, and keeps the (k, n, ...) shapes either way: a
(k, R, D) x (k, D, 3H) GEMM projects the R real slots before the time
steps, and each step does one (k, n, H) GEMM for z | r, one for the
candidate, and one set of elementwise ops, reading the previous state from
the prior step's packed rows.  The two directions share no data until the
concat, so a batch of at least ``PARALLEL_ROWS`` real slots on a process
allowed two or more CPUs runs direction 1 on the worker of a one-thread
``ThreadPoolExecutor`` and direction 0 in the caller (numpy releases the
GIL inside BLAS and ufunc loops), then waits for the worker's result;
smaller batches, and every batch on one CPU, run the stacked ``0:2`` loop.
Each direction makes the same calls on the same slices either way, so the
outputs are the same bytes.  The backward's time loop runs both directions
in the caller: it carries only dh and keeps every packed row's z | r | h
pre-activation deltas, so the weight, bias and input gradients are one GEMM
each after the loop (the fused-gate layout of Appleyard, Kocisky & Blunsom
2016, arXiv:1604.01946, who also run the directions of a bidirectional RNN
concurrently).  Under the forward's rule (``_helper_pays``) the weight and
bias GEMMs then run on a helper while the caller computes the input
gradient, the table scatters and the char-CNN recompute and backward; the
gradient dict keeps its key order, because ``clip_gradients`` sums the
norms in that order.

Tensor inventory: ``tensor_shapes`` gives each tensor's name and shape in
archive payload order.  A model is that map of named tensors
(``ModelParameters.tensors``) plus its dims and the word-table flag; init,
clone and load all build it from such a map, and the typed attributes the
forward reads are views derived from it (``named_tensors`` is its items).
``init_parameters`` draws the POS table, the char table, the filters by
width, ``dense.w``, then the GRU weights direction by direction; biases draw
nothing.  A different order would give every seed a different model.

Phase separation contract: forward/backward over distinct chunks may run
concurrently against a frozen parameter snapshot; the optimizer step is the
single writer and must not interleave with reads.  One forward, and one
backward, may each use one helper thread of its own, joined before it
returns; the helper runs in a copy of the caller's context (so the caller's
``np.errstate`` holds there), its exception is re-raised in the caller, and
it calls only numpy.  BLAS itself is left at whatever thread count the
process set.
"""
from __future__ import annotations

import contextvars
import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .chunking import ChunkBatch, ChunkConfig, PaddedChunk, batch_chunks
from .corpus import UNK_INDEX, Vocabulary
from .features import (
    CharCnnParams,
    CharTrace,
    EmbeddingTable,
    char_cnn_trace,
)

PROB_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

GRADCHECK_STEP = 1e-5
GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_COORDS = 20  # coordinates sampled per trainable tensor

# Tables whose row 0 (PAD) stays exactly zero through training.
FROZEN_ROW_TABLES = ("word_table", "pos_table", "char_table")

# A forward or backward over at least this many real slots splits its GRU
# work over two threads (see the module docstring); below it the thread
# costs more than it saves.
PARALLEL_ROWS = 384
# CPUs this process may run on, read once.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class NumericError(RuntimeError):
    """Non-finite value encountered where the computation cannot continue."""


@dataclass
class GruDirectionParams:
    w_z: np.ndarray  # (H, D)
    w_r: np.ndarray
    w_h: np.ndarray
    u_z: np.ndarray  # (H, H)
    u_r: np.ndarray
    u_h: np.ndarray
    b_z: np.ndarray  # (H,)
    b_r: np.ndarray
    b_h: np.ndarray

    GATE_NAMES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")


@dataclass
class DenseParams:
    w: np.ndarray  # (3, 2H)
    b: np.ndarray  # (3,)


@dataclass(frozen=True)
class ModelDims:
    word_dim: int
    pos_dim: int
    char_dim: int
    char_filters: int
    char_widths: tuple[int, ...]
    hidden: int
    window: int
    overlap: int

    def __post_init__(self) -> None:
        """Raises ValueError naming a size below 1, repeated or non-positive
        char widths, or a window/overlap pair ChunkConfig rejects."""
        for name in ("word_dim", "pos_dim", "char_dim", "char_filters", "hidden"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        widths = self.char_widths
        if not (min(widths, default=0) >= 1 and len(set(widths)) == len(widths)):
            raise ValueError(f"char_widths must be distinct widths >= 1, got {widths!r}")
        ChunkConfig(window=self.window, overlap=self.overlap)

    @property
    def char_output_dim(self) -> int:
        return self.char_filters * len(self.char_widths)

    @property
    def feature_dim(self) -> int:
        return self.word_dim + self.pos_dim + self.char_output_dim


@dataclass
class ModelParameters:
    """Every tensor of the tagger, held once in ``tensors``.

    ``tensors`` maps each archive name to its array, in ``tensor_shapes``
    order.  Construction stacks the per-gate GRU entries into ``gru_w``
    (2, 3H, D), ``gru_u`` (2, 3H, H) and ``gru_b`` (2, 3H), direction first,
    gate blocks z | r | h, and rebinds those entries to views into the
    stacked arrays; every other array is adopted as is.  The typed
    attributes (``word_table`` ... ``dense``) are views of the same arrays,
    so a write through any name reaches the one copy the forward reads.
    """

    dims: ModelDims
    tensors: dict[str, np.ndarray]
    word_table_trainable: bool
    word_table: EmbeddingTable = field(init=False, repr=False, compare=False)
    pos_table: EmbeddingTable = field(init=False, repr=False, compare=False)
    char_params: CharCnnParams = field(init=False, repr=False, compare=False)
    gru_fwd: GruDirectionParams = field(init=False, repr=False, compare=False)
    gru_bwd: GruDirectionParams = field(init=False, repr=False, compare=False)
    dense: DenseParams = field(init=False, repr=False, compare=False)
    gru_w: np.ndarray = field(init=False, repr=False, compare=False)
    gru_u: np.ndarray = field(init=False, repr=False, compare=False)
    gru_b: np.ndarray = field(init=False, repr=False, compare=False)
    # char-id bytes -> char-CNN vector bytes; only load_model sets one (see the module docstring)
    char_memo: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.tensors = t = dict(self.tensors)  # gates are rebound here, not in the caller's map
        self.gru_w, self.gru_u, self.gru_b = (
            np.stack([
                np.concatenate([t[f"{prefix}.{kind}_{gate}"] for gate in "zrh"])
                for prefix in ("gru_fwd", "gru_bwd")
            ]).astype(np.float64, copy=False)
            for kind in "wub"
        )
        t.update(_gate_views(self.gru_w, self.gru_u, self.gru_b))
        self.gru_fwd, self.gru_bwd = (
            GruDirectionParams(*(t[f"{prefix}.{g}"] for g in GruDirectionParams.GATE_NAMES))
            for prefix in ("gru_fwd", "gru_bwd")
        )
        widths = self.dims.char_widths
        self.word_table = EmbeddingTable(t["word_table"])
        self.pos_table = EmbeddingTable(t["pos_table"])
        self.char_params = CharCnnParams(
            char_table=t["char_table"],
            widths=widths,
            filters=[t[f"char_filters_w{k}"] for k in widths],
            biases=[t[f"char_bias_w{k}"] for k in widths],
        )
        self.dense = DenseParams(w=t["dense.w"], b=t["dense.b"])

    def clone(self) -> "ModelParameters":
        tensors = {n: a.copy() for n, a in self.tensors.items()}
        return ModelParameters(self.dims, tensors, self.word_table_trainable)


def _gate_views(w: np.ndarray, u: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
    """Per-gate views into stacked (2, 3H, ...) GRU tensors, by archive name."""
    h = b.shape[1] // 3
    return {
        f"{prefix}.{kind}_{gate}": t[k, g * h : (g + 1) * h]
        for k, prefix in enumerate(("gru_fwd", "gru_bwd"))
        for kind, t in zip("wub", (w, u, b))
        for g, gate in enumerate("zrh")
    }


def named_tensors(model: ModelParameters) -> list[tuple[str, np.ndarray]]:
    """All parameter tensors in a fixed, serialization-stable order: the
    items of ``model.tensors``."""
    return list(model.tensors.items())


def tensor_shapes(dims: ModelDims, vocab: Vocabulary) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter tensor, in ``named_tensors`` order."""
    d, h = dims.feature_dim, dims.hidden
    shapes = [
        ("word_table", (vocab.word_size, dims.word_dim)),
        ("pos_table", (vocab.pos_size, dims.pos_dim)),
        ("char_table", (vocab.char_size, dims.char_dim)),
    ]
    for k in dims.char_widths:
        shapes += [(f"char_filters_w{k}", (dims.char_filters, k, dims.char_dim)),
                   (f"char_bias_w{k}", (dims.char_filters,))]
    gate_shape = {"w": (h, d), "u": (h, h), "b": (h,)}
    shapes += [(f"{prefix}.{gate}", gate_shape[gate[0]])
               for prefix in ("gru_fwd", "gru_bwd") for gate in GruDirectionParams.GATE_NAMES]
    return shapes + [("dense.w", (3, 2 * h)), ("dense.b", (3,))]


def trainable_tensor_names(model: ModelParameters) -> list[str]:
    return [n for n in model.tensors if n != "word_table" or model.word_table_trainable]


def init_parameters(
    dims: ModelDims,
    vocab: Vocabulary,
    word_table: EmbeddingTable,
    rng: np.random.Generator,
    word_table_trainable: bool = False,
) -> ModelParameters:
    """Glorot-uniform weight matrices, zero biases, uniform embedding tables.

    The word table is copied in as given (its PAD row is re-zeroed); POS and
    char tables draw uniform rows of scale sqrt(3/dim) with frozen zero PAD
    rows.  The RNG draw order is fixed so a seed fully determines the model.
    """
    if word_table.dim != dims.word_dim:
        raise ValueError(
            f"word table dim {word_table.dim} != configured word_dim {dims.word_dim}"
        )
    if word_table.matrix.shape[0] != vocab.word_size:
        raise ValueError(
            f"word table has {word_table.matrix.shape[0]} rows for a vocabulary "
            f"of {vocab.word_size} words"
        )
    tensors = {name: np.zeros(shape) for name, shape in tensor_shapes(dims, vocab)}
    tensors["word_table"][...] = word_table.matrix
    # dense.w is drawn before the GRU weights, so every seed keeps the model
    # it has always given.  Biases draw nothing and stay zero.
    for name in sorted(tensors, key=lambda n: n.startswith("gru_")):
        arr = tensors[name]
        if name == "word_table" or arr.ndim == 1:
            continue
        if name in FROZEN_ROW_TABLES:
            limit = np.sqrt(3.0 / arr.shape[1])
        else:  # Glorot: fan_out is the leading axis, fan_in the rest
            limit = np.sqrt(6.0 / (arr[0].size + arr.shape[0]))
        arr[...] = rng.uniform(-limit, limit, size=arr.shape)
    for name in FROZEN_ROW_TABLES:
        tensors[name][0] = 0.0
    return ModelParameters(dims, tensors, word_table_trainable)


# ---------------------------------------------------------------------------
# Dropout


@dataclass
class DropoutPlan:
    """Pre-scaled inverted-dropout masks for one batch."""

    input_mask: np.ndarray  # (B, T, D)
    rec_fwd: np.ndarray  # (B, H), reused across timesteps
    rec_bwd: np.ndarray  # (B, H)


def make_dropout_plan(
    rng: np.random.Generator, rate: float, b: int, t: int, d: int, h: int
) -> DropoutPlan | None:
    if rate <= 0.0:
        return None
    scale = 1.0 / (1.0 - rate)
    return DropoutPlan(
        input_mask=(rng.random((b, t, d)) >= rate) * scale,
        rec_fwd=(rng.random((b, h)) >= rate) * scale,
        rec_bwd=(rng.random((b, h)) >= rate) * scale,
    )


# ---------------------------------------------------------------------------
# Forward


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)): no exp, so no overflow,
    and exactly 0 and 1 far out in the tails."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


@dataclass
class Packing:
    """Where each real slot of a batch sits in the packed bidirectional loop.

    Feature rows hold the real slots in row-major order (``slot_i``,
    ``slot_t``).  Chunks run longest first (``order``), so the chunks still
    running at step k are a prefix of that order: step k owns the packed rows
    ``offsets[k]:offsets[k + 1]``, and its row j belongs to chunk
    ``order[j]``.  ``rows[0]`` and ``rows[1]`` give the feature row each
    packed row reads in the forward direction (position k) and in the
    backward one (position L - 1 - k).
    """

    slot_i: np.ndarray  # (R,)
    slot_t: np.ndarray  # (R,)
    order: np.ndarray  # (B,)
    offsets: np.ndarray  # (steps + 1,)
    rows: np.ndarray  # (2, R)


def _pack(mask: np.ndarray) -> Packing:
    real = mask > 0
    lengths = real.sum(axis=1)
    if not (real == (np.arange(real.shape[1]) < lengths[:, None])).all():
        raise ValueError("the real slots of every chunk must be a prefix of its window")
    order = np.argsort(-lengths, kind="stable")
    running = (lengths[order] > np.arange(lengths.max(initial=0))[:, None]).sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(running)])
    step = np.repeat(np.arange(running.size), running)
    chunk = order[np.arange(step.size) - offsets[step]]
    first = (np.cumsum(lengths) - lengths)[chunk]  # feature row of the chunk's position 0
    slot_i, slot_t = np.nonzero(real)
    rows = np.stack([first + step, first + lengths[chunk] - 1 - step])
    return Packing(slot_i, slot_t, order, offsets, rows)


def _gru_directions(
    model: ModelParameters,
    x: np.ndarray,
    pack: Packing,
    rec: np.ndarray | None,
    gates: np.ndarray,
    states: np.ndarray,
    dirs: slice,
) -> None:
    """The GRU directions ``dirs`` (``0:2`` both, ``0:1`` or ``1:2`` one) over
    the packed rows, written into ``gates[dirs]`` and ``states[dirs]``."""
    h = model.dims.hidden
    gates, states = gates[dirs], states[dirs]
    np.matmul(x[pack.rows[dirs]], model.gru_w[dirs].transpose(0, 2, 1), out=gates)
    gates += model.gru_b[dirs, None]
    u_zr = model.gru_u[dirs, : 2 * h].transpose(0, 2, 1)
    u_h = model.gru_u[dirs, 2 * h :].transpose(0, 2, 1)
    rec = rec[dirs] if rec is not None else None
    offsets = pack.offsets.tolist()
    h_prev = np.zeros((gates.shape[0], offsets[1] if len(offsets) > 1 else 0, h))
    for lo, hi in zip(offsets, offsets[1:]):
        n = hi - lo
        hp = h_prev[:, :n]
        hd = hp * rec[:, :n] if rec is not None else hp
        g = gates[:, lo:hi]
        pre_zr = hd @ u_zr
        pre_zr += g[..., : 2 * h]
        g[..., : 2 * h] = _sigmoid(pre_zr)
        z = g[..., :h]
        r = g[..., h : 2 * h]
        pre_h = (r * hd) @ u_h
        pre_h += g[..., 2 * h :]
        candidate = g[..., 2 * h :] = np.tanh(pre_h)
        h_prev = states[:, lo:hi] = (1.0 - z) * hp + z * candidate


def _helper_pays(rows: int) -> bool:
    """Whether a forward or backward over ``rows`` real slots splits its work
    with a helper thread: at least ``PARALLEL_ROWS`` rows on a process allowed
    two or more CPUs."""
    return rows >= PARALLEL_ROWS and _CPUS >= 2


def _on_helper(helper: Callable[[], object], caller: Callable[[], object]) -> tuple:
    """Run ``helper()`` on the worker of a one-thread ``ThreadPoolExecutor``
    while the calling thread runs ``caller()``; return both results once the
    worker is joined."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        # The copied context carries the caller's np.errstate into the helper.
        future = pool.submit(contextvars.copy_context().run, helper)
        mine = caller()
        return future.result(), mine  # re-raises the helper's exception


def _bigru_forward(
    model: ModelParameters, x: np.ndarray, pack: Packing, rec: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Both GRU directions over the packed real slots of a batch.

    Returns the gate activations z | r | candidate (2, R, 3H) and the states
    (2, R, H), both by packed row.  With at least ``PARALLEL_ROWS`` rows and
    two usable CPUs, the backward direction runs on a helper thread while the
    caller runs the forward one; the outputs are the same bytes either way.
    """
    h = model.dims.hidden
    gates = np.empty((2, x.shape[0], 3 * h))
    states = np.empty((2, x.shape[0], h))
    args = (model, x, pack, rec, gates, states)
    if _helper_pays(x.shape[0]):
        _on_helper(partial(_gru_directions, *args, slice(1, 2)),
                   partial(_gru_directions, *args, slice(0, 1)))
    else:
        _gru_directions(*args, slice(0, 2))
    return gates, states


@dataclass
class ForwardCache:
    batch: ChunkBatch
    pack: Packing
    inputs: np.ndarray  # (R, D) feature rows after input dropout
    char_index: np.ndarray  # per feature row, its distinct char sequence (first-slot order)
    gates: np.ndarray  # (2, R, 3H) by packed row: z | r | candidate
    states: np.ndarray  # (2, R, H) by packed row
    rec: np.ndarray | None  # (2, B, H) recurrent masks in packed chunk order
    concat: np.ndarray  # (B, T, 2H), zero at pads
    probs: np.ndarray  # (B, T, 3)
    chunk_losses: np.ndarray  # (B,)
    plan: DropoutPlan | None


def _featurize_batch(
    model: ModelParameters, batch: ChunkBatch, pack: Packing
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of the real slots, plus each row's index into the batch's
    distinct char-id sequences (in first-slot order).  One ``char_cnn_trace``
    call computes the sequences the ``char_memo`` does not serve, if any."""
    char = model.char_params
    memo = model.char_memo
    n_words = model.word_table.matrix.shape[0]
    if memo is not None and any(
        a.flags.writeable for a in (char.char_table, *char.filters, *char.biases)
    ):
        memo = model.char_memo = None  # a writable model could go stale: never memoize again
    d_w = model.word_table.dim
    d_p = model.pos_table.dim
    word_ids = batch.word_ids[pack.slot_i, pack.slot_t]
    rows = np.empty((pack.slot_i.size, model.dims.feature_dim))
    rows[:, :d_w] = model.word_table.matrix[word_ids]
    rows[:, d_w : d_w + d_p] = model.pos_table.matrix[batch.pos_ids[pack.slot_i, pack.slot_t]]
    # A slot's memo key is its char ids' bytes, a slice of the batch's
    # buffer (8 bytes per id).
    start = (batch.char_start[pack.slot_i, pack.slot_t] * 8).tolist()
    stop = (batch.char_stop[pack.slot_i, pack.slot_t] * 8).tolist()
    buffer = batch.char_buffer
    seen: dict[bytes, int] = {}  # distinct sequences in first-slot order
    index = np.array(
        [seen.setdefault(buffer[a:b], len(seen)) for a, b in zip(start, stop)], dtype=np.intp
    )
    keys = list(seen)
    hits = [memo.get(key) for key in keys] if memo is not None else [None] * len(keys)
    miss = [j for j, hit in enumerate(hits) if hit is None]
    served = [j for j, hit in enumerate(hits) if hit is not None]
    vectors = np.empty((len(keys), char.output_dim))
    vectors[served] = np.frombuffer(b"".join(hits[j] for j in served)).reshape(-1, char.output_dim)
    if miss:
        vectors[miss] = char_cnn_trace([np.frombuffer(keys[j], np.int64) for j in miss], char)[0]
    if memo is not None:
        # Vocabulary words only: the memo stays bounded and holds no OOV.
        # Stored as bytes: thousands of small long-lived numpy buffers
        # fragment the malloc heap and raised peak RSS by up to 3.5 MB.
        words = word_ids[np.unique(index, return_index=True)[1]]  # at each first slot
        for j in miss:
            if words[j] > UNK_INDEX and len(memo) < n_words:
                memo[keys[j]] = vectors[j].tobytes()
    rows[:, d_w + d_p :] = vectors[index]
    return rows, index


def forward_batch(
    model: ModelParameters, batch: ChunkBatch, plan: DropoutPlan | None = None
) -> ForwardCache:
    """Tag distributions and per-chunk losses for a batch.

    Raises ValueError when the real slots of a chunk are not a prefix of its
    window.
    """
    pack = _pack(batch.mask)
    features, char_index = _featurize_batch(model, batch, pack)
    inputs, rec = features, None
    if plan is not None:
        inputs = features * plan.input_mask[pack.slot_i, pack.slot_t]
        rec = np.stack([plan.rec_fwd[pack.order], plan.rec_bwd[pack.order]])
    h = model.dims.hidden
    gates, states = _bigru_forward(model, inputs, pack, rec)
    concat = np.zeros((batch.size, batch.mask.shape[1], 2 * h))
    for k, rows in enumerate(pack.rows):
        concat[pack.slot_i[rows], pack.slot_t[rows], k * h : (k + 1) * h] = states[k]
    probs = dense_softmax(concat, model.dense)
    losses = _chunk_losses(probs, batch.labels, batch.mask)
    return ForwardCache(
        batch=batch,
        pack=pack,
        inputs=inputs,
        char_index=char_index,
        gates=gates,
        states=states,
        rec=rec,
        concat=concat,
        probs=probs,
        chunk_losses=losses,
        plan=plan,
    )


def dense_softmax(h: np.ndarray, p: DenseParams) -> np.ndarray:
    """Tag distribution rows (stable softmax over logits W h + b)."""
    return softmax(h @ p.w.T + p.b)


def _chunk_losses(
    probs: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    safe = np.clip(labels, 0, probs.shape[-1] - 1)
    gold_p = np.take_along_axis(probs, safe[..., None], axis=-1)[..., 0]
    gold_p = np.maximum(gold_p, PROB_FLOOR)
    active = mask * (labels >= 0)
    return (-np.log(gold_p) * active).sum(axis=-1)


# ---------------------------------------------------------------------------
# Backward


def _bigru_backward(
    model: ModelParameters, cache: ForwardCache, d_states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate through both GRU directions' time steps given d(states)
    (2, R, H).

    The packed loop only carries dh and stores each row's pre-activation
    deltas z | r | h.  Returns those deltas by packed row (2, R, 3H), the same
    deltas by feature row with both directions side by side (R, 6H), and the
    dropped previous states by packed row (2, R, H): the weight, bias and
    input gradients are then one GEMM each.
    """
    h = model.dims.hidden
    pack, gates, states, rec = cache.pack, cache.gates, cache.states, cache.rec
    offsets = pack.offsets.tolist()
    running = np.diff(pack.offsets)
    n_rows = states.shape[1]
    first = offsets[1] if len(offsets) > 1 else 0
    # The state entering a packed row is its chunk's row one step earlier
    # (running[k - 1] rows back), and zero at step 0.
    h_prev = np.zeros_like(states)
    h_prev[:, first:] = states[:, np.arange(first, n_rows) - np.repeat(running[:-1], running[1:])]
    if rec is not None:
        hd_all = h_prev * rec[:, np.arange(n_rows) - np.repeat(pack.offsets[:-1], running)]
    else:
        hd_all = h_prev
    u_zr = model.gru_u[:, : 2 * h]
    u_h = model.gru_u[:, 2 * h :]
    da = np.empty((2, n_rows, 3 * h))  # pre-activation deltas by packed row
    dh = np.zeros((2, first, h))
    for lo, hi in reversed(list(zip(offsets, offsets[1:]))):
        n = hi - lo
        g = gates[:, lo:hi]
        z = g[..., :h]
        r = g[..., h : 2 * h]
        candidate = g[..., 2 * h :]
        hp = h_prev[:, lo:hi]
        da_t = da[:, lo:hi]
        # Rows past the previous step's running chunks were never written: zero.
        dh_new = dh[:, :n] + d_states[:, lo:hi]
        da_t[..., :h] = dh_new * (candidate - hp) * z * (1.0 - z)
        da_h = da_t[..., 2 * h :] = dh_new * z * (1.0 - candidate * candidate)
        drh = da_h @ u_h
        da_t[..., h : 2 * h] = drh * hd_all[:, lo:hi] * r * (1.0 - r)
        dhd = drh * r
        dhd += da_t[..., : 2 * h] @ u_zr
        dh[:, :n] = dh_new * (1.0 - z) + (dhd * rec[:, :n] if rec is not None else dhd)

    # Both directions' input-side deltas by feature row, side by side.
    d_proj = np.empty((n_rows, 6 * h))
    d_proj[pack.rows[0], : 3 * h] = da[0]
    d_proj[pack.rows[1], 3 * h :] = da[1]
    return da, d_proj, hd_all


def _gru_weight_grads(
    cache: ForwardCache, da: np.ndarray, d_proj: np.ndarray, hd_all: np.ndarray
) -> dict[str, np.ndarray]:
    """The per-gate GRU weight and bias gradients from ``_bigru_backward``'s
    deltas, by archive name.  Calls only numpy."""
    h = hd_all.shape[2]
    d_w = (d_proj.T @ cache.inputs).reshape(2, 3 * h, -1)
    d_b = d_proj.sum(axis=0).reshape(2, 3 * h)
    d_u = np.concatenate([
        da[..., : 2 * h].transpose(0, 2, 1) @ hd_all,
        da[..., 2 * h :].transpose(0, 2, 1) @ (cache.gates[..., h : 2 * h] * hd_all),
    ], axis=1)
    return _gate_views(d_w, d_u, d_b)


def _char_cnn_backward(
    char: CharCnnParams, trace: CharTrace, d_vecs: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Char-table, filter and bias gradients of one ``char_cnn_trace`` call
    given d(output) per token (N, F*W).

    Each filter bank takes one GEMM per gradient and one scatter into the
    char table over the call's stacked windows.
    """
    n_f = char.n_filters
    g_table = np.zeros_like(char.char_table)
    g_filters = [np.zeros_like(f) for f in char.filters]
    g_biases = [np.zeros_like(bb) for bb in char.biases]
    for wi, (width, filters) in enumerate(zip(char.widths, char.filters)):
        win, pre, best = trace.window_ids[wi], trace.pre[wi], trace.best[wi]
        d_scores = np.zeros_like(pre)
        d_scores[best, np.arange(n_f)] = d_vecs[:, wi * n_f : (wi + 1) * n_f]
        d_pre = d_scores * (pre > 0)
        g_biases[wi] += d_pre.sum(axis=0)
        emb = char.char_table[win].reshape(win.shape[0], filters[0].size)
        g_filters[wi] += (d_pre.T @ emb).reshape(n_f, width, char.char_dim)
        d_emb = (d_pre @ filters.reshape(n_f, -1)).reshape(win.shape[0], width, char.char_dim)
        np.add.at(g_table, win, d_emb)
    g_table[0] = 0.0
    return g_table, g_filters, g_biases


def _feature_grads(
    model: ModelParameters, cache: ForwardCache, d_proj: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of the tables and the char CNN from the GRU's input-side
    deltas by feature row (R, 6H): ``word_table`` if trainable,
    ``pos_table``, then the char tensors."""
    batch, pack = cache.batch, cache.pack
    dx = d_proj @ model.gru_w.reshape(6 * model.dims.hidden, -1)
    if cache.plan is not None:
        dx *= cache.plan.input_mask[pack.slot_i, pack.slot_t]

    grads: dict[str, np.ndarray] = {}
    d_w = model.word_table.dim
    d_p = model.pos_table.dim
    if model.word_table_trainable:
        g_word = np.zeros_like(model.word_table.matrix)
        np.add.at(g_word, batch.word_ids[pack.slot_i, pack.slot_t], dx[:, :d_w])
        g_word[0] = 0.0
        grads["word_table"] = g_word
    g_pos = np.zeros_like(model.pos_table.matrix)
    np.add.at(g_pos, batch.pos_ids[pack.slot_i, pack.slot_t], dx[:, d_w : d_w + d_p])
    g_pos[0] = 0.0
    grads["pos_table"] = g_pos

    # The char CNN's backward is linear in d(output), so slots that share a
    # char sequence can sum their gradients first.  One call over the first
    # slot of each distinct sequence recomputes the trace.
    char = model.char_params
    first = np.unique(cache.char_index, return_index=True)[1]
    i, t = pack.slot_i[first], pack.slot_t[first]
    flat = np.frombuffer(batch.char_buffer, dtype=np.int64)
    bounds = zip(batch.char_start[i, t].tolist(), batch.char_stop[i, t].tolist())
    seqs = [flat[a:b] for a, b in bounds]
    d_chars = np.zeros((first.size, char.output_dim))
    np.add.at(d_chars, cache.char_index, dx[:, d_w + d_p :])
    _, trace = char_cnn_trace(seqs, char)
    g_char_table, g_filters, g_biases = _char_cnn_backward(char, trace, d_chars)
    grads["char_table"] = g_char_table
    for width, gf, gb in zip(char.widths, g_filters, g_biases):
        grads[f"char_filters_w{width}"] = gf
        grads[f"char_bias_w{width}"] = gb
    return grads


def backward_from_cache(model: ModelParameters, cache: ForwardCache) -> dict[str, np.ndarray]:
    """Gradients of the batch objective (mean over chunks of summed loss)."""
    batch = cache.batch
    b = batch.size
    h_size = model.dims.hidden
    active = (batch.mask * (batch.labels >= 0))[..., None]
    onehot = np.zeros_like(cache.probs)
    safe = np.clip(batch.labels, 0, onehot.shape[-1] - 1)
    np.put_along_axis(onehot, safe[..., None], 1.0, axis=-1)
    dlogits = (cache.probs - onehot) * active / b

    grads: dict[str, np.ndarray] = {}
    grads["dense.w"] = dlogits.reshape(-1, 3).T @ cache.concat.reshape(-1, 2 * h_size)
    grads["dense.b"] = dlogits.sum(axis=(0, 1))
    pack = cache.pack
    d_real = dlogits[pack.slot_i, pack.slot_t] @ model.dense.w  # (R, 2H)
    d_states = np.stack([d_real[pack.rows[0], :h_size], d_real[pack.rows[1], h_size:]])
    da, d_proj, hd_all = _bigru_backward(model, cache, d_states)
    # The weight GEMMs and the feature gradients share no output, so a large
    # batch runs the former on a helper.  The merge keeps the key order that
    # clip_gradients sums norms in.
    weights = partial(_gru_weight_grads, cache, da, d_proj, hd_all)
    features = partial(_feature_grads, model, cache, d_proj)
    if _helper_pays(d_proj.shape[0]):
        gru_grads, feature_grads = _on_helper(weights, features)
    else:
        gru_grads, feature_grads = weights(), features()
    return grads | gru_grads | feature_grads


def backward(model: ModelParameters, chunk: PaddedChunk) -> dict[str, np.ndarray]:
    """Exact gradients of the chunk's summed cross-entropy against its own
    labels w.r.t. every trainable tensor (frozen tensors are simply absent
    from the result)."""
    return backward_from_cache(model, forward_batch(model, batch_chunks([chunk])))


# ---------------------------------------------------------------------------
# Optimization


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return float(np.sqrt(total))


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients so the global L2 norm never exceeds ``max_norm``."""
    norm = global_grad_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return grads


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_model(cls, model: ModelParameters) -> "AdamState":
        names = trainable_tensor_names(model)
        return cls(
            m={n: np.zeros_like(model.tensors[n]) for n in names},
            v={n: np.zeros_like(model.tensors[n]) for n in names},
        )


def adam_step(
    model: ModelParameters,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[ModelParameters, AdamState]:
    """Standard Adam with bias correction, updating parameters in place.

    Frozen tensors never appear in ``grads``; PAD table rows carry zero
    gradients and therefore zero updates.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        model.tensors[name] -= lr * update
    return model, state


# ---------------------------------------------------------------------------
# Finite-difference verification


@dataclass
class TensorCheck:
    name: str
    status: str  # "passed" | "failed" | "skipped"
    max_rel_error: float = 0.0
    worst_coord: tuple[int, ...] | None = None
    analytic: float = 0.0
    numeric: float = 0.0


@dataclass
class GradCheckReport:
    checks: list[TensorCheck]
    step: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(c.status != "failed" for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            if c.status == "skipped":
                lines.append(f"SKIP {c.name} (frozen)")
            else:
                word = "PASS" if c.status == "passed" else "FAIL"
                lines.append(
                    f"{word} {c.name} max_rel_err={c.max_rel_error:.3e} "
                    f"at {c.worst_coord} (analytic={c.analytic:.6e} "
                    f"numeric={c.numeric:.6e})"
                )
        lines.append(f"gradcheck {'passed' if self.ok else 'FAILED'} "
                     f"(step={self.step:g}, tolerance={self.tolerance:g})")
        return "\n".join(lines)


def _coord_rng(name: str) -> np.random.Generator:
    seed = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return np.random.default_rng(seed)


@np.errstate(all="ignore")  # a non-finite difference is reported as a failure
def finite_difference_check(
    model: ModelParameters,
    chunk: PaddedChunk,
    step: float = GRADCHECK_STEP,
    tolerance: float = GRADCHECK_TOLERANCE,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences of the
    loss of the chunk's own labels.

    Samples ``GRADCHECK_COORDS`` coordinates per trainable tensor (all of
    them for small tensors) with deterministic per-tensor sampling;
    frozen tensors are reported as skipped.  Raises ValueError unless
    ``step`` and ``tolerance`` are finite and > 0.
    """
    for name, value in (("step", step), ("tolerance", tolerance)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"gradcheck {name} must be finite and > 0, got {value!r}")
    trainable = trainable_tensor_names(model)
    batch = batch_chunks([chunk])

    def loss() -> float:
        return float(forward_batch(model, batch).chunk_losses[0])

    base = loss()
    if not np.isfinite(base):
        raise NumericError(f"non-finite loss {base!r}; gradient check aborted")
    analytic = backward(model, chunk)

    checks = []
    for name, arr in model.tensors.items():
        if name not in trainable:
            checks.append(TensorCheck(name=name, status="skipped"))
            continue
        eligible = np.arange(arr.size)
        if name in FROZEN_ROW_TABLES:
            eligible = eligible[eligible >= arr.shape[1]]
        rng = _coord_rng(name)
        if eligible.size > GRADCHECK_COORDS:
            sample = rng.choice(eligible, size=GRADCHECK_COORDS, replace=False)
        else:
            sample = eligible
        check = TensorCheck(name=name, status="passed")
        for flat in sample:
            original = arr.flat[flat]
            arr.flat[flat] = original + step
            up = loss()
            arr.flat[flat] = original - step
            down = loss()
            arr.flat[flat] = original
            numeric = (up - down) / (2.0 * step)
            a = float(analytic[name].flat[flat])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if np.isnan(rel):  # a NaN difference is a failure, never a pass
                rel = np.inf
            if rel > check.max_rel_error:
                check.max_rel_error = rel
                check.worst_coord = tuple(int(i) for i in np.unravel_index(flat, arr.shape))
                check.analytic = a
                check.numeric = numeric
        if check.max_rel_error >= tolerance:
            check.status = "failed"
        checks.append(check)
    return GradCheckReport(checks=checks, step=step, tolerance=tolerance)


def build_probe(
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
) -> tuple[ModelParameters, PaddedChunk]:
    """Tiny random model plus one chunk, for gradient verification."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(6)]
    vocab = Vocabulary(
        word_to_index={"<pad>": 0, "<unk>": 1, **{w: i + 2 for i, w in enumerate(words)}},
        pos_to_index={"<pad>": 0, "<unk>": 1, "NOUN": 2, "VERB": 3, "ADJ": 4},
        char_to_index={"<pad>": 0, "<unk>": 1, **{c: i + 2 for i, c in enumerate("abcdef")}},
    )
    dims = ModelDims(
        word_dim=word_dim,
        pos_dim=pos_dim,
        char_dim=char_dim,
        char_filters=char_filters,
        char_widths=char_widths,
        hidden=hidden,
        window=window,
        overlap=ChunkConfig.overlap,
    )
    word_matrix = rng.normal(0.0, 0.4, size=(vocab.word_size, word_dim))
    word_matrix[0] = 0.0
    model = init_parameters(dims, vocab, EmbeddingTable(word_matrix), rng, trainable_words)

    word_ids = np.zeros(window, dtype=np.int64)
    pos_ids = np.zeros(window, dtype=np.int64)
    labels = np.full(window, -1, dtype=np.int64)
    mask = np.zeros(window, dtype=bool)
    empty = np.zeros(0, dtype=np.int64)
    chars: list[np.ndarray] = [empty] * window
    for t in range(real_tokens):
        word_ids[t] = rng.integers(1, vocab.word_size)
        pos_ids[t] = rng.integers(2, vocab.pos_size)
        length = int(rng.integers(1, 7))
        chars[t] = rng.integers(2, vocab.char_size, size=length)
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
