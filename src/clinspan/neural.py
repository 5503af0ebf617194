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

Compute layout.  Within a batch the char CNN runs once per distinct char-id
sequence among the real slots, and each slot gathers its vector through an
index; backward sums the slots' gradients per sequence before going through
that sequence's trace once, which is exact because the char CNN's backward
is linear in its output gradient.  Only real slots are featurized: the real
slots of a chunk must be a prefix of its window, and feature rows hold them
in row-major order.

The GRU weights are stored once, in the layout the loop computes with:
W (2, 3H, D), U (2, 3H, H) and b (2, 3H), direction first (forward,
backward), gate blocks z | r | h.  The per-gate tensors (``gru_fwd.w_z``
... ``gru_bwd.b_h``, the archive layout) are views into these arrays.  Both
directions run in one packed time loop: the chunks are sorted by real
length, longest first, so the chunks still running at step k are a prefix
of that order, and step k reads position k for the forward direction and
position L - 1 - k for the backward one.  Both directions therefore have
the same running rows at every step, the loop runs max(L) steps, and no pad
slot is computed.  One stacked (2, R, D) x (2, D, 3H) GEMM projects the R
real slots for both directions before the loop; each step then does one
stacked (2, n, H) GEMM for z | r, one for the candidate, and one set of
elementwise ops for both directions, reading the previous state from the
prior step's packed rows.  The backward loop carries only dh and keeps every packed row's
z | r | h pre-activation deltas, so the weight, bias and input gradients
are one GEMM each after the loop (the fused-gate layout of Appleyard,
Kocisky & Blunsom 2016, arXiv:1604.01946).

Phase separation contract: forward/backward over distinct chunks may run
concurrently against a frozen parameter snapshot; the optimizer step is the
single writer and must not interleave with reads.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chunking import ChunkConfig, PaddedChunk
from .corpus import LABEL_TO_INDEX, Vocabulary
from .features import (
    CharCnnParams,
    CharTrace,
    EmbeddingTable,
    PosEmbedding,
    char_cnn_trace,
)

PROB_FLOOR = 1e-12

# Tables whose row 0 (PAD) stays exactly zero through training.
FROZEN_ROW_TABLES = ("word_table", "pos_table", "char_table")


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

    @property
    def char_output_dim(self) -> int:
        return self.char_filters * len(self.char_widths)

    @property
    def feature_dim(self) -> int:
        return self.word_dim + self.pos_dim + self.char_output_dim


@dataclass
class ModelParameters:
    """Every tensor of the tagger.

    The GRU weights live in ``gru_w`` (2, 3H, D), ``gru_u`` (2, 3H, H) and
    ``gru_b`` (2, 3H): direction first, gate blocks z | r | h.  They are
    stacked from ``gru_fwd`` and ``gru_bwd`` at construction, after which
    those two are rebound to per-gate views into the stacked arrays, so a
    write through either name reaches the one copy the forward reads.
    """

    word_table: EmbeddingTable
    pos_table: PosEmbedding
    char_params: CharCnnParams
    gru_fwd: GruDirectionParams
    gru_bwd: GruDirectionParams
    dense: DenseParams
    dims: ModelDims
    gru_w: np.ndarray = field(init=False, repr=False, compare=False)
    gru_u: np.ndarray = field(init=False, repr=False, compare=False)
    gru_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.gru_w, self.gru_u, self.gru_b = (
            np.stack([
                np.concatenate([getattr(p, f"{kind}_{gate}") for gate in "zrh"])
                for p in (self.gru_fwd, self.gru_bwd)
            ]).astype(np.float64, copy=False)
            for kind in "wub"
        )
        self.gru_fwd, self.gru_bwd = _gate_views(self.gru_w, self.gru_u, self.gru_b)

    def clone(self) -> "ModelParameters":
        # The GRU tensors are copied by __post_init__'s stacking.
        return ModelParameters(
            word_table=EmbeddingTable(
                self.word_table.matrix.copy(), self.word_table.trainable
            ),
            pos_table=PosEmbedding(self.pos_table.matrix.copy()),
            char_params=CharCnnParams(
                char_table=self.char_params.char_table.copy(),
                widths=self.char_params.widths,
                filters=[f.copy() for f in self.char_params.filters],
                biases=[b.copy() for b in self.char_params.biases],
            ),
            gru_fwd=self.gru_fwd,
            gru_bwd=self.gru_bwd,
            dense=DenseParams(self.dense.w.copy(), self.dense.b.copy()),
            dims=self.dims,
        )


def _gate_views(
    w: np.ndarray, u: np.ndarray, b: np.ndarray
) -> tuple[GruDirectionParams, GruDirectionParams]:
    """Per-gate views into stacked (2, 3H, ...) GRU tensors, one set per direction."""
    h = b.shape[1] // 3
    fwd, bwd = (
        GruDirectionParams(*(t[k, g * h : (g + 1) * h] for t in (w, u, b) for g in range(3)))
        for k in range(2)
    )
    return fwd, bwd


def named_tensors(model: ModelParameters) -> list[tuple[str, np.ndarray]]:
    """All parameter tensors in a fixed, serialization-stable order."""
    pairs: list[tuple[str, np.ndarray]] = [
        ("word_table", model.word_table.matrix),
        ("pos_table", model.pos_table.matrix),
        ("char_table", model.char_params.char_table),
    ]
    for width, filt, bias in zip(
        model.char_params.widths, model.char_params.filters, model.char_params.biases
    ):
        pairs.append((f"char_filters_w{width}", filt))
        pairs.append((f"char_bias_w{width}", bias))
    for prefix, gru in (("gru_fwd", model.gru_fwd), ("gru_bwd", model.gru_bwd)):
        for gate in GruDirectionParams.GATE_NAMES:
            pairs.append((f"{prefix}.{gate}", getattr(gru, gate)))
    pairs.append(("dense.w", model.dense.w))
    pairs.append(("dense.b", model.dense.b))
    return pairs


def trainable_tensor_names(model: ModelParameters) -> list[str]:
    names = [name for name, _ in named_tensors(model)]
    if not model.word_table.trainable:
        names.remove("word_table")
    return names


def init_parameters(
    dims: ModelDims,
    vocab: Vocabulary,
    word_table: EmbeddingTable,
    rng: np.random.Generator,
) -> ModelParameters:
    """Glorot-uniform weight matrices, zero biases, uniform embedding tables.

    The word table is adopted as given (its PAD row is re-zeroed); POS and
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

    def glorot(shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    def table(rows: int, dim: int) -> np.ndarray:
        limit = np.sqrt(3.0 / dim)
        out = rng.uniform(-limit, limit, size=(rows, dim))
        out[0] = 0.0
        return out

    word = EmbeddingTable(word_table.matrix.astype(np.float64, copy=True), word_table.trainable)
    word.matrix[0] = 0.0
    pos = PosEmbedding(table(vocab.pos_size, dims.pos_dim))
    char_table = table(vocab.char_size, dims.char_dim)
    filters = [
        glorot((dims.char_filters, k, dims.char_dim), k * dims.char_dim, dims.char_filters)
        for k in dims.char_widths
    ]
    biases = [np.zeros(dims.char_filters) for _ in dims.char_widths]
    char = CharCnnParams(char_table, dims.char_widths, filters, biases)

    d = dims.feature_dim
    h = dims.hidden

    def gru() -> GruDirectionParams:
        return GruDirectionParams(
            w_z=glorot((h, d), d, h),
            w_r=glorot((h, d), d, h),
            w_h=glorot((h, d), d, h),
            u_z=glorot((h, h), h, h),
            u_r=glorot((h, h), h, h),
            u_h=glorot((h, h), h, h),
            b_z=np.zeros(h),
            b_r=np.zeros(h),
            b_h=np.zeros(h),
        )

    dense = DenseParams(w=glorot((3, 2 * h), 2 * h, 3), b=np.zeros(3))
    return ModelParameters(word, pos, char, gru(), gru(), dense, dims)


# ---------------------------------------------------------------------------
# Batching


@dataclass
class ChunkBatch:
    word_ids: np.ndarray  # (B, T) int64
    pos_ids: np.ndarray  # (B, T) int64
    mask: np.ndarray  # (B, T) float64, 1.0 at real slots
    labels: np.ndarray  # (B, T) int64, -1 at pads / unlabeled
    chars: list[tuple[np.ndarray, ...]]

    @property
    def size(self) -> int:
        return self.word_ids.shape[0]


def batch_chunks(chunks: Sequence[PaddedChunk]) -> ChunkBatch:
    if not chunks:
        raise ValueError("empty chunk batch")
    window = chunks[0].window
    if any(c.window != window for c in chunks):
        raise ValueError("all chunks in a batch must share the window size")
    labels = np.stack(
        [
            c.labels if c.labels is not None else np.full(window, -1, dtype=np.int64)
            for c in chunks
        ]
    )
    return ChunkBatch(
        word_ids=np.stack([c.word_ids for c in chunks]),
        pos_ids=np.stack([c.pos_ids for c in chunks]),
        mask=np.stack([c.mask for c in chunks]).astype(np.float64),
        labels=labels,
        chars=[c.char_ids for c in chunks],
    )


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


def _bigru_forward(
    model: ModelParameters, x: np.ndarray, pack: Packing, rec: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Both GRU directions over the packed real slots of a batch.

    Returns the gate activations z | r | candidate (2, R, 3H) and the states
    (2, R, H), both by packed row.
    """
    h = model.dims.hidden
    gates = x[pack.rows] @ model.gru_w.transpose(0, 2, 1)
    gates += model.gru_b[:, None]
    u_zr = model.gru_u[:, : 2 * h].transpose(0, 2, 1)
    u_h = model.gru_u[:, 2 * h :].transpose(0, 2, 1)
    states = np.empty((2, x.shape[0], h))
    offsets = pack.offsets.tolist()
    h_prev = np.zeros((2, offsets[1] if len(offsets) > 1 else 0, h))
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
    return gates, states


@dataclass
class ForwardCache:
    batch: ChunkBatch
    pack: Packing
    inputs: np.ndarray  # (R, D) feature rows after input dropout
    char_traces: list[CharTrace]  # one per distinct char sequence in the batch
    char_index: np.ndarray  # per feature row, its entry in char_traces
    gates: np.ndarray  # (2, R, 3H) by packed row: z | r | candidate
    states: np.ndarray  # (2, R, H) by packed row
    rec: np.ndarray | None  # (2, B, H) recurrent masks in packed chunk order
    concat: np.ndarray  # (B, T, 2H), zero at pads
    probs: np.ndarray  # (B, T, 3)
    chunk_losses: np.ndarray  # (B,)
    plan: DropoutPlan | None

    @property
    def mean_loss(self) -> float:
        return float(self.chunk_losses.mean())


def _featurize_batch(
    model: ModelParameters, batch: ChunkBatch, pack: Packing
) -> tuple[np.ndarray, list[CharTrace], np.ndarray]:
    """Feature rows of the real slots, plus the char-CNN traces and the row
    index into them.

    The char CNN runs once per distinct char-id sequence among the real
    slots; each feature row gathers its vector through the returned index.
    """
    d_w = model.word_table.dim
    d_p = model.pos_table.dim
    rows = np.empty((pack.slot_i.size, model.dims.feature_dim))
    rows[:, :d_w] = model.word_table.matrix[batch.word_ids[pack.slot_i, pack.slot_t]]
    rows[:, d_w : d_w + d_p] = model.pos_table.matrix[batch.pos_ids[pack.slot_i, pack.slot_t]]
    seen: dict[bytes, int] = {}
    traces: list[CharTrace] = []
    vectors: list[np.ndarray] = []
    index = np.empty(pack.slot_i.size, dtype=np.intp)
    for k, (i, t) in enumerate(zip(pack.slot_i.tolist(), pack.slot_t.tolist())):
        chars = np.asarray(batch.chars[i][t], dtype=np.int64)
        key = chars.tobytes()
        j = seen.get(key)
        if j is None:
            j = seen[key] = len(traces)
            vec, trace = char_cnn_trace(chars, model.char_params)
            vectors.append(vec)
            traces.append(trace)
        index[k] = j
    if traces:
        rows[:, d_w + d_p :] = np.stack(vectors)[index]
    return rows, traces, index


def forward_batch(
    model: ModelParameters, batch: ChunkBatch, plan: DropoutPlan | None = None
) -> ForwardCache:
    """Tag distributions and per-chunk losses for a batch.

    Raises ValueError when the real slots of a chunk are not a prefix of its
    window.
    """
    pack = _pack(batch.mask)
    features, traces, char_index = _featurize_batch(model, batch, pack)
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
        char_traces=traces,
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
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backpropagate through both GRU directions given d(states) (2, R, H).

    Returns d(inputs) by feature row and the per-gate GRU gradients.  The
    packed loop only carries dh and stores each row's pre-activation deltas
    z | r | h; the weight, bias and input gradients are then one GEMM each.
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
    d_w = (d_proj.T @ cache.inputs).reshape(2, 3 * h, -1)
    d_b = d_proj.sum(axis=0).reshape(2, 3 * h)
    d_u = np.concatenate([
        da[..., : 2 * h].transpose(0, 2, 1) @ hd_all,
        da[..., 2 * h :].transpose(0, 2, 1) @ (gates[..., h : 2 * h] * hd_all),
    ], axis=1)
    grads = {
        f"{prefix}.{name}": getattr(views, name)
        for prefix, views in zip(("gru_fwd", "gru_bwd"), _gate_views(d_w, d_u, d_b))
        for name in GruDirectionParams.GATE_NAMES
    }
    return d_proj @ model.gru_w.reshape(6 * h, -1), grads


def _char_cnn_backward(
    char: CharCnnParams, traces: list[CharTrace], d_vecs: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Char-table, filter and bias gradients given d(output) per trace (U, F*W).

    The windows of all traces are stacked per kernel width, so each filter
    bank takes one GEMM per gradient and one scatter into the char table.
    """
    n_f = char.n_filters
    g_table = np.zeros_like(char.char_table)
    g_filters = [np.zeros_like(f) for f in char.filters]
    g_biases = [np.zeros_like(bb) for bb in char.biases]
    if not traces:
        return g_table, g_filters, g_biases
    for wi, (width, filters) in enumerate(zip(char.widths, char.filters)):
        win = np.concatenate([tr.window_ids[wi] for tr in traces])  # (P, k)
        pre = np.concatenate([tr.pre[wi] for tr in traces])  # (P, F)
        first_row = np.cumsum([0] + [tr.pre[wi].shape[0] for tr in traces[:-1]])
        best = np.stack([tr.best[wi] for tr in traces]) + first_row[:, None]  # (U, F)
        d_scores = np.zeros_like(pre)
        d_scores[best, np.arange(n_f)] = d_vecs[:, wi * n_f : (wi + 1) * n_f]
        d_pre = d_scores * (pre > 0)
        g_biases[wi] += d_pre.sum(axis=0)
        emb = char.char_table[win].reshape(win.shape[0], -1)
        g_filters[wi] += (d_pre.T @ emb).reshape(n_f, width, char.char_dim)
        d_emb = (d_pre @ filters.reshape(n_f, -1)).reshape(win.shape[0], width, char.char_dim)
        np.add.at(g_table, win, d_emb)
    g_table[0] = 0.0
    return g_table, g_filters, g_biases


def backward_from_cache(model: ModelParameters, cache: ForwardCache) -> dict[str, np.ndarray]:
    """Gradients of the batch objective (mean over chunks of summed loss)."""
    batch = cache.batch
    b = batch.size
    h_size = model.dims.hidden
    active = (batch.mask * (batch.labels >= 0))[..., None]
    onehot = np.zeros_like(cache.probs)
    safe = np.clip(batch.labels, 0, 2)
    np.put_along_axis(onehot, safe[..., None], 1.0, axis=-1)
    dlogits = (cache.probs - onehot) * active / b

    grads: dict[str, np.ndarray] = {}
    grads["dense.w"] = dlogits.reshape(-1, 3).T @ cache.concat.reshape(-1, 2 * h_size)
    grads["dense.b"] = dlogits.sum(axis=(0, 1))
    pack = cache.pack
    d_real = dlogits[pack.slot_i, pack.slot_t] @ model.dense.w  # (R, 2H)
    d_states = np.stack([d_real[pack.rows[0], :h_size], d_real[pack.rows[1], h_size:]])
    dx, gru_grads = _bigru_backward(model, cache, d_states)
    grads.update(gru_grads)
    if cache.plan is not None:
        dx *= cache.plan.input_mask[pack.slot_i, pack.slot_t]

    d_w = model.word_table.dim
    d_p = model.pos_table.dim
    if model.word_table.trainable:
        g_word = np.zeros_like(model.word_table.matrix)
        np.add.at(g_word, batch.word_ids[pack.slot_i, pack.slot_t], dx[:, :d_w])
        g_word[0] = 0.0
        grads["word_table"] = g_word
    g_pos = np.zeros_like(model.pos_table.matrix)
    np.add.at(g_pos, batch.pos_ids[pack.slot_i, pack.slot_t], dx[:, d_w : d_w + d_p])
    g_pos[0] = 0.0
    grads["pos_table"] = g_pos

    # The char CNN's backward is linear in d(output), so slots that share a
    # char sequence (and so a trace) can sum their gradients first.
    char = model.char_params
    d_chars = np.zeros((len(cache.char_traces), char.output_dim))
    np.add.at(d_chars, cache.char_index, dx[:, d_w + d_p :])
    g_char_table, g_filters, g_biases = _char_cnn_backward(char, cache.char_traces, d_chars)
    grads["char_table"] = g_char_table
    for width, gf, gb in zip(char.widths, g_filters, g_biases):
        grads[f"char_filters_w{width}"] = gf
        grads[f"char_bias_w{width}"] = gb
    return grads


def _labels_for(chunk: PaddedChunk, gold: Sequence | None) -> np.ndarray:
    if gold is None:
        if chunk.labels is None:
            raise ValueError("chunk carries no labels and no gold was given")
        return chunk.labels
    idx = [LABEL_TO_INDEX[g] if isinstance(g, str) else int(g) for g in gold]
    labels = np.full(chunk.window, -1, dtype=np.int64)
    real = chunk.real_count
    if len(idx) not in (real, chunk.window):
        raise ValueError("gold length must match the chunk's real slots or window")
    labels[:real] = idx[:real]
    return labels


def backward(
    model: ModelParameters, chunk: PaddedChunk, gold: Sequence | None = None
) -> dict[str, np.ndarray]:
    """Exact gradients of the chunk's summed cross-entropy w.r.t. every
    trainable tensor (frozen tensors are simply absent from the result)."""
    batch = batch_chunks([chunk])
    batch.labels = _labels_for(chunk, gold)[None, :]
    cache = forward_batch(model, batch)
    return backward_from_cache(model, cache)


# ---------------------------------------------------------------------------
# Optimization


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return float(np.sqrt(total))


def clip_gradients(
    grads: dict[str, np.ndarray], max_norm: float = 5.0
) -> dict[str, np.ndarray]:
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_model(cls, model: ModelParameters) -> "AdamState":
        tensors = dict(named_tensors(model))
        names = trainable_tensor_names(model)
        return cls(
            m={n: np.zeros_like(tensors[n]) for n in names},
            v={n: np.zeros_like(tensors[n]) for n in names},
        )


def adam_step(
    model: ModelParameters,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 0.001,
) -> tuple[ModelParameters, AdamState]:
    """Standard Adam with bias correction, updating parameters in place.

    Frozen tensors never appear in ``grads``; PAD table rows carry zero
    gradients and therefore zero updates.
    """
    tensors = dict(named_tensors(model))
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        tensors[name] -= lr * update
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


def finite_difference_check(
    model: ModelParameters,
    chunk: PaddedChunk,
    gold: Sequence | None = None,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    coords_per_tensor: int = 20,
    corrupt_tensor: str | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Samples at least ``coords_per_tensor`` coordinates per trainable tensor
    (all of them for small tensors) with deterministic per-tensor sampling;
    frozen tensors are reported as skipped.  ``corrupt_tensor`` rolls that
    tensor's analytic gradient by one position (a test-only fault injection).
    """
    batch = batch_chunks([chunk])
    batch.labels = _labels_for(chunk, gold)[None, :]

    def loss() -> float:
        return float(forward_batch(model, batch).chunk_losses[0])

    base = loss()
    if not np.isfinite(base):
        raise NumericError(f"non-finite loss {base!r}; gradient check aborted")
    analytic = backward_from_cache(model, forward_batch(model, batch))
    if corrupt_tensor is not None:
        target = analytic[corrupt_tensor]
        analytic[corrupt_tensor] = np.roll(target.ravel(), 1).reshape(target.shape)

    trainable = set(trainable_tensor_names(model))
    checks = []
    for name, arr in named_tensors(model):
        if name not in trainable:
            checks.append(TensorCheck(name=name, status="skipped"))
            continue
        eligible = np.arange(arr.size)
        if name in FROZEN_ROW_TABLES:
            eligible = eligible[eligible >= arr.shape[1]]
        rng = _coord_rng(name)
        if eligible.size > coords_per_tensor:
            sample = rng.choice(eligible, size=coords_per_tensor, replace=False)
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
    model = init_parameters(
        dims, vocab, EmbeddingTable(word_matrix, trainable=trainable_words), rng
    )

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
        chunk_ordinal=0,
        labels=labels,
    )
    return model, chunk
