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
is linear in its output gradient.  GRU parameters are stored per gate (the
archive layout) and stacked where they are used: each direction does one
(B*T, D) x (D, 3H) input projection before its time loop, then one
h U_zr^T GEMM for both sigmoid gates and one (r * h) U_h^T GEMM per step.
The backward loop carries only dh and keeps every step's z | r | h
pre-activation deltas, so the weight, bias and input gradients are one GEMM
each after the loop (the fused-gate layout of Appleyard, Kocisky & Blunsom
2016, arXiv:1604.01946).

Phase separation contract: forward/backward over distinct chunks may run
concurrently against a frozen parameter snapshot; the optimizer step is the
single writer and must not interleave with reads.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chunking import PaddedChunk
from .corpus import LABEL_TO_INDEX, Vocabulary
from .features import (
    CharCnnParams,
    CharTrace,
    EmbeddingTable,
    FeatureMatrix,
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

    @property
    def hidden(self) -> int:
        return self.w_z.shape[0]

    GATE_NAMES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")


@dataclass
class DenseParams:
    w: np.ndarray  # (3, 2H)
    b: np.ndarray  # (3,)


@dataclass(frozen=True)
class ModelDims:
    word_dim: int
    pos_dim: int = 16
    char_dim: int = 24
    char_filters: int = 32
    char_widths: tuple[int, ...] = (3,)
    hidden: int = 128
    window: int = 19
    overlap: int = 2

    @property
    def char_output_dim(self) -> int:
        return self.char_filters * len(self.char_widths)

    @property
    def feature_dim(self) -> int:
        return self.word_dim + self.pos_dim + self.char_output_dim


@dataclass
class ModelParameters:
    word_table: EmbeddingTable
    pos_table: PosEmbedding
    char_params: CharCnnParams
    gru_fwd: GruDirectionParams
    gru_bwd: GruDirectionParams
    dense: DenseParams
    dims: ModelDims

    def clone(self) -> "ModelParameters":
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
            gru_fwd=_clone_gru(self.gru_fwd),
            gru_bwd=_clone_gru(self.gru_bwd),
            dense=DenseParams(self.dense.w.copy(), self.dense.b.copy()),
            dims=self.dims,
        )


def _clone_gru(p: GruDirectionParams) -> GruDirectionParams:
    return GruDirectionParams(
        *(getattr(p, name).copy() for name in GruDirectionParams.GATE_NAMES)
    )


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
    chunks: list[PaddedChunk]

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
        chunks=list(chunks),
    )


@dataclass
class DropoutPlan:
    """Pre-scaled inverted-dropout masks for one batch (None disables a site)."""

    input_mask: np.ndarray | None  # (B, T, D)
    rec_fwd: np.ndarray | None  # (B, H), reused across timesteps
    rec_bwd: np.ndarray | None  # (B, H)


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


def apply_dropout(
    row: np.ndarray, rate: float = 0.5, rng: np.random.Generator | None = None,
    training: bool = True,
) -> np.ndarray:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Identity in inference mode and at rate 0, so no rescaling is ever needed
    at prediction time.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    row = np.asarray(row, dtype=np.float64)
    if not training or rate == 0.0:
        return row
    if rng is None:
        raise ValueError("training-mode dropout needs an RNG")
    keep = rng.random(row.shape) >= rate
    return row * keep / (1.0 - rate)


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


def gru_cell_forward(
    x: np.ndarray, h_prev: np.ndarray, p: GruDirectionParams
) -> np.ndarray:
    """One GRU step over a vector (D,) or batch of row vectors (..., D)."""
    z = _sigmoid(x @ p.w_z.T + h_prev @ p.u_z.T + p.b_z)
    r = _sigmoid(x @ p.w_r.T + h_prev @ p.u_r.T + p.b_r)
    candidate = np.tanh(x @ p.w_h.T + (r * h_prev) @ p.u_h.T + p.b_h)
    return (1.0 - z) * h_prev + z * candidate


@dataclass
class DirectionCache:
    gates: np.ndarray  # (B, T, 3H) by position: z | r | candidate
    h_prev: np.ndarray  # (B, T, H) by position: state entering the step
    reverse: bool


def _stacked(p: GruDirectionParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate tensors stacked for compute: W (3H, D), U_zr (2H, H), b (3H,)."""
    return (
        np.concatenate([p.w_z, p.w_r, p.w_h]),
        np.concatenate([p.u_z, p.u_r]),
        np.concatenate([p.b_z, p.b_r, p.b_h]),
    )


def _positions(t_len: int, reverse: bool) -> range:
    return range(t_len - 1, -1, -1) if reverse else range(t_len)


def _direction_forward(
    x: np.ndarray,
    mask: np.ndarray,
    p: GruDirectionParams,
    rec_mask: np.ndarray | None,
    reverse: bool,
    out: np.ndarray,
) -> DirectionCache:
    """Run one direction, writing its states into ``out`` (B, T, H), zero at pads."""
    b, t_len, d = x.shape
    h_size = p.hidden
    w, u_zr, bias = _stacked(p)
    # Input projections of every position in one GEMM; each step then
    # overwrites its slice with the gate activations z | r | candidate.
    gates = x.reshape(b * t_len, d) @ w.T
    gates += bias
    gates = gates.reshape(b, t_len, 3 * h_size)
    h_prev = np.empty((b, t_len, h_size))
    real = mask > 0
    h = np.zeros((b, h_size))
    for t in _positions(t_len, reverse):
        h_prev[:, t] = h
        hd = h * rec_mask if rec_mask is not None else h
        g = gates[:, t]
        pre_zr = hd @ u_zr.T
        pre_zr += g[:, : 2 * h_size]
        g[:, : 2 * h_size] = _sigmoid(pre_zr)
        z = g[:, :h_size]
        r = g[:, h_size : 2 * h_size]
        pre_h = (r * hd) @ p.u_h.T
        pre_h += g[:, 2 * h_size :]
        candidate = g[:, 2 * h_size :] = np.tanh(pre_h)
        h_new = (1.0 - z) * h + z * candidate
        m = real[:, t : t + 1]
        out[:, t] = np.where(m, h_new, 0.0)
        h = np.where(m, h_new, h)
    return DirectionCache(gates, h_prev, reverse)


@dataclass
class ForwardCache:
    batch: ChunkBatch
    inputs: np.ndarray  # (B, T, D) feature rows after input dropout
    char_traces: list[CharTrace]  # one per distinct char sequence in the batch
    char_index: np.ndarray  # per real slot (row-major), its entry in char_traces
    fwd: DirectionCache
    bwd: DirectionCache
    concat: np.ndarray  # (B, T, 2H)
    probs: np.ndarray  # (B, T, 3)
    chunk_losses: np.ndarray  # (B,)
    plan: DropoutPlan | None

    @property
    def mean_loss(self) -> float:
        return float(self.chunk_losses.mean())


def _featurize_batch(
    model: ModelParameters, batch: ChunkBatch
) -> tuple[np.ndarray, list[CharTrace], np.ndarray]:
    """Feature rows, plus the char-CNN traces and the slot index into them.

    The char CNN runs once per distinct char-id sequence among the real
    slots; each real slot (in row-major order) gathers its vector through
    the returned index.
    """
    d_w = model.word_table.dim
    d_p = model.pos_table.dim
    b, t_len = batch.word_ids.shape
    rows = np.zeros((b, t_len, model.dims.feature_dim))
    # PAD rows of the tables are all zero, so gathering pad slots yields zeros.
    rows[:, :, :d_w] = model.word_table.matrix[batch.word_ids]
    rows[:, :, d_w : d_w + d_p] = model.pos_table.matrix[batch.pos_ids]
    slot_i, slot_t = np.nonzero(batch.mask > 0)
    seen: dict[bytes, int] = {}
    traces: list[CharTrace] = []
    vectors: list[np.ndarray] = []
    index = np.empty(slot_i.size, dtype=np.intp)
    for k, (i, t) in enumerate(zip(slot_i.tolist(), slot_t.tolist())):
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
        rows[slot_i, slot_t, d_w + d_p :] = np.stack(vectors)[index]
    return rows, traces, index


def forward_batch(
    model: ModelParameters, batch: ChunkBatch, plan: DropoutPlan | None = None
) -> ForwardCache:
    features, traces, char_index = _featurize_batch(model, batch)
    inputs = features * plan.input_mask if plan is not None else features
    h_size = model.dims.hidden
    concat = np.empty((batch.size, inputs.shape[1], 2 * h_size))
    fwd = _direction_forward(
        inputs, batch.mask, model.gru_fwd,
        plan.rec_fwd if plan is not None else None, reverse=False, out=concat[..., :h_size],
    )
    bwd = _direction_forward(
        inputs, batch.mask, model.gru_bwd,
        plan.rec_bwd if plan is not None else None, reverse=True, out=concat[..., h_size:],
    )
    probs = dense_softmax(concat, model.dense)
    losses = _chunk_losses(probs, batch.labels, batch.mask)
    return ForwardCache(
        batch=batch,
        inputs=inputs,
        char_traces=traces,
        char_index=char_index,
        fwd=fwd,
        bwd=bwd,
        concat=concat,
        probs=probs,
        chunk_losses=losses,
        plan=plan,
    )


def bigru_forward(
    features: FeatureMatrix, p_fwd: GruDirectionParams, p_bwd: GruDirectionParams
) -> np.ndarray:
    """Per-position concatenated forward/backward states; zero rows at pads."""
    x = features.rows[None, :, :]
    mask = features.mask[None, :].astype(np.float64)
    h_size = p_fwd.hidden
    out = np.empty((1, x.shape[1], 2 * h_size))
    _direction_forward(x, mask, p_fwd, None, reverse=False, out=out[..., :h_size])
    _direction_forward(x, mask, p_bwd, None, reverse=True, out=out[..., h_size:])
    return out[0]


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


def masked_cross_entropy(
    dist: np.ndarray, gold: Sequence, mask: np.ndarray | None = None
) -> float:
    """Sum of -log P(gold tag) over real positions; pads contribute exactly 0."""
    dist = np.asarray(dist, dtype=np.float64)
    gold_idx = np.array(
        [LABEL_TO_INDEX[g] if isinstance(g, str) else int(g) for g in gold],
        dtype=np.int64,
    )
    if mask is None:
        mask_f = np.ones(len(gold_idx))
    else:
        mask_f = np.asarray(mask, dtype=np.float64)
    labels = np.where(mask_f > 0, gold_idx, -1)
    return float(_chunk_losses(dist[None], labels[None], mask_f[None])[0])


# ---------------------------------------------------------------------------
# Backward


def _direction_backward(
    cache: DirectionCache,
    d_out: np.ndarray,
    x: np.ndarray,
    mask: np.ndarray,
    p: GruDirectionParams,
    rec_mask: np.ndarray | None,
    grads: dict[str, np.ndarray],
    prefix: str,
) -> np.ndarray:
    """Backpropagate through one GRU direction; returns d(inputs).

    The time loop only carries dh and stores each step's pre-activation
    deltas z | r | h; the weight, bias and input gradients are then one GEMM
    each over all positions.
    """
    b, t_len, d = x.shape
    h_size = p.hidden
    w, u_zr, _ = _stacked(p)
    real = mask > 0
    da = np.zeros((b, t_len, 3 * h_size))  # pre-activation deltas by position
    dh = np.zeros((b, h_size))
    for t in reversed(_positions(t_len, cache.reverse)):
        m = real[:, t : t + 1]
        h_prev = cache.h_prev[:, t]
        hd = h_prev * rec_mask if rec_mask is not None else h_prev
        g = cache.gates[:, t]
        z = g[:, :h_size]
        r = g[:, h_size : 2 * h_size]
        candidate = g[:, 2 * h_size :]
        da_t = da[:, t]

        dh_new = np.where(m, dh + d_out[:, t], 0.0)
        da_t[:, :h_size] = dh_new * (candidate - h_prev) * z * (1.0 - z)
        da_h = da_t[:, 2 * h_size :] = dh_new * z * (1.0 - candidate * candidate)
        drh = da_h @ p.u_h
        da_t[:, h_size : 2 * h_size] = drh * hd * r * (1.0 - r)
        dhd = drh * r
        dhd += da_t[:, : 2 * h_size] @ u_zr
        dh = np.where(m, dh_new * (1.0 - z), dh)
        dh += dhd * rec_mask if rec_mask is not None else dhd

    da = da.reshape(b * t_len, 3 * h_size)
    hd_all = cache.h_prev * rec_mask[:, None, :] if rec_mask is not None else cache.h_prev
    rh_all = cache.gates[..., h_size : 2 * h_size] * hd_all
    d_w = da.T @ x.reshape(b * t_len, d)
    d_b = da.sum(axis=0)
    d_u = np.concatenate([
        da[:, : 2 * h_size].T @ hd_all.reshape(b * t_len, h_size),
        da[:, 2 * h_size :].T @ rh_all.reshape(b * t_len, h_size),
    ])
    stacked = {"w": d_w, "u": d_u, "b": d_b}
    for name in GruDirectionParams.GATE_NAMES:
        kind, gate = name.split("_")
        k = "zrh".index(gate)
        grads[f"{prefix}.{name}"] = stacked[kind][k * h_size : (k + 1) * h_size]
    return (da @ w).reshape(b, t_len, d)


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
    d_concat = dlogits @ model.dense.w

    dx = _direction_backward(
        cache.fwd, d_concat[..., :h_size], cache.inputs, batch.mask, model.gru_fwd,
        cache.plan.rec_fwd if cache.plan is not None else None, grads, "gru_fwd",
    )
    dx += _direction_backward(
        cache.bwd, d_concat[..., h_size:], cache.inputs, batch.mask, model.gru_bwd,
        cache.plan.rec_bwd if cache.plan is not None else None, grads, "gru_bwd",
    )
    if cache.plan is not None and cache.plan.input_mask is not None:
        dx = dx * cache.plan.input_mask

    d_w = model.word_table.dim
    d_p = model.pos_table.dim
    real = batch.mask > 0
    if model.word_table.trainable:
        g_word = np.zeros_like(model.word_table.matrix)
        np.add.at(g_word, batch.word_ids[real], dx[..., :d_w][real])
        g_word[0] = 0.0
        grads["word_table"] = g_word
    g_pos = np.zeros_like(model.pos_table.matrix)
    np.add.at(g_pos, batch.pos_ids[real], dx[..., d_w : d_w + d_p][real])
    g_pos[0] = 0.0
    grads["pos_table"] = g_pos

    # The char CNN's backward is linear in d(output), so slots that share a
    # char sequence (and so a trace) can sum their gradients first.
    char = model.char_params
    d_chars = np.zeros((len(cache.char_traces), char.output_dim))
    np.add.at(d_chars, cache.char_index, dx[..., d_w + d_p :][real])
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
        overlap=2,
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
