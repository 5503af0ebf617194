"""Checks made apart from the program: a per-chunk reference forward, an IOB
decoder and span scorer, and self-tests of the scorer.

Nothing here calls into clinspan; the reference forward reads the model's
tensors and follows the GRU equations of the ``clinspan.neural`` docstring:

    z = sigmoid(W_z x + U_z h_prev + b_z)
    r = sigmoid(W_r x + U_r h_prev + b_r)
    h~ = tanh(W_h x + U_h (r * h_prev) + b_h)
    h  = (1 - z) * h_prev + z * h~
"""
from __future__ import annotations

import itertools
import random

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own result."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Reference forward for one chunk


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _char_vector(chars: np.ndarray, model) -> np.ndarray:
    """Max-over-time ReLU convolution, one loop per filter bank.

    Trailing PAD (0) characters are dropped; a token shorter than a kernel is
    left-padded with PAD, whose embedding row is zero.
    """
    cp = model.char_params
    chars = [int(c) if 0 <= c < cp.char_table.shape[0] else 1 for c in chars]
    while len(chars) > 1 and chars[-1] == 0:
        chars.pop()
    out = []
    for width, filters, bias in zip(cp.widths, cp.filters, cp.biases):
        seq = [0] * max(0, width - len(chars)) + chars
        best = np.zeros(filters.shape[0])
        for start in range(len(seq) - width + 1):
            window = cp.char_table[seq[start : start + width]]  # (k, D_c)
            act = np.maximum(np.einsum("fkd,kd->f", filters, window) + bias, 0.0)
            best = act if start == 0 else np.maximum(best, act)
        out.append(best)
    return np.concatenate(out)


def _gru_pass(xs: list[np.ndarray], p) -> list[np.ndarray]:
    h = np.zeros(p.w_z.shape[0])
    states = []
    for x in xs:
        z = _sigmoid(p.w_z @ x + p.u_z @ h + p.b_z)
        r = _sigmoid(p.w_r @ x + p.u_r @ h + p.b_r)
        cand = np.tanh(p.w_h @ x + p.u_h @ (r * h) + p.b_h)
        h = (1.0 - z) * h + z * cand
        states.append(h)
    return states


def reference_probs(model, chunk) -> np.ndarray:
    """Tag probabilities (real slots, 3) for one padded chunk, dropout-free."""
    real = int(np.asarray(chunk.mask).sum())
    xs = []
    for t in range(real):
        xs.append(
            np.concatenate(
                [
                    model.word_table.matrix[chunk.word_ids[t]],
                    model.pos_table.matrix[chunk.pos_ids[t]],
                    _char_vector(np.asarray(chunk.char_ids[t]), model),
                ]
            )
        )
    fwd = _gru_pass(xs, model.gru_fwd)
    bwd = _gru_pass(xs[::-1], model.gru_bwd)[::-1]
    probs = []
    for t in range(real):
        logits = model.dense.w @ np.concatenate([fwd[t], bwd[t]]) + model.dense.b
        e = np.exp(logits - logits.max())
        probs.append(e / e.sum())
    return np.array(probs)


def reference_error(model, chunk, probs: np.ndarray) -> float:
    """Max abs difference between one chunk's forward_batch probability rows
    and the reference, over its real slots."""
    ref = reference_probs(model, chunk)
    return float(np.max(np.abs(ref - probs[: len(ref)])))


# ---------------------------------------------------------------------------
# IOB decoding and exact-span scoring


def spans_of(tags) -> set[tuple[int, int]]:
    """Maximal B I* runs as half-open spans; an I after O or at 0 opens one."""
    spans = set()
    start = None
    for i, tag in enumerate(tags):
        if tag == "B" or (tag == "I" and start is None):
            if start is not None:
                spans.add((start, i))
            start = i
        elif tag == "O":
            if start is not None:
                spans.add((start, i))
            start = None
    if start is not None:
        spans.add((start, len(tags)))
    return spans


def span_counts(gold: list[set], pred: list[set]) -> tuple[int, int, int]:
    require(len(gold) == len(pred), "gold and predicted sentence counts differ")
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    return tp, fp, fn


def f1_of(counts: tuple[int, int, int]) -> float:
    tp, fp, fn = counts
    if tp + fp + fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def check_tags(tag_lists, lengths) -> None:
    require(len(tag_lists) == len(lengths), "one tag sequence per sentence expected")
    for i, (tags, n) in enumerate(zip(tag_lists, lengths)):
        require(len(tags) == n, f"sentence {i}: {len(tags)} tags for {n} tokens")
        require(set(tags) <= {"B", "I", "O"}, f"sentence {i}: tag outside B/I/O")


def read_labels(path) -> list[list[str]]:
    """Third column of a column-format corpus, one list per sentence."""
    sentences, current = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line == "-DOCSTART-":
                if current:
                    sentences.append(current)
                    current = []
                continue
            current.append(line.split()[2])
    if current:
        sentences.append(current)
    return sentences


def _brute_force_counts(gold_tags, pred_tags) -> tuple[int, int, int]:
    """Span matching by enumerating every interval of every sentence."""
    tp = fp = fn = 0
    for g, p in zip(gold_tags, pred_tags):
        for a in range(len(g)):
            for b in range(a + 1, len(g) + 1):
                in_g = _is_span(g, a, b)
                in_p = _is_span(p, a, b)
                tp += in_g and in_p
                fp += in_p and not in_g
                fn += in_g and not in_p
    return tp, fp, fn


def _is_span(tags, a: int, b: int) -> bool:
    opens = tags[a] == "B" or (tags[a] == "I" and (a == 0 or tags[a - 1] == "O"))
    inside = all(t == "I" for t in tags[a + 1 : b])
    closes = b == len(tags) or tags[b] != "I"
    return opens and inside and closes


def self_test_scorer(rng_seed: int = 0, trials: int = 300) -> None:
    rng = random.Random(rng_seed)
    for length in range(1, 5):  # every tag sequence up to length 4
        for tags in itertools.product("BIO", repeat=length):
            brute = {(a, b) for a in range(length) for b in range(a + 1, length + 1)
                     if _is_span(tags, a, b)}
            require(spans_of(tags) == brute, f"decoder disagrees with brute force on {tags}")
    for _ in range(trials):
        n = rng.randint(1, 12)
        g = [[rng.choice("BIO") for _ in range(rng.randint(1, 9))] for _ in range(n)]
        p = [[rng.choice("BIOO") for _ in s] for s in g]
        counts = span_counts([spans_of(s) for s in g], [spans_of(s) for s in p])
        require(counts == _brute_force_counts(g, p), "scorer disagrees with brute force")
