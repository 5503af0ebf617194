"""Exact-span micro-averaged precision/recall/F1 and token accuracy.

Spans are ``(start, end)`` pairs of a half-open token interval, given as one
list per sentence.  They match only when start and end both agree within the
same sentence; partial overlap counts as one false positive plus one false
negative.  Counts are pooled over all sentences before any ratio is taken
(micro-averaging).  Everything here is pure and order-independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class EvalResult:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float
    token_accuracy: float | None = None
    tokens_total: int = 0


def _check_interval(span: tuple[int, int]) -> tuple[int, int]:
    start, end = span
    if not 0 <= start < end:
        raise ValueError(f"invalid span [{start}, {end})")
    return start, end


def _check_no_overlap(keys: list[tuple[int, int]], which: str) -> None:
    ordered = sorted(keys)
    for a, b in zip(ordered, ordered[1:]):
        if b[0] < a[1]:
            raise ValueError(
                f"{which} spans overlap: [{a[0]}, {a[1]}) and [{b[0]}, {b[1]})"
            )


def span_match_counts(
    gold: Sequence[Sequence[tuple[int, int]]],
    predicted: Sequence[Sequence[tuple[int, int]]],
) -> tuple[int, int, int]:
    """(TP, FP, FN) over aligned per-sentence lists of (start, end) pairs,
    pooled micro-style.  Raises ValueError for an empty or negative interval
    or for overlapping spans on one side."""
    if len(gold) != len(predicted):
        raise ValueError(
            f"gold has {len(gold)} sentences, predictions have {len(predicted)}"
        )
    tp = fp = fn = 0
    for gold_sent, pred_sent in zip(gold, predicted):
        g_keys = [_check_interval(s) for s in gold_sent]
        p_keys = [_check_interval(s) for s in pred_sent]
        _check_no_overlap(g_keys, "gold")
        _check_no_overlap(p_keys, "predicted")
        g_set, p_set = set(g_keys), set(p_keys)
        tp += len(g_set & p_set)
        fp += len(p_set - g_set)
        fn += len(g_set - p_set)
    return tp, fp, fn


def prf(counts: tuple[int, int, int]) -> tuple[float, float, float]:
    """Precision, recall, F1 with documented zero-denominator conventions:
    no predictions and no gold means vacuous perfection (1.0); otherwise a
    zero denominator yields 0 through the harmonic mean."""
    tp, fp, fn = counts
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be non-negative")
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    if tp == 0 and fp == 0 and fn == 0:
        f1 = 1.0
    elif precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def token_accuracy(
    gold_tags: Sequence[Sequence[str]], pred_tags: Sequence[Sequence[str]]
) -> float:
    """Exact-match fraction over real tokens (inputs carry no pads)."""
    if len(gold_tags) != len(pred_tags):
        raise ValueError(
            f"gold has {len(gold_tags)} sentences, predictions have {len(pred_tags)}"
        )
    total = correct = 0
    for i, (g, p) in enumerate(zip(gold_tags, pred_tags)):
        if len(g) != len(p):
            raise ValueError(
                f"sentence {i}: gold has {len(g)} tokens, prediction has {len(p)}"
            )
        total += len(g)
        correct += sum(1 for a, b in zip(g, p) if a == b)
    if total == 0:
        return 1.0
    return correct / total


def evaluate(
    gold_spans: Sequence[Sequence[tuple[int, int]]],
    pred_spans: Sequence[Sequence[tuple[int, int]]],
    gold_tags: Sequence[Sequence[str]] | None = None,
    pred_tags: Sequence[Sequence[str]] | None = None,
) -> EvalResult:
    counts = span_match_counts(gold_spans, pred_spans)
    precision, recall, f1 = prf(counts)
    accuracy = None
    total = 0
    if gold_tags is not None and pred_tags is not None:
        accuracy = token_accuracy(gold_tags, pred_tags)
        total = sum(len(s) for s in gold_tags)
    return EvalResult(
        true_positives=counts[0],
        false_positives=counts[1],
        false_negatives=counts[2],
        precision=precision,
        recall=recall,
        f1=f1,
        token_accuracy=accuracy,
        tokens_total=total,
    )


def evaluation_report(result: EvalResult) -> str:
    """Two-line table: metric names, then values rounded half-even to 2 dp."""
    accuracy = "-" if result.token_accuracy is None else f"{result.token_accuracy:.2f}"
    header = "Precision Recall F1-score Accuracy"
    row = f"{result.precision:.2f} {result.recall:.2f} {result.f1:.2f} {accuracy}"
    return f"{header}\n{row}\n"


def porcelain_report(result: EvalResult) -> str:
    lines = [
        f"tp={result.true_positives}",
        f"fp={result.false_positives}",
        f"fn={result.false_negatives}",
        f"precision={result.precision:.6f}",
        f"recall={result.recall:.6f}",
        f"f1={result.f1:.6f}",
    ]
    if result.token_accuracy is not None:
        lines.append(f"accuracy={result.token_accuracy:.6f}")
        lines.append(f"tokens={result.tokens_total}")
    return "\n".join(lines) + "\n"
