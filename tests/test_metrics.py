from __future__ import annotations

import numpy as np
import pytest

from clinspan.metrics import (
    EvalResult,
    evaluate,
    evaluation_report,
    porcelain_report,
    prf,
    span_match_counts,
    token_accuracy,
)


def brute_force_counts(gold, predicted):
    """Quadratic reference implementation: no sets, no sorting."""
    tp = fp = fn = 0
    for g_sent, p_sent in zip(gold, predicted):
        seen_p = [False] * len(p_sent)
        for g in g_sent:
            hit = False
            for j, p in enumerate(p_sent):
                if not seen_p[j] and p == g:
                    seen_p[j] = True
                    hit = True
                    break
            if hit:
                tp += 1
            else:
                fn += 1
        fp += seen_p.count(False)
    return tp, fp, fn


def random_span_list(rng, length):
    spans = []
    cursor = 0
    while cursor < length:
        start = int(rng.integers(cursor, length))
        end = int(rng.integers(start + 1, length + 1))
        if rng.random() < 0.6:
            spans.append((start, end))
        cursor = end + 1
    return spans


class TestSpanMatchCounts:
    def test_exact_match(self):
        assert span_match_counts([[(0, 4)]], [[(0, 4)]]) == (1, 0, 0)

    def test_misboundary_is_double_error(self):
        assert span_match_counts([[(0, 4)]], [[(0, 3)]]) == (0, 1, 1)

    def test_mixed_sentence(self):
        gold = [[(0, 2), (5, 7)]]
        pred = [[(0, 2), (4, 7), (8, 9)]]
        assert span_match_counts(gold, pred) == (1, 2, 1)

    def test_counts_pool_across_sentences(self):
        gold = [[(0, 2)], [(1, 3)]]
        pred = [[(0, 2)], [(0, 3)]]
        assert span_match_counts(gold, pred) == (1, 1, 1)

    def test_overlapping_input_spans_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            span_match_counts([[(0, 3), (2, 5)]], [[]])
        with pytest.raises(ValueError, match="overlap"):
            span_match_counts([[]], [[(0, 3), (2, 5)]])

    def test_sentence_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            span_match_counts([[], []], [[]])

    def test_brute_force_agreement_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            gold = [random_span_list(rng, int(rng.integers(1, 31))) for _ in range(n)]
            pred = [random_span_list(rng, int(rng.integers(1, 31))) for _ in range(n)]
            assert span_match_counts(gold, pred) == brute_force_counts(gold, pred)

    def test_micro_equals_concatenation(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            gold, pred = [], []
            offset_free_gold, offset_free_pred = [], []
            for _ in range(n):
                length = int(rng.integers(1, 20))
                g = random_span_list(rng, length)
                p = random_span_list(rng, length)
                gold.append(g)
                pred.append(p)
                offset_free_gold.append(g)
                offset_free_pred.append(p)
            per_sentence = span_match_counts(gold, pred)
            pooled = tuple(
                sum(span_match_counts([g], [p])[k] for g, p in zip(gold, pred))
                for k in range(3)
            )
            assert per_sentence == pooled


class TestPrf:
    def test_closed_form_example(self):
        precision, recall, f1 = prf((9, 1, 2))
        assert precision == pytest.approx(9 / 10, abs=1e-15)
        assert recall == pytest.approx(9 / 11, abs=1e-15)
        assert f1 == pytest.approx(6 / 7, abs=1e-15)

    def test_vacuous_perfection(self):
        assert prf((0, 0, 0)) == (1.0, 1.0, 1.0)

    def test_all_errors(self):
        assert prf((0, 5, 5)) == (0.0, 0.0, 0.0)

    def test_one_sided_zero_denominators(self):
        precision, recall, f1 = prf((0, 0, 5))
        assert (precision, recall, f1) == (1.0, 0.0, 0.0)
        precision, recall, f1 = prf((0, 5, 0))
        assert (precision, recall, f1) == (0.0, 1.0, 0.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            prf((-1, 0, 0))

    def test_f1_between_min_and_max(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            tp = int(rng.integers(1, 50))
            fp = int(rng.integers(0, 50))
            fn = int(rng.integers(0, 50))
            precision, recall, f1 = prf((tp, fp, fn))
            assert min(precision, recall) - 1e-12 <= f1 <= max(precision, recall) + 1e-12

    def test_symmetry_swaps_precision_and_recall(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            counts = tuple(int(v) for v in rng.integers(0, 20, size=3))
            p1, r1, f1 = prf(counts)
            p2, r2, f2 = prf((counts[0], counts[2], counts[1]))
            assert (p1, r1) == (r2, p2)
            assert f1 == pytest.approx(f2, abs=1e-15)

    def test_symmetry_via_span_counts(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            gold = [random_span_list(rng, 15) for _ in range(3)]
            pred = [random_span_list(rng, 15) for _ in range(3)]
            tp1, fp1, fn1 = span_match_counts(gold, pred)
            tp2, fp2, fn2 = span_match_counts(pred, gold)
            assert (tp1, fp1, fn1) == (tp2, fn2, fp2)


class TestTokenAccuracy:
    def test_identical(self):
        assert token_accuracy([["B", "I", "O"]], [["B", "I", "O"]]) == 1.0

    def test_two_of_three(self):
        assert token_accuracy([["B", "I", "O"]], [["B", "O", "O"]]) == pytest.approx(2 / 3)

    def test_majority_class_baseline(self):
        # 97 O tokens plus one 3-token concept: an all-O tagger scores 0.97
        # accuracy while span F1 is 0.
        gold_tags = ["O"] * 97 + ["B", "I", "I"]
        pred_tags = ["O"] * 100
        accuracy = token_accuracy([gold_tags], [pred_tags])
        assert accuracy == pytest.approx(0.97, abs=1e-15)
        gold_spans = [[(97, 100)]]
        pred_spans = [[]]
        _, _, f1 = prf(span_match_counts(gold_spans, pred_spans))
        assert f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sentence 0"):
            token_accuracy([["B", "I"]], [["B"]])

    def test_sentence_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            token_accuracy([["B"]], [["B"], ["O"]])


class TestEvaluationReport:
    def test_published_row_format(self):
        result = EvalResult(
            true_positives=0, false_positives=0, false_negatives=0,
            precision=0.93, recall=0.89, f1=0.90, token_accuracy=0.97,
        )
        report = evaluation_report(result)
        assert report == "Precision Recall F1-score Accuracy\n0.93 0.89 0.90 0.97\n"

    def test_perfect_row(self):
        result = EvalResult(1, 0, 0, 1.0, 1.0, 1.0, token_accuracy=1.0)
        assert evaluation_report(result).splitlines()[1] == "1.00 1.00 1.00 1.00"

    def test_rounding_is_half_even(self):
        result = EvalResult(0, 0, 0, 0.8949, 0.125, 0.135, token_accuracy=0.875)
        row = evaluation_report(result).splitlines()[1]
        # 0.8949 -> 0.89; banker's rounding sends 0.125 down and 0.875 up...
        assert row.split() == ["0.89", "0.12", "0.14", "0.88"]

    def test_missing_accuracy_renders_dash(self):
        result = EvalResult(0, 0, 0, 1.0, 1.0, 1.0, token_accuracy=None)
        assert evaluation_report(result).splitlines()[1].endswith(" -")

    def test_evaluate_composes_counts_and_accuracy(self):
        result = evaluate(
            [[(0, 2)]], [[(0, 2)]], [["B", "I", "O"]], [["B", "I", "O"]]
        )
        assert (result.precision, result.recall, result.f1) == (1.0, 1.0, 1.0)
        assert result.token_accuracy == 1.0
        assert result.tokens_total == 3

    def test_porcelain_block(self):
        result = evaluate([[(0, 2)]], [[(0, 3)]], [["B", "I", "O"]], [["B", "I", "I"]])
        text = porcelain_report(result)
        assert "tp=0" in text and "fp=1" in text and "fn=1" in text
        assert "precision=0.000000" in text
        assert "accuracy=0.666667" in text
