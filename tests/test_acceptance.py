"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""
from __future__ import annotations

import contextlib
import math
import time

import numpy as np
import pytest

from clinspan.chunking import ChunkConfig, chunk_count, chunk_sentence, merge_chunk_predictions
from clinspan.cli import build_parser, build_run_config, main
from clinspan.corpus import LABELS, build_vocab, parse_corpus, stratified_split
from clinspan.features import load_embeddings
from clinspan.metrics import (
    EvalResult,
    evaluation_report,
    prf,
    span_match_counts,
)
from clinspan.neural import build_probe, finite_difference_check, named_tensors
from clinspan.tagger import (
    ArchiveChecksumError,
    ArchiveVersionError,
    ConceptSpan,
    TrainConfig,
    annotate_sentence,
    decode_iob,
    gold_spans,
    load_model,
    predict_corpus_labels,
    save_model,
    spans_to_iob,
    train,
)

from conftest import DATA_DIR, make_corpus, make_sentence


@contextlib.contextmanager
def verdict(criterion: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion}: FAIL")
        raise
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_gradient_correctness():
    with verdict("1 gradient correctness"):
        started = time.monotonic()
        model, chunk = build_probe(
            seed=0, hidden=4, word_dim=4, pos_dim=2, char_dim=3,
            char_filters=2, char_widths=(3,), real_tokens=5,
        )
        report = finite_difference_check(model, chunk, step=1e-5, tolerance=1e-4)
        elapsed = time.monotonic() - started
        assert report.ok, report.format()
        checked = [c for c in report.checks if c.status == "passed"]
        assert all(c.max_rel_error < 1e-4 for c in checked)
        # Every trainable tensor is checked; only the frozen word table is not.
        assert [c.name for c in report.checks if c.status == "skipped"] == ["word_table"]
        assert elapsed < 10.0, f"gradcheck took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def overfit_run():
    with open(DATA_DIR / "overfit_corpus.txt", encoding="utf-8") as fh:
        corpus = parse_corpus(fh)
    vocab = build_vocab(corpus)
    with open(DATA_DIR / "overfit_embeddings.txt", encoding="utf-8") as fh:
        embeddings = load_embeddings(fh, vocab)
    config = TrainConfig(epochs=200, early_stop_patience=0)
    started = time.monotonic()
    model, history = train(corpus, embeddings, config, vocab=vocab)
    elapsed = time.monotonic() - started
    return corpus, vocab, config, model, history, elapsed


def test_criterion_2_overfit_oracle(overfit_run):
    with verdict("2 overfit oracle"):
        corpus, vocab, config, model, history, elapsed = overfit_run
        assert len(corpus.sentences) == 20
        assert elapsed < 120.0, f"training took {elapsed:.1f}s"

        split = stratified_split(corpus, config.valid_fraction, config.seed)
        train_sents = split.train.sentences
        chunk_config = config.chunk_config

        # Uniform-prediction baseline computed independently of train().
        token_count = sum(
            c.real_count
            for s in train_sents
            for c in chunk_sentence(s, vocab, chunk_config)
        )
        uniform_loss = token_count * math.log(3.0)
        assert history.final_train_loss() < 0.05 * uniform_loss

        predicted = predict_corpus_labels(model, vocab, train_sents, chunk_config)
        gold = [[(s.start, s.end) for s in gold_spans(x)] for x in train_sents]
        pred = [[(s.start, s.end) for s in decode_iob(tags)] for tags in predicted]
        _, _, f1 = prf(span_match_counts(gold, pred))
        assert f1 >= 0.99, f"train span F1 {f1:.4f}"


def test_criterion_3_chunking_conformance():
    with verdict("3 chunking conformance"):
        config = ChunkConfig(window=19, overlap=2)
        rng = np.random.default_rng(0)
        for length in range(1, 501):
            labels = [LABELS[i] for i in rng.integers(0, 3, size=length)]
            sentence = make_sentence(list(zip((f"w{i}" for i in range(length)), labels)))
            vocab = build_vocab(make_corpus([sentence]))
            chunks = chunk_sentence(sentence, vocab, config)
            assert len(chunks) == chunk_count(length, config)
            covered = np.zeros(length, dtype=bool)
            for chunk in chunks:
                assert chunk.sentence_offset == chunk.chunk_ordinal * 17
                covered[chunk.sentence_offset : chunk.sentence_offset + chunk.real_count] = True
            assert covered.all()
            for a, b in zip(chunks, chunks[1:]):
                shared = a.sentence_offset + a.real_count - b.sentence_offset
                assert shared == 2
            pairs = [(c, [LABELS[i] for i in c.labels[: c.real_count]]) for c in chunks]
            assert merge_chunk_predictions(pairs) == labels


def test_criterion_4_metrics_oracle():
    with verdict("4 metrics oracle"):
        rng = np.random.default_rng(1)

        def random_spans(length):
            spans, cursor = [], 0
            while cursor < length:
                start = int(rng.integers(cursor, length))
                end = int(rng.integers(start + 1, length + 1))
                if rng.random() < 0.6:
                    spans.append((start, end))
                cursor = end + 1
            return spans

        def brute_force(gold, pred):
            tp = fp = fn = 0
            for g_sent, p_sent in zip(gold, pred):
                used = [False] * len(p_sent)
                for g in g_sent:
                    found = False
                    for j, p in enumerate(p_sent):
                        if not used[j] and p == g:
                            used[j] = True
                            found = True
                            break
                    if found:
                        tp += 1
                    else:
                        fn += 1
                fp += used.count(False)
            return tp, fp, fn

        for _ in range(1000):
            length = int(rng.integers(1, 31))
            gold = [random_spans(length)]
            pred = [random_spans(length)]
            assert span_match_counts(gold, pred) == brute_force(gold, pred)

        precision, recall, f1 = prf((9, 1, 2))
        assert abs(precision - 0.9) < 1e-9
        assert abs(recall - 9 / 11) < 1e-9
        assert abs(f1 - 6 / 7) < 1e-9
        assert abs(recall - 0.818181818181818) < 1e-9
        assert abs(f1 - 0.857142857142857) < 1e-9


def test_criterion_5_iob_decode():
    with verdict("5 IOB decode"):
        assert [(s.start, s.end) for s in decode_iob(["B", "I", "I", "I"])] == [(0, 4)]
        assert [(s.start, s.end) for s in decode_iob(["I", "O", "B", "I"])] == [
            (0, 1), (2, 4),
        ]
        rng = np.random.default_rng(2)
        for _ in range(1000):
            length = int(rng.integers(1, 40))
            spans, cursor = [], 0
            while cursor < length:
                start = int(rng.integers(cursor, length))
                end = int(rng.integers(start + 1, length + 1))
                if rng.random() < 0.5:
                    spans.append(ConceptSpan(start, end))
                cursor = end + 1
            decoded = decode_iob(spans_to_iob(spans, length))
            assert [(s.start, s.end) for s in decoded] == [
                (s.start, s.end) for s in spans
            ]


def test_criterion_6_hyperparameter_fidelity():
    with verdict("6 hyperparameter fidelity"):
        published = {
            "window": 19,
            "overlap": 2,
            "lr": 0.001,
            "clip_norm": 5.0,
            "dropout": 0.5,
            "epochs": 15,
            "valid_fraction": 0.2,
        }
        train_config = TrainConfig()
        cli_config, _ = build_run_config(build_parser().parse_args(["train"]))
        for key, value in published.items():
            assert getattr(train_config, key) == value, key
            assert getattr(cli_config, key) == value, key


def test_criterion_7_report_fidelity():
    with verdict("7 report fidelity"):
        result = EvalResult(
            true_positives=0, false_positives=0, false_negatives=0,
            precision=0.93, recall=0.89, f1=0.90, token_accuracy=0.97,
        )
        lines = evaluation_report(result).splitlines()
        assert lines[0] == "Precision Recall F1-score Accuracy"
        assert lines[1] == "0.93 0.89 0.90 0.97"


def test_criterion_8_persistence(tmp_path, overfit_run):
    with verdict("8 persistence"):
        corpus, vocab, config, model, _, _ = overfit_run
        path = tmp_path / "model.bin"
        save_model(model, vocab, str(path))
        loaded, loaded_vocab = load_model(str(path))
        for (name, a), (_, b) in zip(named_tensors(model), named_tensors(loaded)):
            assert a.tobytes() == b.tobytes(), f"tensor {name} not bit-identical"
        assert loaded_vocab == vocab

        probe = corpus.sentences[0]
        chunk_config = config.chunk_config
        assert annotate_sentence(model, vocab, probe, chunk_config) == (
            annotate_sentence(loaded, loaded_vocab, probe, chunk_config)
        )

        blob = path.read_bytes()
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(blob[:-1])
        with pytest.raises(ArchiveChecksumError):
            load_model(str(truncated))

        flipped = bytearray(blob)
        flipped[8] ^= 0x01
        versioned = tmp_path / "versioned.bin"
        versioned.write_bytes(bytes(flipped))
        with pytest.raises(ArchiveVersionError):
            load_model(str(versioned))


def test_criterion_9_determinism(tmp_path):
    with verdict("9 determinism"):
        outputs = []
        for run_dir in ("a", "b"):
            base = tmp_path / run_dir
            base.mkdir()
            model_path = base / "model.bin"
            history_path = base / "history.txt"
            code = main([
                "train",
                "--corpus", str(DATA_DIR / "overfit_corpus.txt"),
                "--embeddings", str(DATA_DIR / "overfit_embeddings.txt"),
                "--model", str(model_path),
                "--history", str(history_path),
                "--epochs", "3",
                "--hidden", "8",
                "--char-filters", "4",
                "--pos-dim", "4",
                "--char-dim", "4",
            ])
            assert code == 0
            outputs.append((model_path.read_bytes(), history_path.read_bytes()))
        assert outputs[0][0] == outputs[1][0], "archives differ"
        assert outputs[0][1] == outputs[1][1], "history files differ"
