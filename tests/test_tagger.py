from __future__ import annotations

import builtins
import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinspan import neural, tagger
from clinspan.chunking import ChunkConfig, chunk_sentence, chunk_table
from clinspan.corpus import (
    LABELS, UNK_INDEX, ConceptSpan, build_vocab, decode_iob, parse_corpus, stratified_split,
)
from clinspan.features import EmbeddingTable, load_embeddings
from clinspan.metrics import prf, span_match_counts
from clinspan.neural import (
    AdamState,
    NumericError,
    adam_step,
    backward_from_cache,
    batch_chunks,
    build_probe,
    forward_batch,
    named_tensors,
)
from clinspan.tagger import (
    ArchiveChecksumError,
    ArchiveError,
    ArchiveVersionError,
    EVAL_BATCH,
    TrainConfig,
    annotate_sentence,
    format_history,
    load_model,
    predict_corpus_labels,
    save_model,
    train,
    write_atomic,
)

from conftest import (
    DATA_DIR, PROBE_VOCAB, chunk_backward, chunk_probe, count_spans, make_corpus, make_sentence,
    merge_by_loop, spans_to_iob,
)


class TestDecodeIob:
    def test_worked_example(self):
        spans = decode_iob(["B", "I", "I", "I"])
        assert [(s.start, s.end) for s in spans] == [(0, 4)]

    def test_all_outside(self):
        assert decode_iob(["O", "O", "O"]) == []

    def test_orphan_inside_repair(self):
        spans = decode_iob(["I", "O", "B", "I"])
        assert [(s.start, s.end) for s in spans] == [(0, 1), (2, 4)]

    def test_adjacent_spans(self):
        spans = decode_iob(["B", "B", "I", "B"])
        assert [(s.start, s.end) for s in spans] == [(0, 1), (1, 3), (3, 4)]

    def test_span_open_at_sentence_end(self):
        spans = decode_iob(["O", "B", "I"])
        assert [(s.start, s.end) for s in spans] == [(1, 3)]

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_iob(["B", "Q"])

    @given(st.lists(st.sampled_from("BIO"), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_spans_well_formed_and_bounded(self, tags):
        spans = decode_iob(tags)
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start  # ordered, non-overlapping
        for s in spans:
            assert 0 <= s.start < s.end <= len(tags)
        starts = sum(1 for i, t in enumerate(tags)
                     if t == "B" or (t == "I" and (i == 0 or tags[i - 1] == "O")))
        assert len(spans) <= starts

    @given(st.lists(st.sampled_from("BIO"), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_independent_span_counter(self, tags):
        assert len(decode_iob(tags)) == count_spans(tags)


@st.composite
def span_sets(draw):
    length = draw(st.integers(min_value=1, max_value=30))
    spans = []
    cursor = 0
    while cursor < length:
        start = draw(st.integers(min_value=cursor, max_value=length - 1))
        end = draw(st.integers(min_value=start + 1, max_value=length))
        if draw(st.booleans()):
            spans.append(ConceptSpan(start, end))
        cursor = end + 1
    return length, spans


class TestSpansToIob:
    def test_encode_simple(self):
        tags = spans_to_iob([ConceptSpan(1, 3)], 4)
        assert tags == ["O", "B", "I", "O"]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            spans_to_iob([ConceptSpan(0, 2), ConceptSpan(1, 3)], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            spans_to_iob([ConceptSpan(2, 9)], 4)

    @given(span_sets())
    @settings(max_examples=300, deadline=None)
    def test_round_trip_identity(self, case):
        length, spans = case
        decoded = decode_iob(spans_to_iob(spans, length))
        assert [(s.start, s.end) for s in decoded] == [
            (s.start, s.end) for s in spans
        ]


class TestConceptSpan:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            ConceptSpan(3, 3)
        with pytest.raises(ValueError):
            ConceptSpan(-1, 2)


def _zeroed(model):
    for _, arr in named_tensors(model):
        arr[:] = 0.0
    return model


class TestAnnotateSentence:
    def _model_vocab(self, seed=0):
        return chunk_probe(seed=seed, window=19)[0], PROBE_VOCAB

    def test_zero_model_tie_break_gives_single_token_b_spans(self):
        model, vocab = self._model_vocab()
        _zeroed(model)
        sentence = make_sentence([("w0", "O")])
        spans = annotate_sentence(model, vocab, sentence, ChunkConfig())
        assert [(s.start, s.end) for s in spans] == [(0, 1)]

    def test_spans_carry_sentence_ref(self):
        model, vocab = self._model_vocab()
        _zeroed(model)  # every token ties, and B wins: one span per token
        sentence = make_sentence([("w0", "O"), ("w1", "O")], doc_id="d7", sent_index=4)
        spans = annotate_sentence(model, vocab, sentence, ChunkConfig())
        assert [(s.doc_id, s.sent_index, s.start, s.end) for s in spans] == [
            ("d7", 4, 0, 1), ("d7", 4, 1, 2)
        ]

    def test_inference_is_pure(self):
        model, vocab = self._model_vocab(seed=1)
        sentence = make_sentence([(f"w{i % 6}", "O") for i in range(25)])
        first = annotate_sentence(model, vocab, sentence, ChunkConfig())
        second = annotate_sentence(model, vocab, sentence, ChunkConfig())
        assert first == second

    @pytest.mark.parametrize("batch_size", [1, 3, EVAL_BATCH])
    def test_predictions_equal_merged_tag_strings(self, batch_size):
        # Sentences of 1, 2, 3 and 4 chunks; a batch of 3 splits some sentences.
        model, vocab = self._model_vocab(seed=1)
        config = ChunkConfig()
        sentences = [
            make_sentence([(f"w{(i * 5 + n) % 7}", "O") for i in range(n)], sent_index=n)
            for n in (5, 25, 40, 60)
        ]
        expected = []
        for sentence in sentences:
            chunks = chunk_sentence(sentence, vocab, config)
            pairs = []
            for chunk in chunks:
                probs = forward_batch(model, batch_chunks([chunk])).probs[0]
                pairs.append((chunk, [LABELS[k] for k in np.argmax(probs[: chunk.real_count], -1)]))
            expected.append(merge_by_loop(pairs))
        assert [len(chunk_sentence(s, vocab, config)) for s in sentences] == [1, 2, 3, 4]
        assert len({tag for tags in expected for tag in tags}) > 1
        assert predict_corpus_labels(model, vocab, sentences, config, batch_size) == expected

    def test_oov_words_map_to_unk_without_error(self):
        model, vocab = self._model_vocab(seed=2)
        sentence = make_sentence([("totallyunseen", "O"), ("w1", "O")])
        spans = annotate_sentence(model, vocab, sentence, ChunkConfig())
        assert isinstance(spans, list)


def _training_setup(n_sentences=6, sentence_len=8):
    sentences = []
    for i in range(n_sentences):
        words = []
        for j in range(sentence_len):
            if j == 2:
                words.append((f"drug{i % 3}", "B"))
            elif j == 3:
                words.append(("dose", "I"))
            else:
                words.append((f"filler{j}", "O"))
        sentences.append(make_sentence(words, doc_id=str(i % 2), sent_index=i))
    corpus = make_corpus(sentences)
    vocab = build_vocab(corpus)
    rng = np.random.default_rng(0)
    matrix = rng.normal(scale=0.3, size=(vocab.word_size, 6))
    matrix[0] = 0.0
    return corpus, vocab, EmbeddingTable(matrix)


def _small_config(**overrides):
    base = dict(
        epochs=2, batch_size=4, hidden=6, pos_dim=3, char_dim=3, char_filters=2,
        window=9, overlap=2, seed=11,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrain:
    def test_lr_zero_identity(self):
        corpus, vocab, emb = _training_setup()
        config = _small_config(lr=0.0, epochs=3)
        model, history = train(corpus, emb, config, vocab=vocab)
        # Reconstruct the initial parameters: the same seed drives the same
        # draw order inside train().
        from clinspan.neural import ModelDims, init_parameters

        rng = np.random.default_rng(config.seed)
        dims = ModelDims(
            word_dim=emb.dim, pos_dim=config.pos_dim, char_dim=config.char_dim,
            char_filters=config.char_filters, char_widths=config.char_widths,
            hidden=config.hidden, window=config.window, overlap=config.overlap,
        )
        init = init_parameters(dims, vocab, emb, rng)
        for (name, got), (_, expected) in zip(named_tensors(model), named_tensors(init)):
            np.testing.assert_array_equal(got, expected, err_msg=name)
        losses = [e.valid_loss for e in history.epochs]
        assert losses == [pytest.approx(losses[0], abs=1e-12)] * len(losses)

    def test_same_seed_identical_history(self):
        corpus, vocab, emb = _training_setup()
        config = _small_config(epochs=3)
        model_a, hist_a = train(corpus, emb, config, vocab=vocab)
        model_b, hist_b = train(corpus, emb, config, vocab=vocab)
        assert hist_a.epochs == hist_b.epochs
        assert hist_a.best_epoch == hist_b.best_epoch
        for (name, a), (_, b) in zip(named_tensors(model_a), named_tensors(model_b)):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_epochs_zero_returns_initial_model_and_empty_history(self):
        corpus, vocab, emb = _training_setup()
        model, history = train(corpus, emb, _small_config(epochs=0), vocab=vocab)
        assert history.epochs == []
        assert history.best_epoch == 0
        assert history.stopped_epoch == 0
        assert model is not None

    def test_early_stopping_invariant(self):
        corpus, vocab, emb = _training_setup()
        # A destabilizing learning rate makes validation loss fluctuate so
        # patience actually triggers.
        config = _small_config(epochs=40, lr=0.5, early_stop_patience=2)
        _, history = train(corpus, emb, config, vocab=vocab)
        assert history.stopped_epoch - history.best_epoch <= 2
        assert history.stopped_epoch <= 40

    def test_no_concepts_warns(self):
        sentences = [
            make_sentence([("a", "O"), ("b", "O")], sent_index=i) for i in range(4)
        ]
        corpus = make_corpus(sentences)
        vocab = build_vocab(corpus)
        emb = EmbeddingTable(np.zeros((vocab.word_size, 4)))
        with pytest.warns(UserWarning):
            train(corpus, emb, _small_config(epochs=1), vocab=vocab)

    def test_embedding_vocab_mismatch_rejected(self):
        corpus, vocab, _ = _training_setup()
        bad = EmbeddingTable(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="vocabulary"):
            train(corpus, bad, _small_config(), vocab=vocab)

    def test_embeddings_one_row_short_rejected(self):
        with open(DATA_DIR / "overfit_corpus.txt", encoding="utf-8") as fh:
            corpus = parse_corpus(fh)
        vocab = build_vocab(corpus)
        with open(DATA_DIR / "overfit_embeddings.txt", encoding="utf-8") as fh:
            embeddings = load_embeddings(fh, vocab)
        short = EmbeddingTable(embeddings.matrix[:-1])
        with pytest.raises(ValueError, match=f"rows for a vocabulary of {vocab.word_size} words"):
            train(corpus, short, _small_config(epochs=1), vocab=vocab)

    def test_empty_corpus_rejected(self):
        _, vocab, emb = _training_setup()
        with pytest.raises(ValueError, match="cannot train on an empty corpus"):
            train(make_corpus([]), emb, _small_config(), vocab=vocab)

    def test_pad_rows_stay_zero_after_training(self):
        corpus, vocab, emb = _training_setup()
        model, _ = train(corpus, emb, _small_config(epochs=3), vocab=vocab)
        np.testing.assert_array_equal(model.pos_table.matrix[0], 0)
        np.testing.assert_array_equal(model.char_params.char_table[0], 0)
        np.testing.assert_array_equal(model.word_table.matrix[0], 0)

    def test_one_evaluation_forward_per_chunk_per_epoch(self, monkeypatch):
        corpus, vocab, emb = _training_setup(n_sentences=10, sentence_len=12)
        config = _small_config(epochs=3)
        split = stratified_split(corpus, config.valid_fraction, config.seed)
        n_chunks = {
            part: sum(len(chunk_sentence(s, vocab, config.chunk_config)) for s in sents)
            for part, sents in (("train", split.train.sentences), ("valid", split.valid.sentences))
        }
        assert n_chunks["train"] > len(split.train.sentences)  # multi-chunk sentences
        eval_chunks = []
        chunked = []
        original_forward = tagger.forward_batch

        def counting_forward(model, batch, plan=None):
            if plan is None:
                eval_chunks.append(batch.size)
            return original_forward(model, batch, plan)

        def counting_chunk(sentences, vocab, config):
            chunked.extend(sentences)
            return chunk_table(sentences, vocab, config)

        monkeypatch.setattr(tagger, "forward_batch", counting_forward)
        monkeypatch.setattr(tagger, "chunk_table", counting_chunk)
        train(corpus, emb, config, vocab=vocab)
        assert sum(eval_chunks) == config.epochs * (n_chunks["train"] + n_chunks["valid"])
        assert len(chunked) == len(corpus.sentences)

    def test_history_matches_separate_evaluation(self):
        corpus, vocab, emb = _training_setup(n_sentences=10, sentence_len=12)
        config = _small_config(epochs=3)
        model, history = train(corpus, emb, config, vocab=vocab)
        valid = stratified_split(corpus, config.valid_fraction, config.seed).valid.sentences
        chunks = [c for s in valid for c in chunk_sentence(s, vocab, config.chunk_config)]
        loss = sum(
            float(forward_batch(model, batch_chunks(chunks[lo : lo + EVAL_BATCH])).chunk_losses.sum())
            for lo in range(0, len(chunks), EVAL_BATCH)
        )
        predicted = predict_corpus_labels(model, vocab, valid, config.chunk_config)
        gold = [[(s.start, s.end) for s in decode_iob(x.labels())] for x in valid]
        pred = [[(s.start, s.end) for s in decode_iob(tags)] for tags in predicted]
        _, _, f1 = prf(span_match_counts(gold, pred))
        best = history.epochs[history.best_epoch - 1]
        assert best.valid_loss == loss
        assert best.valid_f1 == f1

    def test_best_epoch_minimizes_validation_loss(self):
        corpus, vocab, emb = _training_setup()
        _, history = train(corpus, emb, _small_config(epochs=5), vocab=vocab)
        losses = [e.valid_loss for e in history.epochs]
        assert history.epochs[history.best_epoch - 1].valid_loss == min(losses)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("lr", -1.0), ("lr", -math.inf), ("clip_norm", 0.0),
        ("clip_norm", math.nan), ("dropout", 1.0), ("dropout", -0.5), ("batch_size", 0),
        ("seed", -1), ("valid_fraction", 0.0), ("valid_fraction", 1.0), ("pos_dim", 0),
        ("char_dim", 0), ("char_filters", 0), ("char_widths", ()), ("char_widths", (0,)),
        ("char_widths", (3, -1)), ("char_widths", (3, 3)), ("hidden", 0), ("min_count", 0),
        ("overlap", 0), ("overlap", 19), ("window", 2),
        # Sizes that are not ints used to pass here and fail inside train.
        ("hidden", 8.0), ("hidden", True), ("window", 7.5), ("char_widths", (2.0,)),
    ])
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("lr", 0.0), ("lr", math.nan), ("dropout", 0.0),
        ("early_stop_patience", 0), ("early_stop_patience", -1), ("char_widths", (2, 3, 5)),
    ])
    def test_boundary_values_accepted(self, field, value):
        TrainConfig(**{field: value})


class TestDivergence:
    def test_no_finite_validation_loss_raises(self):
        corpus, vocab, emb = _training_setup()
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="finite"):
            train(corpus, emb, _small_config(epochs=1, lr=float("nan"), batch_size=64), vocab=vocab)


class TestPersistence:
    def _trained_pair(self, tmp_path):
        corpus, vocab, emb = _training_setup()
        config = _small_config(epochs=1)
        model, _ = train(corpus, emb, config, vocab=vocab)
        path = tmp_path / "model.bin"
        save_model(model, vocab, str(path))
        return model, vocab, corpus, path

    def test_round_trip_bit_exact(self, tmp_path):
        model, vocab, _, path = self._trained_pair(tmp_path)
        loaded, loaded_vocab = load_model(str(path))
        assert loaded_vocab == vocab
        assert loaded.dims == model.dims
        for (name, a), (_, b) in zip(named_tensors(model), named_tensors(loaded)):
            assert a.tobytes() == b.tobytes(), name

    def test_round_trip_restores_stored_gru_layout(self, tmp_path):
        model, _, _, path = self._trained_pair(tmp_path)
        loaded, _ = load_model(str(path))
        for name in ("gru_w", "gru_u", "gru_b"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
        assert np.shares_memory(loaded.gru_fwd.u_z, loaded.gru_u)
        assert np.shares_memory(loaded.gru_bwd.b_h, loaded.gru_b)

    def test_round_trip_identical_predictions(self, tmp_path):
        model, vocab, corpus, path = self._trained_pair(tmp_path)
        loaded, loaded_vocab = load_model(str(path))
        config = ChunkConfig(window=model.dims.window, overlap=model.dims.overlap)
        probe = corpus.sentences[0]
        assert annotate_sentence(model, vocab, probe, config) == annotate_sentence(
            loaded, loaded_vocab, probe, config
        )

    def test_version_flip_rejected(self, tmp_path):
        _, _, _, path = self._trained_pair(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8] ^= 0xFF
        bad = tmp_path / "bad_version.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ArchiveVersionError):
            load_model(str(bad))

    def test_truncation_rejected(self, tmp_path):
        _, _, _, path = self._trained_pair(tmp_path)
        blob = path.read_bytes()
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(blob[:-1])
        with pytest.raises(ArchiveChecksumError):
            load_model(str(truncated))

    def test_flipped_payload_byte_rejected(self, tmp_path):
        _, _, _, path = self._trained_pair(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(ArchiveChecksumError):
            load_model(str(corrupt))

    def test_loaded_model_is_read_only(self, tmp_path):
        _, _, _, path = self._trained_pair(tmp_path)
        loaded, _ = load_model(str(path))
        arrays = [t for _, t in named_tensors(loaded)] + [loaded.gru_w, loaded.gru_u, loaded.gru_b]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            loaded.gru_fwd.u_z[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            loaded.gru_u[0, 0, 0] = 1.0
        grads = {n: np.ones_like(t) for n, t in named_tensors(loaded) if n != "word_table"}
        with pytest.raises(ValueError, match="read-only"):
            adam_step(loaded, grads, AdamState.for_model(loaded), lr=0.001)

    def test_clone_of_loaded_model_trains(self, tmp_path):
        _, _, _, path = self._trained_pair(tmp_path)
        loaded, _ = load_model(str(path))
        copy = loaded.clone()
        assert all(t.flags.writeable for _, t in named_tensors(copy))
        grads = {n: np.ones_like(t) for n, t in named_tensors(copy) if n != "word_table"}
        adam_step(copy, grads, AdamState.for_model(copy), lr=0.1)
        assert not np.array_equal(copy.gru_fwd.u_z, loaded.gru_fwd.u_z)
        np.testing.assert_array_equal(copy.gru_u[0, :6], copy.gru_fwd.u_z)

    def test_bad_magic_rejected(self, tmp_path):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(ArchiveError):
            load_model(str(junk))


class TestCharMemo:
    """A loaded model memoizes the char-CNN vectors of vocabulary surfaces;
    its clone() has no memo and is the reference."""

    def _loaded(self, tmp_path):
        corpus, vocab, emb = _training_setup()
        model, _ = train(corpus, emb, _small_config(epochs=1), vocab=vocab)
        save_model(model, vocab, str(tmp_path / "model.bin"))
        return load_model(str(tmp_path / "model.bin"))

    @staticmethod
    def _mixed_chunks(vocab):
        """In-vocabulary, OOV and repeated surfaces, pad slots, and one
        sequence with trailing PAD chars."""
        sentences = [
            ["drug0", "dose", "filler1", "drug0", "zzqx", "filler1"],
            ["qqq", "drug1", "dose", "unseenword", "qqq"] + [f"filler{j}" for j in range(4, 8)],
        ]
        chunks = [
            chunk
            for i, words in enumerate(sentences)
            for chunk in chunk_sentence(
                make_sentence([(w, "O") for w in words], sent_index=i), vocab,
                _small_config().chunk_config,
            )
        ]
        chars = list(chunks[0].char_ids)
        chars[1] = np.append(chars[1], [0, 0])
        return chunks + [dataclasses.replace(chunks[0], char_ids=tuple(chars))]

    @staticmethod
    def _slot_keys(batch):
        """(char-id bytes, word id) of every real slot."""
        return [
            (np.asarray(batch.chars[i][t], dtype=np.int64).tobytes(), int(batch.word_ids[i, t]))
            for i, t in zip(*np.nonzero(batch.mask))
        ]

    @staticmethod
    def _cnn_calls(monkeypatch):
        """From now on, the char-id bytes of each ``char_cnn_trace`` call's sequences."""
        calls = []
        original = neural.char_cnn_trace

        def counting(seqs, params):
            calls.append([np.asarray(s, dtype=np.int64).tobytes() for s in seqs])
            return original(seqs, params)

        monkeypatch.setattr(neural, "char_cnn_trace", counting)
        return calls

    def test_probabilities_bit_identical_cold_and_warm(self, tmp_path):
        loaded, vocab = self._loaded(tmp_path)
        batch = batch_chunks(self._mixed_chunks(vocab))
        expected = forward_batch(loaded.clone(), batch).probs
        for _ in ("cold", "warm"):
            assert forward_batch(loaded, batch).probs.tobytes() == expected.tobytes()
        assert loaded.char_memo

    def test_warm_forward_missing_one_short_oov_token_equals_clone(self, tmp_path, monkeypatch):
        # The warm model's char CNN runs on the one OOV token alone, a single
        # window at width 3; its clone computes it among the others.  Default
        # char dims, untrained.
        corpus, vocab, emb = _training_setup()
        model, _ = train(corpus, emb, TrainConfig(epochs=0, hidden=8), vocab=vocab)
        save_model(model, vocab, str(tmp_path / "model.bin"))
        loaded, vocab = load_model(str(tmp_path / "model.bin"))
        clone = loaded.clone()
        config = ChunkConfig()
        words = ["drug0", "dose", "filler1"]
        forward_batch(loaded, batch_chunks(chunk_sentence(
            make_sentence([(w, "O") for w in words]), vocab, config)))
        calls = self._cnn_calls(monkeypatch)
        for oov in ("dog", "sue", "eg", "r", "ode", "lid", "fig", "1r"):
            assert vocab.word_to_index.get(oov, UNK_INDEX) == UNK_INDEX
            chunks = chunk_sentence(make_sentence([(w, "O") for w in words + [oov]]), vocab, config)
            batch = batch_chunks(chunks)
            got = forward_batch(loaded, batch).probs.tobytes()
            assert [len(seqs) for seqs in calls] == [1]
            assert got == forward_batch(clone, batch).probs.tobytes(), oov
            calls.clear()

    def test_warm_forward_computes_only_oov_sequences(self, tmp_path, monkeypatch):
        loaded, vocab = self._loaded(tmp_path)
        batch = batch_chunks(self._mixed_chunks(vocab))
        forward_batch(loaded, batch)
        calls = self._cnn_calls(monkeypatch)
        forward_batch(loaded, batch)
        oov = {key for key, word in self._slot_keys(batch) if word <= UNK_INDEX}
        (computed,) = calls
        assert len(oov) == 3 and sorted(computed) == sorted(oov)

    def test_memo_holds_no_oov_and_at_most_one_entry_per_word_row(self, tmp_path):
        loaded, vocab = self._loaded(tmp_path)
        batch = batch_chunks(self._mixed_chunks(vocab))
        forward_batch(loaded, batch)
        oov = {key for key, word in self._slot_keys(batch) if word <= UNK_INDEX}
        assert oov and not oov & loaded.char_memo.keys()
        # In-vocabulary word ids carrying more distinct char sequences than
        # the word table has rows: the memo fills up to the bound and stops.
        rows = loaded.word_table.matrix.shape[0]
        rng = np.random.default_rng(0)
        template = self._mixed_chunks(vocab)[1]  # nine real slots
        chunks = [
            dataclasses.replace(template, char_ids=tuple(
                rng.integers(2, vocab.char_size, size=5) for _ in template.char_ids
            ))
            for _ in range(3)
        ]
        crowded = batch_chunks(chunks)
        assert len({key for key, _ in self._slot_keys(crowded)}) > rows
        probs = forward_batch(loaded, crowded).probs
        assert len(loaded.char_memo) == rows
        np.testing.assert_array_equal(probs, forward_batch(loaded.clone(), crowded).probs)

    def test_writable_model_reads_no_stale_row(self, tmp_path):
        loaded, vocab = self._loaded(tmp_path)
        batch = batch_chunks(self._mixed_chunks(vocab))
        before = forward_batch(loaded, batch).probs  # fills the memo
        table = loaded.char_params.char_table
        table.setflags(write=True)
        table[vocab.char_to_index["d"]] += 1.0
        after = forward_batch(loaded, batch).probs
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, forward_batch(loaded.clone(), batch).probs)
        assert loaded.char_memo is None
        table.setflags(write=False)  # read-only again: the memo stays gone
        forward_batch(loaded, batch)
        assert loaded.char_memo is None

    def test_backward_on_warm_model_equals_clone(self, tmp_path, monkeypatch):
        loaded, vocab = self._loaded(tmp_path)
        chunks = self._mixed_chunks(vocab)
        batch = batch_chunks(chunks)
        forward_batch(loaded, batch)
        calls = self._cnn_calls(monkeypatch)
        warm = forward_batch(loaded, batch)
        (computed,) = calls  # the memo served the other sequences
        assert len(computed) < len({key for key, _ in self._slot_keys(batch)})
        clone = loaded.clone()
        for got, expected in (
            (backward_from_cache(loaded, warm), backward_from_cache(clone, forward_batch(clone, batch))),
            (chunk_backward(loaded, chunks[0]), chunk_backward(clone, chunks[0])),
        ):
            assert got.keys() == expected.keys()
            for name in got:
                np.testing.assert_array_equal(got[name], expected[name], err_msg=name)

    def test_fully_served_forward_makes_no_cnn_call(self, tmp_path, monkeypatch):
        loaded, vocab = self._loaded(tmp_path)
        words = ["drug0", "dose", "filler1", "drug0", "drug2", "filler5"]
        chunks = chunk_sentence(make_sentence([(w, "O") for w in words]), vocab,
                                _small_config().chunk_config)
        batch = batch_chunks(chunks)
        assert all(word > UNK_INDEX for _, word in self._slot_keys(batch))
        forward_batch(loaded, batch)
        calls = self._cnn_calls(monkeypatch)
        warm = forward_batch(loaded, batch)
        assert calls == []
        clone = loaded.clone()
        got = backward_from_cache(loaded, warm)
        expected = backward_from_cache(clone, forward_batch(clone, batch))
        assert got.keys() == expected.keys()
        for name in got:
            np.testing.assert_array_equal(got[name], expected[name], err_msg=name)

    def test_concurrent_forwards_share_the_memo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(neural, "_CPUS", 2)
        loaded, vocab = self._loaded(tmp_path)
        batch = batch_chunks(self._mixed_chunks(vocab))
        # Above the threshold each forward starts its own GRU helper thread.
        large = batch_chunks(self._mixed_chunks(vocab) * 20)
        assert int(large.mask.sum()) >= neural.PARALLEL_ROWS
        expected = forward_batch(loaded.clone(), batch).probs.tobytes()
        expected_large = forward_batch(loaded.clone(), large).probs.tobytes()
        results = []
        large_results = []

        def worker():
            for _ in range(5):
                results.append(forward_batch(loaded, batch).probs.tobytes())
            large_results.append(forward_batch(loaded, large).probs.tobytes())

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 20
        assert large_results == [expected_large] * 4
        in_vocab = {key for key, word in self._slot_keys(batch) if word > UNK_INDEX}
        assert loaded.char_memo.keys() == in_vocab

    def test_only_loaded_models_carry_a_memo(self, tmp_path):
        corpus, vocab, emb = _training_setup()
        model, _ = train(corpus, emb, _small_config(epochs=1), vocab=vocab)
        assert model.char_memo is None
        assert build_probe()[0].char_memo is None
        loaded, _ = self._loaded(tmp_path)
        assert loaded.char_memo == {}
        assert loaded.clone().char_memo is None


class TestWriteAtomic:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_text("previous\n")

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        real_open = builtins.open
        monkeypatch.setattr(tagger, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            write_atomic(str(target), "replacement text\n")
        assert target.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_rename_keeps_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "model.bin"
        target.write_bytes(b"old archive")

        def refuse(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        corpus, vocab, emb = _training_setup()
        model, _ = train(corpus, emb, _small_config(epochs=0), vocab=vocab)
        with pytest.raises(OSError, match="Permission denied"):
            save_model(model, vocab, str(target))
        assert target.read_bytes() == b"old archive"
        assert os.listdir(tmp_path) == ["model.bin"]

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("previous\n")
        write_atomic(str(target), "new\n")
        assert target.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestHistoryFormat:
    def test_columns_parse_without_dependencies(self):
        corpus, vocab, emb = _training_setup()
        _, history = train(corpus, emb, _small_config(epochs=2), vocab=vocab)
        text = format_history(history)
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(rows) == 2
        for row in rows:
            epoch, train_loss, valid_loss, valid_f1 = row.split()
            int(epoch)
            float(train_loss), float(valid_loss), float(valid_f1)
