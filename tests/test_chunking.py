from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clinspan.chunking import (
    ChunkConfig,
    chunk_count,
    chunk_sentence,
    chunk_table,
    merge_chunk_predictions,
)
from clinspan.corpus import EMPTY_PLACEHOLDER, LABELS, build_vocab
from clinspan.neural import batch_chunks

from conftest import chunk_by_loop, make_corpus, make_sentence, merge_by_loop

DEFAULT = ChunkConfig()


def _sentence_and_vocab(length, labels=None):
    labels = labels or ["O"] * length
    sentence = make_sentence([(f"w{i}", labels[i]) for i in range(length)])
    vocab = build_vocab(make_corpus([sentence]))
    return sentence, vocab


def _label_rows(chunks):
    """Each chunk's own labels as tag strings, one row per chunk (pads read O)."""
    return np.asarray(LABELS)[np.stack([c.labels for c in chunks])]


def _merge(sentence, vocab, rows, config=DEFAULT):
    """The table merge over one sentence, given each chunk's tags; rows
    shorter than the window are padded with O."""
    table = chunk_table([sentence], vocab, config)
    tags = np.array([list(r) + ["O"] * (config.window - len(r)) for r in rows])
    (merged,) = merge_chunk_predictions(table, tags)
    return merged


class TestChunkCount:
    def test_worked_example_36(self):
        assert chunk_count(36, DEFAULT) == 2

    def test_exact_fit(self):
        assert chunk_count(19, DEFAULT) == 1

    def test_54_tokens_four_chunks(self):
        # offsets 0, 17, 34, 51: 1 + ceil(35 / 17) = 4
        assert chunk_count(54, DEFAULT) == 4

    @pytest.mark.parametrize("length,expected", [(1, 1), (18, 1), (20, 2), (37, 3)])
    def test_boundaries(self, length, expected):
        assert chunk_count(length, DEFAULT) == expected

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chunk_count(0, DEFAULT)


class TestChunkConfig:
    def test_defaults(self):
        assert DEFAULT.window == 19
        assert DEFAULT.overlap == 2
        assert DEFAULT.stride == 17

    @pytest.mark.parametrize("window,overlap", [(19, 0), (19, 19), (19, 25), (5, 5)])
    def test_invalid_configs_rejected(self, window, overlap):
        with pytest.raises(ValueError):
            ChunkConfig(window=window, overlap=overlap)


class TestChunkSentence:
    def test_36_tokens_two_full_chunks(self):
        sentence, vocab = _sentence_and_vocab(36)
        chunks = chunk_sentence(sentence, vocab, DEFAULT)
        assert len(chunks) == 2
        assert chunks[0].sentence_offset == 0
        assert chunks[1].sentence_offset == 17
        assert chunks[0].real_count == 19
        assert chunks[1].real_count == 19

    def test_short_sentence_padded(self):
        sentence, vocab = _sentence_and_vocab(5)
        (chunk,) = chunk_sentence(sentence, vocab, DEFAULT)
        assert chunk.real_count == 5
        assert chunk.mask[:5].all() and not chunk.mask[5:].any()
        assert (chunk.word_ids[5:] == 0).all()
        assert (chunk.labels[5:] == -1).all()

    def test_21_tokens_truncated_final_chunk(self):
        sentence, vocab = _sentence_and_vocab(21)
        chunks = chunk_sentence(sentence, vocab, DEFAULT)
        assert len(chunks) == 2
        assert chunks[1].sentence_offset == 17
        assert chunks[1].real_count == 4
        assert not chunks[1].mask[4:].any()

    def test_labels_travel_with_tokens(self):
        labels = ["B", "I", "O"] * 12
        sentence, vocab = _sentence_and_vocab(36, labels)
        chunks = chunk_sentence(sentence, vocab, DEFAULT)
        for chunk in chunks:
            for local in range(chunk.real_count):
                expected = LABELS.index(labels[chunk.sentence_offset + local])
                assert chunk.labels[local] == expected

    def test_offset_identity(self):
        sentence, vocab = _sentence_and_vocab(100)
        for i, chunk in enumerate(chunk_sentence(sentence, vocab, DEFAULT)):
            assert chunk.sentence_offset == i * DEFAULT.stride

    def test_real_slots_are_contiguous_prefix(self):
        sentence, vocab = _sentence_and_vocab(40)
        for chunk in chunk_sentence(sentence, vocab, DEFAULT):
            mask = chunk.mask.astype(int)
            assert (np.diff(mask) <= 0).all()

    def test_chunks_are_read_only_views_of_one_array(self):
        sentence, vocab = _sentence_and_vocab(36)
        first, second = chunk_sentence(sentence, vocab, DEFAULT)
        for name in ("word_ids", "pos_ids", "mask", "labels"):
            a, b = getattr(first, name), getattr(second, name)
            assert a.base is not None and a.base is b.base
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[1]
        # The same char ids, at the same address.
        assert second.char_ids[0].__array_interface__ == first.char_ids[17].__array_interface__

    def test_empty_sentence_rejected(self):
        sentence, vocab = _sentence_and_vocab(1)
        empty = make_sentence([])
        with pytest.raises(ValueError):
            chunk_sentence(empty, vocab, DEFAULT)


class TestCoverageProperties:
    def test_full_sweep_1_to_500(self):
        # Acceptance-grade sweep: coverage, stride, overlap sharing, and the
        # count formula, for every length against the default config.
        rng = np.random.default_rng(7)
        for length in range(1, 501):
            sentence, vocab = _sentence_and_vocab(
                length, list(rng.choice(LABELS, size=length))
            )
            chunks = chunk_sentence(sentence, vocab, DEFAULT)
            assert len(chunks) == chunk_count(length, DEFAULT)
            covered = np.zeros(length, dtype=int)
            for i, chunk in enumerate(chunks):
                assert chunk.sentence_offset == i * 17
                covered[chunk.sentence_offset : chunk.sentence_offset + chunk.real_count] += 1
            assert (covered >= 1).all()
            for a, b in zip(chunks, chunks[1:]):
                shared = (a.sentence_offset + a.real_count) - b.sentence_offset
                assert shared == DEFAULT.overlap

    def test_merge_chunk_round_trip_is_identity(self):
        rng = np.random.default_rng(11)
        for length in range(1, 501, 7):
            labels = list(rng.choice(LABELS, size=length))
            sentence, vocab = _sentence_and_vocab(length, labels)
            table = chunk_table([sentence], vocab, DEFAULT)
            rows = _label_rows(chunk_sentence(sentence, vocab, DEFAULT))
            assert merge_chunk_predictions(table, rows) == [labels]

    def test_round_trip_other_configs(self):
        rng = np.random.default_rng(3)
        for window, overlap in [(5, 1), (7, 3), (10, 9), (19, 2)]:
            config = ChunkConfig(window=window, overlap=overlap)
            for length in (1, 2, window - 1, window, window + 1, 53):
                labels = list(rng.choice(LABELS, size=length))
                sentence, vocab = _sentence_and_vocab(length, labels)
                table = chunk_table([sentence], vocab, config)
                rows = _label_rows(chunk_sentence(sentence, vocab, config))
                assert merge_chunk_predictions(table, rows) == [labels]


class TestMergePredictions:
    def test_single_chunk_passthrough(self):
        sentence, vocab = _sentence_and_vocab(6)
        tags = ["B", "I", "O", "O", "B", "I"]
        assert _merge(sentence, vocab, [tags]) == tags

    def _two_chunk_merge(self, tags0, tags1):
        sentence, vocab = _sentence_and_vocab(36)
        return _merge(sentence, vocab, [tags0, tags1])

    def test_position_17_taken_from_first_chunk(self):
        # local 17 of chunk 0 sits 1 from the edge; local 0 of chunk 1 sits 0.
        tags0 = ["O"] * 19
        tags1 = ["B"] * 19
        merged = self._two_chunk_merge(tags0, tags1)
        assert merged[17] == "O"

    def test_position_18_taken_from_second_chunk(self):
        # local 18 of chunk 0 is on the edge; local 1 of chunk 1 sits 1 inside.
        tags0 = ["O"] * 19
        tags1 = ["B"] * 19
        merged = self._two_chunk_merge(tags0, tags1)
        assert merged[18] == "B"

    def test_missing_chunk_rejected(self):
        sentence, vocab = _sentence_and_vocab(54)
        table = chunk_table([sentence], vocab, DEFAULT)
        assert len(table) == 4
        with pytest.raises(ValueError, match="cover"):
            merge_chunk_predictions(table, np.full((2, 19), "O"))

    def test_short_tag_sequence_rejected(self):
        sentence, vocab = _sentence_and_vocab(6)
        table = chunk_table([sentence], vocab, DEFAULT)
        with pytest.raises(ValueError):
            merge_chunk_predictions(table, np.full((1, 3), "O"))

    def test_empty_input_rejected(self):
        sentence, vocab = _sentence_and_vocab(6)
        table = chunk_table([sentence], vocab, DEFAULT)
        with pytest.raises(ValueError):
            merge_chunk_predictions(table, np.empty((0, 19), dtype=int))

    def test_pads_never_contribute(self):
        sentence, vocab = _sentence_and_vocab(21)
        # Poison tags in pad slots; merged output must be unaffected.
        tags0 = ["O"] * 19
        tags1 = ["I"] * 4 + ["B"] * 15
        merged = _merge(sentence, vocab, [tags0, tags1])
        assert len(merged) == 21
        assert merged[-1] == "I"
        assert "B" not in merged


@st.composite
def chunk_passes(draw, max_window=24):
    """A window/overlap pair (overlap >= stride included) and the sentence
    lengths of one pass."""
    window = draw(st.integers(min_value=2, max_value=max_window))
    overlap = draw(st.integers(min_value=1, max_value=window - 1))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=6))
    return ChunkConfig(window=window, overlap=overlap), lengths


SURFACES = [
    "mg", "dose", "b\u00e9ta", "\U0001F600x", EMPTY_PLACEHOLDER, "a", "unseen", "\u00e9\u00e9",
]


def _random_sentences(lengths, seed):
    """Sentences of the given lengths over a few surfaces, POS tags and labels;
    the vocabulary below is built from the first sentence only, so later
    ones hold unknown words, POS tags and chars."""
    rng = np.random.default_rng(seed)
    return [
        make_sentence(
            [(SURFACES[i], LABELS[j]) for i, j in zip(rng.integers(0, len(SURFACES), n),
                                                      rng.integers(0, 3, n))],
            sent_index=k, pos=["NOUN", "VERB", "X"][k % 3],
        )
        for k, n in enumerate(lengths)
    ]


class TestChunkTable:
    @given(chunk_passes(), st.integers(min_value=0, max_value=2**32 - 1))
    # Three chunks cover some positions; then one chunk per sentence.
    @example((ChunkConfig(window=5, overlap=3), [1, 12, 3, 5]), 0)
    @example((ChunkConfig(window=19, overlap=2), [5, 19, 7]), 0)
    @settings(max_examples=200, deadline=None)
    def test_merge_equals_the_per_position_loop(self, drawn, seed):
        config, lengths = drawn
        sentences = [make_sentence([(f"w{i}", "O") for i in range(n)], sent_index=k)
                     for k, n in enumerate(lengths)]
        vocab = build_vocab(make_corpus(sentences))
        table = chunk_table(sentences, vocab, config)
        tags = np.random.default_rng(seed).integers(0, 1000, size=(len(table), config.window))
        expected, row = [], 0
        for sentence in sentences:
            chunks = chunk_by_loop(sentence, vocab, config)
            pairs = [(c, tags[row + i].tolist()) for i, c in enumerate(chunks)]
            expected.append(merge_by_loop(pairs))
            row += len(chunks)
        assert row == len(table)
        assert merge_chunk_predictions(table, tags) == expected

    @given(chunk_passes(max_window=20), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_batches_equal_stacked_chunk_arrays(self, drawn, seed):
        config, lengths = drawn
        sentences = _random_sentences(lengths, seed)
        vocab = build_vocab(make_corpus(sentences[:1]))
        table = chunk_table(sentences, vocab, config)
        chunks = [c for s in sentences for c in chunk_by_loop(s, vocab, config)]
        assert len(chunks) == len(table)
        rows = np.random.default_rng(seed).permutation(len(table))[: max(1, len(table) // 2)]
        batch = batch_chunks(table.rows(rows))
        picked = [chunks[i] for i in rows]
        for name in ("word_ids", "pos_ids", "labels"):
            stacked = np.stack([getattr(c, name) for c in picked])
            np.testing.assert_array_equal(getattr(batch, name), stacked)
        np.testing.assert_array_equal(batch.mask, np.stack([c.mask for c in picked]).astype(float))
        for slots, chunk in zip(batch.chars, picked):
            assert [a.tobytes() for a in slots] == [a.tobytes() for a in chunk.char_ids]
        # chunk_sentence gives the same chunks as objects.
        views = [c for s in sentences for c in chunk_sentence(s, vocab, config)]
        for view, chunk in zip(views, chunks):
            assert view.sentence_offset == chunk.sentence_offset
            for name in ("word_ids", "pos_ids", "labels", "mask"):
                np.testing.assert_array_equal(getattr(view, name), getattr(chunk, name))
            assert [a.tobytes() for a in view.char_ids] == [a.tobytes() for a in chunk.char_ids]
        # Batching those objects gives the batch of the table rows.
        stacked = batch_chunks([views[i] for i in rows])
        for name in ("word_ids", "pos_ids", "labels", "mask"):
            np.testing.assert_array_equal(getattr(stacked, name), getattr(batch, name))
        real = batch.mask > 0
        for got, want, row in zip(stacked.chars, batch.chars, real):
            assert [got[t].tobytes() for t in np.flatnonzero(row)] == \
                [want[t].tobytes() for t in np.flatnonzero(row)]
        # A chunk whose char ids cover only its real slots still batches.
        chunk = picked[0]
        short = dataclasses.replace(chunk, char_ids=tuple(chunk.char_ids[: chunk.real_count]))
        (slots,) = batch_chunks([short]).chars
        assert [a.tobytes() for a in slots[: chunk.real_count]] == \
            [a.tobytes() for a in chunk.char_ids[: chunk.real_count]]

    @pytest.mark.parametrize("windows, needle", [
        ((), "empty chunk batch"), ((5, 7), "must share the window size"),
    ], ids=["no-chunks", "mixed-windows"])
    def test_unbatchable_chunks_rejected(self, windows, needle):
        sentence, vocab = _sentence_and_vocab(4)
        chunks = [c for w in windows
                  for c in chunk_sentence(sentence, vocab, ChunkConfig(window=w, overlap=1))]
        with pytest.raises(ValueError, match=needle):
            batch_chunks(chunks)

    def test_bytes_per_token(self):
        # The table holds four int64 per token (word, POS, label, char bound)
        # and one per char: no object per token or per chunk.
        sentences = _random_sentences([40] * 500, seed=1)
        vocab = build_vocab(make_corpus(sentences))
        tokens = sum(len(s) for s in sentences)
        chars = sum(len(t.surface) for s in sentences for t in s.tokens)
        tracemalloc.start()
        try:
            table = chunk_table(sentences, vocab, ChunkConfig())
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) > len(sentences)
        assert held <= 1.1 * (32 * tokens + 8 * chars) + 4096
        assert peak <= 4 * (32 * tokens + 8 * chars) + 4096
