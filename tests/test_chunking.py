from __future__ import annotations

import numpy as np
import pytest

from clinspan.chunking import (
    ChunkConfig,
    chunk_count,
    chunk_sentence,
    merge_chunk_predictions,
)
from clinspan.corpus import LABELS, build_vocab

from conftest import make_corpus, make_sentence

DEFAULT = ChunkConfig()


def _sentence_and_vocab(length, labels=None):
    labels = labels or ["O"] * length
    sentence = make_sentence([(f"w{i}", labels[i]) for i in range(length)])
    vocab = build_vocab(make_corpus([sentence]))
    return sentence, vocab


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
        assert second.char_ids[0] is first.char_ids[17]

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
            chunks = chunk_sentence(sentence, vocab, DEFAULT)
            pairs = [
                (c, [LABELS[i] for i in c.labels[: c.real_count]]) for c in chunks
            ]
            assert merge_chunk_predictions(pairs) == labels

    def test_round_trip_other_configs(self):
        rng = np.random.default_rng(3)
        for window, overlap in [(5, 1), (7, 3), (10, 9), (19, 2)]:
            config = ChunkConfig(window=window, overlap=overlap)
            for length in (1, 2, window - 1, window, window + 1, 53):
                labels = list(rng.choice(LABELS, size=length))
                sentence, vocab = _sentence_and_vocab(length, labels)
                chunks = chunk_sentence(sentence, vocab, config)
                pairs = [
                    (c, [LABELS[i] for i in c.labels[: c.real_count]]) for c in chunks
                ]
                assert merge_chunk_predictions(pairs) == labels


class TestMergePredictions:
    def test_single_chunk_passthrough(self):
        sentence, vocab = _sentence_and_vocab(6)
        (chunk,) = chunk_sentence(sentence, vocab, DEFAULT)
        tags = ["B", "I", "O", "O", "B", "I"]
        assert merge_chunk_predictions([(chunk, tags)]) == tags

    def _two_chunk_pairs(self, tags0, tags1):
        sentence, vocab = _sentence_and_vocab(36)
        chunks = chunk_sentence(sentence, vocab, DEFAULT)
        return [(chunks[0], tags0), (chunks[1], tags1)]

    def test_position_17_taken_from_first_chunk(self):
        # local 17 of chunk 0 sits 1 from the edge; local 0 of chunk 1 sits 0.
        tags0 = ["O"] * 19
        tags1 = ["B"] * 19
        merged = merge_chunk_predictions(self._two_chunk_pairs(tags0, tags1))
        assert merged[17] == "O"

    def test_position_18_taken_from_second_chunk(self):
        # local 18 of chunk 0 is on the edge; local 1 of chunk 1 sits 1 inside.
        tags0 = ["O"] * 19
        tags1 = ["B"] * 19
        merged = merge_chunk_predictions(self._two_chunk_pairs(tags0, tags1))
        assert merged[18] == "B"

    def test_missing_chunk_rejected(self):
        sentence, vocab = _sentence_and_vocab(54)
        chunks = chunk_sentence(sentence, vocab, DEFAULT)
        pairs = [(chunks[0], ["O"] * 19), (chunks[2], ["O"] * 19)]
        with pytest.raises(ValueError, match="cover"):
            merge_chunk_predictions(pairs)

    @pytest.mark.parametrize("picks", [(0, 0), (0, 1, 1), (0, 1, 3)])
    def test_repeated_or_skipped_offset_rejected(self, picks):
        # (0, 0) would pass as stride 0 if the stride were not required > 0.
        sentence, vocab = _sentence_and_vocab(70)
        chunks = chunk_sentence(sentence, vocab, DEFAULT)
        pairs = [(chunks[i], ["O"] * 19) for i in picks]
        with pytest.raises(ValueError, match="offsets"):
            merge_chunk_predictions(pairs)

    def test_short_tag_sequence_rejected(self):
        sentence, vocab = _sentence_and_vocab(6)
        (chunk,) = chunk_sentence(sentence, vocab, DEFAULT)
        with pytest.raises(ValueError):
            merge_chunk_predictions([(chunk, ["O"] * 3)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_chunk_predictions([])

    def test_pads_never_contribute(self):
        sentence, vocab = _sentence_and_vocab(21)
        chunks = chunk_sentence(sentence, vocab, DEFAULT)
        # Poison tags in pad slots; merged output must be unaffected.
        tags0 = ["O"] * 19
        tags1 = ["I"] * 4 + ["B"] * 15
        merged = merge_chunk_predictions([(chunks[0], tags0), (chunks[1], tags1)])
        assert len(merged) == 21
        assert merged[-1] == "I"
        assert "B" not in merged
