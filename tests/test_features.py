from __future__ import annotations

import io

import numpy as np
import pytest

from clinspan.chunking import ChunkConfig, chunk_sentence
from clinspan.corpus import ParseError, build_vocab
from clinspan.features import (
    CharCnnParams,
    EmbeddingTable,
    PosEmbedding,
    char_cnn_trace,
    load_embeddings,
)
from clinspan.neural import (
    DenseParams,
    GruDirectionParams,
    ModelDims,
    ModelParameters,
    batch_chunks,
    forward_batch,
)

from conftest import make_corpus, make_sentence, parse_text


def _vocab(text="mg NOUN O\ndose NOUN O\n"):
    return build_vocab(parse_text(text))


class TestLoadEmbeddings:
    def test_file_row_used_verbatim(self):
        vocab = _vocab()
        stream = io.StringIO("1 4\nmg 0.1 -0.2 0.3 4.0\n")
        table = load_embeddings(stream, vocab)
        np.testing.assert_array_equal(
            table.matrix[vocab.word_index("mg")], [0.1, -0.2, 0.3, 4.0]
        )
        assert table.dim == 4
        assert not table.trainable

    def test_missing_word_row_is_deterministic(self):
        vocab = _vocab()
        first = load_embeddings(io.StringIO("1 8\nmg 1 2 3 4 5 6 7 8\n"), vocab)
        second = load_embeddings(io.StringIO("1 8\nmg 1 2 3 4 5 6 7 8\n"), vocab)
        row = first.matrix[vocab.word_index("dose")]
        np.testing.assert_array_equal(row, second.matrix[vocab.word_index("dose")])
        assert (np.abs(row) <= 0.5 / 8).all()
        assert np.abs(row).max() > 0

    def test_dimension_mismatch_reports_line(self):
        vocab = _vocab()
        with pytest.raises(ParseError) as err:
            load_embeddings(io.StringIO("2 4\nmg 1 2 3 4\ndose 1 2 3 4 5\n"), vocab)
        assert err.value.line_number == 3

    def test_bad_header_rejected(self):
        vocab = _vocab()
        for header in ("", "4", "a b"):
            with pytest.raises(ParseError):
                load_embeddings(io.StringIO(header + "\nmg 1 2 3 4\n"), vocab)

    def test_pad_row_zero_and_nonvocab_words_ignored(self):
        vocab = _vocab()
        table = load_embeddings(
            io.StringIO("2 2\nmg 1 2\nzzzz 9 9\n"), vocab
        )
        np.testing.assert_array_equal(table.matrix[0], [0.0, 0.0])
        assert table.matrix.shape == (vocab.word_size, 2)


def _single_filter_params(filter_values, bias, char_table):
    return CharCnnParams(
        char_table=np.asarray(char_table, dtype=np.float64),
        widths=(3,),
        filters=[np.asarray(filter_values, dtype=np.float64).reshape(1, 3, -1)],
        biases=[np.asarray([bias], dtype=np.float64)],
    )


def char_cnn_vector(chars, params):
    return char_cnn_trace(np.asarray(chars, dtype=np.int64), params)[0]


class TestCharCnn:
    def test_zero_parameters_give_zero_vector(self):
        params = CharCnnParams(
            char_table=np.zeros((8, 4)),
            widths=(3,),
            filters=[np.zeros((5, 3, 4))],
            biases=[np.zeros(5)],
        )
        out = char_cnn_vector(np.array([2, 3, 4, 5]), params)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_single_window_hand_computed(self):
        # Token "abc" (indices 2,3,4), one width-3 filter over a 2-dim table:
        # exactly one window, so output = relu(sum_j f[j] . e[c_j] + b).
        char_table = [[0, 0], [0, 0], [0.5, -1.0], [0.25, 0.75], [-0.5, 0.3]]
        filt = [[1.0, 2.0], [-1.0, 0.5], [0.2, 0.1]]
        bias = 0.05
        expected = bias
        for j, char_row in enumerate([char_table[2], char_table[3], char_table[4]]):
            expected += filt[j][0] * char_row[0] + filt[j][1] * char_row[1]
        expected = max(expected, 0.0)
        params = _single_filter_params(filt, bias, char_table)
        out = char_cnn_vector(np.array([2, 3, 4]), params)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(expected, abs=1e-12)

    def test_trailing_pad_invariance(self):
        rng = np.random.default_rng(0)
        params = CharCnnParams(
            char_table=np.vstack([np.zeros(3), rng.normal(size=(7, 3))]),
            widths=(3,),
            filters=[rng.normal(size=(4, 3, 3))],
            biases=[rng.normal(size=4)],
        )
        bare = char_cnn_vector(np.array([2, 3, 4]), params)
        padded = char_cnn_vector(np.array([2, 3, 4, 0, 0, 0]), params)
        np.testing.assert_array_equal(bare, padded)

    def test_short_token_left_padded(self):
        # A 1-char token against a width-3 filter sees the single window
        # [PAD, PAD, c]; only the filter's last column touches a nonzero row.
        char_table = [[0, 0], [0, 0], [2.0, -1.0]]
        filt = [[5.0, 5.0], [7.0, 7.0], [0.5, 1.0]]
        params = _single_filter_params(filt, 0.0, char_table)
        out = char_cnn_vector(np.array([2]), params)
        assert out[0] == pytest.approx(0.5 * 2.0 + 1.0 * -1.0, abs=1e-12)

    def test_unknown_char_index_maps_to_unk(self):
        rng = np.random.default_rng(1)
        params = CharCnnParams(
            char_table=np.vstack([np.zeros(2), rng.normal(size=(5, 2))]),
            widths=(2,),
            filters=[rng.normal(size=(3, 2, 2))],
            biases=[np.zeros(3)],
        )
        out_oob = char_cnn_vector(np.array([2, 99]), params)
        out_unk = char_cnn_vector(np.array([2, 1]), params)
        np.testing.assert_array_equal(out_oob, out_unk)

    def test_char_relabeling_invariance(self):
        # Permuting character identities (table rows + indices together) must
        # not change the output.
        rng = np.random.default_rng(2)
        table = np.vstack([np.zeros(3), rng.normal(size=(6, 3))])
        params = CharCnnParams(
            char_table=table,
            widths=(3,),
            filters=[rng.normal(size=(4, 3, 3))],
            biases=[rng.normal(size=4)],
        )
        chars = np.array([2, 4, 6, 3])
        base = char_cnn_vector(chars, params)
        perm = np.array([0, 1, 4, 6, 2, 5, 3])  # reserved rows stay put
        permuted_table = np.zeros_like(table)
        permuted_table[perm] = table
        params_perm = CharCnnParams(
            char_table=permuted_table,
            widths=params.widths,
            filters=params.filters,
            biases=params.biases,
        )
        np.testing.assert_allclose(
            char_cnn_vector(perm[chars], params_perm), base, atol=1e-14
        )

    def test_embedding_dim_permutation_covariance(self):
        # Permuting table columns together with the filters' embedding axis
        # leaves every dot product unchanged.
        rng = np.random.default_rng(3)
        table = np.vstack([np.zeros(4), rng.normal(size=(6, 4))])
        filters = rng.normal(size=(2, 3, 4))
        params = CharCnnParams(table, (3,), [filters], [rng.normal(size=2)])
        chars = np.array([2, 3, 4, 5, 6])
        base = char_cnn_vector(chars, params)
        perm = np.array([2, 0, 3, 1])
        params_perm = CharCnnParams(
            table[:, perm], (3,), [filters[:, :, perm]], params.biases
        )
        np.testing.assert_allclose(char_cnn_vector(chars, params_perm), base, atol=1e-14)


def _model(word, pos, char, window, hidden=3, seed=0):
    """A model over the given tables with random GRU and dense weights."""
    rng = np.random.default_rng(seed)
    d = word.dim + pos.dim + char.output_dim
    gru = lambda: GruDirectionParams(
        *(rng.normal(size=(hidden, d)) for _ in range(3)),
        *(rng.normal(size=(hidden, hidden)) for _ in range(3)),
        *(rng.normal(size=hidden) for _ in range(3)),
    )
    dims = ModelDims(
        word_dim=word.dim, pos_dim=pos.dim, char_dim=char.char_dim,
        char_filters=char.n_filters, char_widths=char.widths, hidden=hidden,
        window=window, overlap=1,
    )
    dense = DenseParams(rng.normal(size=(3, 2 * hidden)), rng.normal(size=3))
    return ModelParameters(word, pos, char, gru(), gru(), dense, dims)


class TestFeaturizeChunk:
    """The feature rows forward_batch builds for the real slots of a batch."""

    def _setup(self):
        sentence = make_sentence([("ab", "O"), ("ba", "B")], pos="NOUN")
        vocab = build_vocab(make_corpus([sentence]))
        rng = np.random.default_rng(5)
        word = EmbeddingTable(
            np.vstack([np.zeros(4), rng.normal(size=(vocab.word_size - 1, 4))])
        )
        pos = PosEmbedding(
            np.vstack([np.zeros(3), rng.normal(size=(vocab.pos_size - 1, 3))])
        )
        char = CharCnnParams(
            char_table=np.vstack([np.zeros(2), rng.normal(size=(vocab.char_size - 1, 2))]),
            widths=(2,),
            filters=[rng.normal(size=(5, 2, 2))],
            biases=[rng.normal(size=5)],
        )
        return sentence, vocab, word, pos, char

    def test_rows_are_concatenation(self):
        sentence, vocab, word, pos, char = self._setup()
        (chunk,) = chunk_sentence(sentence, vocab, ChunkConfig(window=4, overlap=1))
        rows = forward_batch(_model(word, pos, char, 4), batch_chunks([chunk])).inputs
        assert rows.shape == (2, 4 + 3 + 5)
        for t in range(2):
            np.testing.assert_array_equal(
                rows[t, :4], word.matrix[chunk.word_ids[t]]
            )
            np.testing.assert_array_equal(
                rows[t, 4:7], pos.matrix[chunk.pos_ids[t]]
            )
            np.testing.assert_array_equal(
                rows[t, 7:], char_cnn_vector(chunk.char_ids[t], char)
            )

    def test_pad_rows_all_zero(self):
        # Pad slots are never featurized, and their GRU outputs are zero.
        sentence, vocab, word, pos, char = self._setup()
        (chunk,) = chunk_sentence(sentence, vocab, ChunkConfig(window=6, overlap=1))
        cache = forward_batch(_model(word, pos, char, 6), batch_chunks([chunk]))
        assert cache.inputs.shape[0] == 2
        np.testing.assert_array_equal(cache.concat[0, 2:], np.zeros((4, 6)))
        assert (cache.concat[0, :2] != 0).all()

    def test_dimension_arithmetic(self):
        # D_w=8, D_p=16, char 32 filters x 1 width -> 56 columns.
        sentence = make_sentence([("x", "O")])
        vocab = build_vocab(make_corpus([sentence]))
        rng = np.random.default_rng(6)
        word = EmbeddingTable(np.zeros((vocab.word_size, 8)))
        pos = PosEmbedding(np.zeros((vocab.pos_size, 16)))
        char = CharCnnParams(
            np.zeros((vocab.char_size, 24)), (3,), [rng.normal(size=(32, 3, 24))],
            [np.zeros(32)],
        )
        (chunk,) = chunk_sentence(sentence, vocab, ChunkConfig())
        model = _model(word, pos, char, ChunkConfig().window)
        assert model.dims.feature_dim == 8 + 16 + 32
        assert forward_batch(model, batch_chunks([chunk])).inputs.shape[1] == 8 + 16 + 32
