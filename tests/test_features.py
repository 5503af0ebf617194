from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinspan.chunking import ChunkConfig, chunk_sentence
from clinspan.corpus import UNK_INDEX, ParseError, build_vocab
from clinspan.features import (
    CharCnnParams,
    EmbeddingTable,
    char_cnn_trace,
    load_embeddings,
)
from clinspan.neural import (
    GruDirectionParams,
    ModelDims,
    ModelParameters,
    batch_chunks,
    build_probe,
    forward_batch,
    init_parameters,
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
            table.matrix[vocab.word_to_index.get("mg", UNK_INDEX)], [0.1, -0.2, 0.3, 4.0]
        )
        assert table.dim == 4
        dims = ModelDims(word_dim=4, pos_dim=2, char_dim=2, char_filters=2, char_widths=(2,),
                         hidden=2, window=4, overlap=1)
        model = init_parameters(dims, vocab, table, np.random.default_rng(0))
        assert not model.word_table_trainable  # static by default

    def test_missing_word_row_is_deterministic(self):
        vocab = _vocab()
        first = load_embeddings(io.StringIO("1 8\nmg 1 2 3 4 5 6 7 8\n"), vocab)
        second = load_embeddings(io.StringIO("1 8\nmg 1 2 3 4 5 6 7 8\n"), vocab)
        row = first.matrix[vocab.word_to_index.get("dose", UNK_INDEX)]
        np.testing.assert_array_equal(row, second.matrix[vocab.word_to_index.get("dose", UNK_INDEX)])
        assert (np.abs(row) <= 0.5 / 8).all()
        assert np.abs(row).max() > 0

    def test_dimension_mismatch_reports_line(self):
        vocab = _vocab()
        with pytest.raises(ParseError) as err:
            load_embeddings(io.StringIO("2 4\nmg 1 2 3 4\ndose 1 2 3 4 5\n"), vocab)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_value_reports_line(self, value):
        vocab = _vocab()
        with pytest.raises(ParseError, match="non-finite") as err:
            load_embeddings(io.StringIO(f"2 2\nmg 1 2\ndose 1 {value}\n"), vocab)
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
    """The vector of one token from a one-token ``char_cnn_trace`` call."""
    return char_cnn_trace([np.asarray(chars, dtype=np.int64)], params)[0][0]


def reference_char_cnn(chars, params):
    """One token's char-CNN vector by plain loops, plus, per width and
    filter, the first window reaching the max (the per-token oracle)."""
    table = params.char_table
    ids = [int(c) if 0 <= c < len(table) else 1 for c in chars]  # 1 is UNK
    while len(ids) > 1 and ids[-1] == 0:  # trailing PAD; an all-PAD token keeps one
        ids.pop()
    vector, best = [], []
    for width, filters, bias in zip(params.widths, params.filters, params.biases):
        seq = [0] * max(width - len(ids), 0) + ids
        firsts = []
        for f in range(filters.shape[0]):
            top, first = None, None
            for start in range(len(seq) - width + 1):
                score = float(bias[f])
                for j in range(width):
                    for d in range(table.shape[1]):
                        score += float(filters[f, j, d]) * float(table[seq[start + j], d])
                score = max(score, 0.0)
                if top is None or score > top:
                    top, first = score, start
            vector.append(top)
            firsts.append(first)
        best.append(firsts)
    return np.array(vector), best


# Probe char ids: 0 PAD, 1 UNK, 2..7 letters; -3..-1 and 8..11 are out of range.
_ids = st.integers(min_value=-3, max_value=11)
_tokens = st.one_of(
    st.lists(_ids, max_size=7),  # includes empty and shorter than every width
    st.lists(st.just(0), min_size=1, max_size=4),  # all PAD
    st.tuples(st.lists(_ids, min_size=1, max_size=5), st.integers(1, 3)).map(
        lambda p: p[0] + [0] * p[1]  # trailing PAD
    ),
    st.tuples(st.integers(2, 7), st.integers(3, 6)).map(lambda p: [p[0]] * p[1]),  # tied windows
)


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

    @pytest.mark.parametrize("widths", [(3,), (2, 3)])
    @given(seqs=st.lists(_tokens, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_one_call_equals_per_token_reference(self, widths, seqs):
        params = build_probe(seed=4, char_widths=widths)[0].char_params
        vectors, trace = char_cnn_trace([np.asarray(s, dtype=np.int64) for s in seqs], params)
        assert vectors.shape == (len(seqs), params.output_dim)
        for wi, width in enumerate(widths):
            assert trace.window_ids[wi].shape == (trace.pre[wi].shape[0], width)
            assert trace.best[wi].shape == (len(seqs), params.n_filters)
        first_row = [0] * len(widths)  # each width's first window row of the token
        for i, seq in enumerate(seqs):
            expected, best = reference_char_cnn(seq, params)
            np.testing.assert_allclose(vectors[i], expected, rtol=0, atol=1e-12)
            for wi, width in enumerate(widths):
                assert (trace.best[wi][i] - first_row[wi]).tolist() == best[wi]
                real = max((t + 1 for t, c in enumerate(seq) if c != 0), default=1)
                first_row[wi] += max(real - width + 1, 1)
        assert first_row == [p.shape[0] for p in trace.pre]

    def test_tied_windows_pool_to_the_first(self):
        # "aaaa" at width 3 has two identical windows; backward must go
        # through the first, as np.argmax did.
        params = _single_filter_params(np.ones((3, 2)), 1.0, [[0, 0], [0, 0], [0.5, 0.25]])
        _, trace = char_cnn_trace([np.array([5, 6]), np.array([2, 2, 2, 2])], params)
        assert trace.pre[0].shape[0] == 3
        assert trace.pre[0][1, 0] == trace.pre[0][2, 0] > 0
        assert trace.best[0].tolist() == [[0], [1]]

    def test_memory_follows_total_chars(self):
        # 200 short tokens and one 1,000-char token: a padded (N, longest)
        # layout holds about 201 x 1,000 windows per width (tens of MB here),
        # the ragged one about 2,000 (under 1 MB).
        params = build_probe(seed=0, char_widths=(2, 3))[0].char_params
        rng = np.random.default_rng(0)
        seqs = [rng.integers(2, 8, size=rng.integers(1, 8)) for _ in range(200)]
        seqs.append(rng.integers(2, 8, size=1000))
        tracemalloc.start()
        try:
            char_cnn_trace(seqs, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_one_window_call_equals_the_same_token_in_a_larger_call(self):
        # A call whose product has one row must round as a larger call does:
        # numpy would send a one-row product to gemv instead of gemm.  The
        # default char dims: 24-wide chars, 32 filters of width 3.
        rng = np.random.default_rng(0)
        params = CharCnnParams(
            np.vstack([np.zeros(24), rng.uniform(-0.35, 0.35, size=(40, 24))]), (3,),
            [rng.uniform(-0.2, 0.2, size=(32, 3, 24))], [rng.normal(0.0, 0.1, size=32)],
        )
        other = np.arange(2, 9)
        for _ in range(200):
            short = rng.integers(2, 41, size=rng.integers(1, 4))  # one window at width 3
            alone = char_cnn_trace([short], params)[0][0]
            inside = char_cnn_trace([other, short], params)[0][1]
            assert alone.tobytes() == inside.tobytes(), short

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
    tensors = {"word_table": word.matrix, "pos_table": pos.matrix, "char_table": char.char_table}
    for k, filters, bias in zip(char.widths, char.filters, char.biases):
        tensors |= {f"char_filters_w{k}": filters, f"char_bias_w{k}": bias}
    gate_shape = {"w": (hidden, d), "u": (hidden, hidden), "b": (hidden,)}
    for prefix in ("gru_fwd", "gru_bwd"):
        for gate in GruDirectionParams.GATE_NAMES:
            tensors[f"{prefix}.{gate}"] = rng.normal(size=gate_shape[gate[0]])
    tensors |= {"dense.w": rng.normal(size=(3, 2 * hidden)), "dense.b": rng.normal(size=3)}
    dims = ModelDims(
        word_dim=word.dim, pos_dim=pos.dim, char_dim=char.char_dim,
        char_filters=char.n_filters, char_widths=char.widths, hidden=hidden,
        window=window, overlap=1,
    )
    return ModelParameters(dims, tensors, False)


class TestFeaturizeChunk:
    """The feature rows forward_batch builds for the real slots of a batch."""

    def _setup(self):
        sentence = make_sentence([("ab", "O"), ("ba", "B")], pos="NOUN")
        vocab = build_vocab(make_corpus([sentence]))
        rng = np.random.default_rng(5)
        word = EmbeddingTable(
            np.vstack([np.zeros(4), rng.normal(size=(vocab.word_size - 1, 4))])
        )
        pos = EmbeddingTable(
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
        # The forward makes one call over the chunk's distinct sequences: "ab", "ba".
        vectors = char_cnn_trace(chunk.char_ids[:2], char)[0]
        for t in range(2):
            np.testing.assert_array_equal(
                rows[t, :4], word.matrix[chunk.word_ids[t]]
            )
            np.testing.assert_array_equal(
                rows[t, 4:7], pos.matrix[chunk.pos_ids[t]]
            )
            np.testing.assert_array_equal(rows[t, 7:], vectors[t])

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
        pos = EmbeddingTable(np.zeros((vocab.pos_size, 16)))
        char = CharCnnParams(
            np.zeros((vocab.char_size, 24)), (3,), [rng.normal(size=(32, 3, 24))],
            [np.zeros(32)],
        )
        (chunk,) = chunk_sentence(sentence, vocab, ChunkConfig())
        model = _model(word, pos, char, ChunkConfig().window)
        assert model.dims.feature_dim == 8 + 16 + 32
        assert forward_batch(model, batch_chunks([chunk])).inputs.shape[1] == 8 + 16 + 32
