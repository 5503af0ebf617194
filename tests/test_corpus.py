from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinspan import corpus as corpus_module
from clinspan.chunking import ChunkConfig
from clinspan.corpus import (
    EMPTY_PLACEHOLDER,
    PAD,
    PAD_INDEX,
    UNK,
    UNK_INDEX,
    ParseError,
    Vocabulary,
    build_vocab,
    corpus_stats,
    format_stats,
    normalize_token,
    parse_corpus,
    serialize_corpus,
    stratified_split,
)
from conftest import count_spans, make_corpus, make_sentence, parse_by_loop, parse_text


class TestNormalizeToken:
    def test_unit_shorthand_period(self):
        assert normalize_token("Mg.") == "mg"

    def test_already_normalized(self):
        assert normalize_token("diabetes") == "diabetes"

    def test_non_ascii_removed(self):
        # lowercase("Naïve") = "naïve"; dropping the non-ASCII byte leaves "nave"
        assert normalize_token("Naïve") == "nave"

    def test_lowercasing(self):
        assert normalize_token("COPD") == "copd"

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("a.", "a"),  # 1-letter stem
            ("etc.", "etc"),
            ("abcd.", "abcd"),  # 4-letter stem, last qualifying size
            ("abcde.", "abcde."),  # 5-letter stem, too long
            ("u.s.", "u.s."),  # stem not alphabetic
            ("12.", "12."),  # digit stem
            (".", "."),  # empty stem
            ("ab..", "ab.."),  # stem ends with a period itself
        ],
    )
    def test_period_rule_is_exact(self, raw, expected):
        assert normalize_token(raw) == expected

    def test_empty_after_normalization_becomes_placeholder(self):
        assert normalize_token("ï") == EMPTY_PLACEHOLDER
        assert normalize_token("æøå") == EMPTY_PLACEHOLDER

    def test_idempotent(self):
        for raw in ["Mg.", "Naïve", "ï", "AB..", "Type", "2"]:
            once = normalize_token(raw)
            assert normalize_token(once) == once


class TestParseCorpus:
    def test_worked_example(self):
        corpus = parse_text("type NOUN B\n2 NUM I\ndiabetes NOUN I\nmellitus NOUN I\n\n")
        assert len(corpus.sentences) == 1
        assert corpus.sentences[0].labels() == ["B", "I", "I", "I"]
        assert [t.surface for t in corpus.sentences[0].tokens] == [
            "type", "2", "diabetes", "mellitus",
        ]

    def test_empty_stream(self):
        corpus = parse_text("")
        assert len(corpus.sentences) == 0
        assert corpus.note_count == 0

    def test_unknown_label_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_text("ok NOUN B\nbad NOUN Q\n")
        assert err.value.line_number == 2

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_text("only NOUN\n")
        assert err.value.line_number == 1
        with pytest.raises(ParseError):
            parse_text("a b c d e\n")

    def test_two_columns_allowed_without_labels(self):
        corpus = parse_text("type NOUN\n2 NUM\n", require_labels=False)
        assert corpus.sentences[0].labels() == ["O", "O"]

    def test_concept_id_column(self):
        corpus = parse_text("type NOUN B X1\n")
        assert corpus.sentences[0].tokens[0].concept_id == "X1"

    def test_document_boundaries(self):
        corpus = parse_text(
            "-DOCSTART-\na N O\n\n-DOCSTART-\nb N O\n\nc N O\n"
        )
        assert corpus.note_count == 2
        assert [s.doc_id for s in corpus.sentences] == ["0", "1", "1"]
        assert [s.sent_index for s in corpus.sentences] == [0, 0, 1]

    def test_implicit_first_document(self):
        corpus = parse_text("a N O\n\n-DOCSTART-\nb N O\n")
        assert corpus.note_count == 2
        assert [s.doc_id for s in corpus.sentences] == ["0", "1"]

    def test_surfaces_normalized_on_ingestion(self):
        corpus = parse_text("Mg. NOUN O\n")
        assert corpus.sentences[0].tokens[0].surface == "mg"

    def test_orphan_inside_is_flagged_not_rejected(self):
        corpus = parse_text("a N I\nb N O\nc N I\n")
        assert corpus.sentences[0].labels() == ["I", "O", "I"]

    def test_round_trip_on_fixture(self, stats_corpus):
        assert parse_text(serialize_corpus(stats_corpus)) == stats_corpus

    def test_round_trip_is_byte_stable(self, stats_corpus):
        text = serialize_corpus(stats_corpus)
        assert serialize_corpus(parse_text(text)) == text


# Lines a corpus file can hold, valid or not.  A drawn corpus picks from a few
# of them, so lines repeat, as they do in clinical notes.
_columns = st.one_of(
    st.tuples(
        st.sampled_from(["Mg.", "type", "Naïve", "ï"]),
        st.sampled_from(["NOUN", "NUM"]),
        st.sampled_from(["B", "I", "O", "Q"]),  # Q is no label
        st.sampled_from([(), ("X1",)]),
    ).map(lambda c: [*c[:3], *c[3]]),
    st.lists(st.sampled_from(["type", "NOUN", "O"]), min_size=1, max_size=5),  # any count
)
_token_lines = st.builds(
    lambda lead, cols, sep, end: lead + sep.join(cols) + end,
    st.sampled_from(["", " ", "\t"]),
    _columns,
    st.sampled_from([" ", "\t", "  ", "\x1c", "\x85"]),
    st.sampled_from(["", "\n", "\r\n", " \n"]),
)
_other_lines = st.sampled_from(["", "\n", " \r\n", "-DOCSTART-\n", " -DOCSTART-\r\n"])


def _parse_outcome(parse, lines, require_labels):
    try:
        return parse(lines, require_labels=require_labels)
    except ParseError as exc:
        return (str(exc), exc.line_number)


class TestParseCorpusAgainstLoop:
    """``parse_corpus`` shares one token between equal lines; the per-line
    loop in conftest builds every token anew.  Both must read the same."""

    @given(
        st.lists(st.one_of(_token_lines, _other_lines), min_size=1, max_size=6),
        st.lists(st.integers(min_value=0, max_value=5), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_loop(self, pool, picks):
        lines = [pool[i % len(pool)] for i in picks]
        for require_labels in (True, False):
            assert _parse_outcome(parse_corpus, lines, require_labels) == _parse_outcome(
                parse_by_loop, lines, require_labels
            )

    def test_equal_lines_share_one_token(self, data_dir):
        lines = (data_dir / "stats_corpus.txt").read_text(encoding="utf-8").splitlines(True)
        lines = lines + [" " + line.replace("\n", "\r\n") for line in lines]
        corpus = parse_corpus(lines)
        token_lines = {line.strip() for line in lines} - {"", "-DOCSTART-"}
        tokens = [t for sentence in corpus.sentences for t in sentence.tokens]
        assert len({id(t) for t in tokens}) == len(token_lines) < len(tokens)
        assert corpus == parse_by_loop(lines)

    def test_lines_past_the_cap_parse_each_time(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "LINE_MEMO_CAP", 2)
        distinct = [f"w{i} NOUN O\n" for i in range(50)]
        lines = distinct + ["\n"] + distinct
        corpus = parse_corpus(lines)
        assert corpus == parse_by_loop(lines)
        tokens = [t for sentence in corpus.sentences for t in sentence.tokens]
        # Only the first two distinct lines are remembered and shared.
        assert len({id(t) for t in tokens}) == len(tokens) - 2


class TestBuildVocab:
    def test_five_distinct_words_plus_reserved(self):
        corpus = parse_text(
            "alpha N O\nbeta N O\ngamma N O\n\ndelta N O\nepsilon N O\nalpha N O\n"
        )
        vocab = build_vocab(corpus, min_count=1)
        assert vocab.word_size == 5 + 2

    def test_min_count_filters_words(self):
        corpus = parse_text("mg N O\nmg N O\nmg N O\nxyzzy N O\n")
        vocab = build_vocab(corpus, min_count=2)
        assert "mg" in vocab.word_to_index
        assert vocab.word_to_index.get("xyzzy", UNK_INDEX) == UNK_INDEX

    def test_pos_and_chars_indexed_regardless_of_frequency(self):
        corpus = parse_text("q VERB O\n")
        vocab = build_vocab(corpus, min_count=5)
        assert vocab.word_to_index.get("q", UNK_INDEX) == UNK_INDEX
        assert vocab.pos_to_index.get("VERB", UNK_INDEX) != UNK_INDEX
        assert vocab.char_indices("q")[0] != UNK_INDEX

    def test_indices_dense_with_reserved(self):
        corpus = parse_text("ab N O\ncd V B\n")
        vocab = build_vocab(corpus)
        for mapping in (vocab.word_to_index, vocab.pos_to_index, vocab.char_to_index):
            assert sorted(mapping.values()) == list(range(len(mapping)))
            assert mapping["<pad>"] == PAD_INDEX
            assert mapping["<unk>"] == UNK_INDEX

    def test_placeholder_never_indexed(self):
        corpus = parse_text("ï N O\nreal N O\n")
        vocab = build_vocab(corpus)
        assert EMPTY_PLACEHOLDER not in vocab.word_to_index
        assert vocab.word_to_index.get(EMPTY_PLACEHOLDER, UNK_INDEX) == UNK_INDEX

    def test_min_count_below_one_rejected(self):
        corpus = parse_text("a N O\n")
        with pytest.raises(ValueError):
            build_vocab(corpus, min_count=0)


def _split_fixture():
    sentences = []
    for i in range(5):
        sentences.append(
            make_sentence([("aspirin", "B"), ("given", "O"), ("this", "O"), ("morning", "O")],
                          sent_index=i)
        )
    for i in range(5):
        sentences.append(
            make_sentence([("patient", "O"), ("resting", "O"), ("in", "O"), ("bed", "O")],
                          sent_index=5 + i)
        )
    return make_corpus(sentences)


class TestStratifiedSplit:
    def test_concept_bearing_sentences_split_proportionally(self):
        corpus = _split_fixture()
        result = stratified_split(corpus, valid_fraction=0.2, seed=7)
        assert len(result.valid.sentences) == 2
        bearing = sum(1 for s in result.valid.sentences if count_spans(s.labels()))
        assert bearing == 1
        assert result.stratified

    def test_half_split_of_two_sentences(self):
        s = make_sentence([("a", "B"), ("b", "I")])
        corpus = make_corpus([s, make_sentence([("a", "B"), ("b", "I")], sent_index=1)])
        result = stratified_split(corpus, valid_fraction=0.5, seed=0)
        assert len(result.train.sentences) == 1
        assert len(result.valid.sentences) == 1

    def test_deterministic_for_seed(self):
        corpus = _split_fixture()
        first = stratified_split(corpus, 0.3, seed=123)
        second = stratified_split(corpus, 0.3, seed=123)
        assert first.train == second.train
        assert first.valid == second.valid

    def test_degenerate_concept_free_corpus_flagged(self):
        sentences = [
            make_sentence([("w", "O"), ("x", "O")], sent_index=i) for i in range(4)
        ]
        result = stratified_split(make_corpus(sentences), 0.25, seed=1)
        assert not result.stratified
        assert len(result.valid.sentences) == 1

    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
        frac=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_disjoint_union_property(self, n, seed, frac):
        rng = np.random.default_rng(seed % 1000)
        sentences = [
            make_sentence(
                [("w%d" % j, "B" if rng.random() < 0.2 else "O") for j in range(3)],
                sent_index=i,
            )
            for i in range(n)
        ]
        corpus = make_corpus(sentences)
        result = stratified_split(corpus, frac, seed)
        combined = sorted(
            result.train.sentences + result.valid.sentences,
            key=lambda s: s.sent_index,
        )
        assert tuple(combined) == corpus.sentences
        assert not set(result.train.sentences) & set(result.valid.sentences)
        n_valid = min(max(int(round(n * frac)), 1), n - 1)
        assert len(result.valid.sentences) == n_valid

    def test_invalid_fraction_rejected(self):
        corpus = _split_fixture()
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                stratified_split(corpus, frac, 0)


class TestCorpusStats:
    def test_single_sentence(self):
        corpus = parse_text("type N B\n2 NUM I\ndiabetes N I\nmellitus N I\n")
        report = corpus_stats(corpus, ChunkConfig())
        assert report.note_count == 1
        assert report.sentence_count_before_chunking == 1
        assert report.concept_span_count == 1
        assert report.chunk_count_after_chunking == 1

    def test_36_token_sentence_yields_two_chunks(self):
        words = [(f"w{i}", "O") for i in range(36)]
        corpus = make_corpus([make_sentence(words)])
        report = corpus_stats(corpus, ChunkConfig(window=19, overlap=2))
        assert report.chunk_count_after_chunking == 2

    def test_bundled_fixture_hand_counts(self, stats_corpus):
        report = corpus_stats(stats_corpus, ChunkConfig())
        assert report.note_count == 3
        assert report.sentence_count_before_chunking == 7
        assert report.chunk_count_after_chunking == 9
        assert report.concept_span_count == 11
        assert report.sentence_length_histogram == {
            3: 1, 4: 1, 6: 1, 10: 1, 19: 1, 21: 1, 36: 1,
        }

    def test_histogram_sums_to_sentence_count(self, stats_corpus):
        report = corpus_stats(stats_corpus, ChunkConfig())
        assert (
            sum(report.sentence_length_histogram.values())
            == report.sentence_count_before_chunking
        )

    def test_span_count_agrees_with_decoder(self, stats_corpus, overfit_corpus):
        # The stats count comes from decode_iob; count_spans is an
        # independent implementation of the same definition.
        for corpus in (stats_corpus, overfit_corpus):
            report = corpus_stats(corpus, ChunkConfig())
            counted = sum(count_spans(s.labels()) for s in corpus.sentences)
            assert report.concept_span_count == counted

    def test_format_stats_lists_all_rows(self, stats_corpus):
        text = format_stats(corpus_stats(stats_corpus, ChunkConfig()))
        assert "Total number of notes" in text
        assert "Number of sentences before chunking" in text
        assert "Number of chunks after chunking" in text
        assert "Number of annotated concepts" in text
        assert "Sentence length histogram" in text


# Single characters of every kind: ASCII, non-ASCII, astral, lone surrogates
# and the empty-surface placeholder.
any_char = st.one_of(
    st.characters(),
    st.integers(0x80, 0xFFFF).filter(lambda c: not 0xD800 <= c <= 0xDFFF).map(chr),
    st.integers(0x10000, 0x10FFFF).map(chr),
    st.integers(0xD800, 0xDFFF).map(chr),
    st.sampled_from([EMPTY_PLACEHOLDER, "<", ">", "p", "a", "d", "u", "n", "k"]),
)


class TestCharIndices:
    """The vectorised char lookup against the per-char dict."""

    @staticmethod
    def _vocab(chars, extra_keys=()):
        char_to_index = {PAD: PAD_INDEX, UNK: UNK_INDEX}
        for key in [*chars, *extra_keys]:
            char_to_index.setdefault(key, len(char_to_index))
        return Vocabulary({PAD: PAD_INDEX, UNK: UNK_INDEX}, {PAD: PAD_INDEX, UNK: UNK_INDEX},
                          char_to_index)

    @given(st.lists(any_char, max_size=30), st.text(any_char, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_char_dict(self, known, text):
        vocab = self._vocab(known, extra_keys=("ab", "\U0001F600x"))
        got = vocab.char_indices(text)
        assert got.dtype == np.int64
        assert got.tolist() == [vocab.char_to_index.get(c, UNK_INDEX) for c in text]

    def test_multi_char_keys_never_match(self):
        vocab = self._vocab("xy", extra_keys=("xy",))
        assert vocab.char_indices(PAD + UNK).tolist() == [UNK_INDEX] * len(PAD + UNK)
        assert vocab.char_indices("xy").tolist() == [2, 3]  # not the key "xy" (4)

    def test_placeholder_and_surrogates(self):
        sentence = make_sentence([(EMPTY_PLACEHOLDER, "O"), ("q\U0001F600", "O")])
        vocab = build_vocab(make_corpus([sentence]))
        assert EMPTY_PLACEHOLDER not in vocab.char_to_index
        text = EMPTY_PLACEHOLDER + "q\U0001F600\ud800"
        assert vocab.char_indices(text).tolist() == [
            UNK_INDEX, vocab.char_to_index["q"], vocab.char_to_index["\U0001F600"], UNK_INDEX,
        ]
        assert self._vocab(["\udfff"]).char_indices("\udfff\ud800").tolist() == [2, UNK_INDEX]
        assert vocab.char_indices("").tolist() == []
