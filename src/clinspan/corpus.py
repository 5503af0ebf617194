"""Annotated corpus ingestion: parsing, normalization, vocabulary, splitting,
stats, and the one IOB span decoder (``decode_iob``).

File format: UTF-8 lines of ``surface<WS>POS<WS>LABEL[<WS>CONCEPT_ID]`` where
``<WS>`` is a tab or run of spaces, a blank line ends a sentence and a line
consisting of ``-DOCSTART-`` starts a new document.  Labels come from the
closed set {B, I, O}.

Everything here is a pure function over immutable inputs and safe to call
concurrently.  ``parse_corpus`` parses each distinct token line once per call:
equal lines give one shared ``RawToken`` (it is immutable), up to
``LINE_MEMO_CAP`` distinct lines.  The memo is local to the call, so no state
is shared between calls, and token identity is not part of the API.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

LABELS = ("B", "I", "O")
LABEL_TO_INDEX = {label: i for i, label in enumerate(LABELS)}

DOC_BOUNDARY = "-DOCSTART-"

# Token that replaces surfaces which normalize to the empty string.  It is
# deliberately non-ASCII so it can never collide with a normalized surface,
# and it is excluded from vocabularies so lookups resolve to UNK.
EMPTY_PLACEHOLDER = "□"

# Most distinct token lines one ``parse_corpus`` call remembers: about 6 MB of
# keys and dict slots at 15-character lines.  Later new lines are parsed each
# time they occur, so what the memo adds to the parsed tokens stays bounded.
LINE_MEMO_CAP = 65_536

PAD = "<pad>"
UNK = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1


@dataclass(frozen=True)
class ConceptSpan:
    """Half-open token interval [start, end) within one sentence."""

    start: int
    end: int
    doc_id: str | None = None
    sent_index: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid span [{self.start}, {self.end})")


def decode_iob(tags: Sequence[str]) -> list[ConceptSpan]:
    """Maximal B I* runs as half-open spans, with orphan-I repair.

    An I with no live span (sentence-initial or right after an O) is treated
    as a B and opens a span; O closes any open span.
    """
    spans: list[ConceptSpan] = []
    start: int | None = None
    for i, tag in enumerate(tags):
        if tag not in LABELS:
            raise ValueError(f"unknown tag {tag!r} at position {i}")
        if tag == "O":
            if start is not None:
                spans.append(ConceptSpan(start, i))
                start = None
        elif tag == "B":
            if start is not None:
                spans.append(ConceptSpan(start, i))
            start = i
        else:  # I continues a live span or is repaired into a B
            if start is None:
                start = i
    if start is not None:
        spans.append(ConceptSpan(start, len(tags)))
    return spans


class ParseError(ValueError):
    """Malformed corpus or embedding input; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class RawToken:
    surface: str
    pos: str
    label: str
    concept_id: str | None = None


@dataclass(frozen=True)
class AnnotatedSentence:
    tokens: tuple[RawToken, ...]
    doc_id: str
    sent_index: int

    def __len__(self) -> int:
        return len(self.tokens)

    def labels(self) -> list[str]:
        return [t.label for t in self.tokens]


@dataclass(frozen=True)
class AnnotatedCorpus:
    sentences: tuple[AnnotatedSentence, ...]
    note_count: int

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class Vocabulary:
    """Dense string-to-index maps with PAD=0 and UNK=1 reserved in each.
    ``char_indices`` reads ``char_to_index`` afresh on every call."""

    word_to_index: dict[str, int]
    pos_to_index: dict[str, int]
    char_to_index: dict[str, int]

    def char_indices(self, text: str) -> np.ndarray:
        """The char index of every code point of ``text`` (int64), by one
        ``char_to_index`` lookup each; a char not in it reads ``UNK_INDEX``.
        Only one-code-point keys can match, so ``<pad>`` and ``<unk>`` never
        do; a lone surrogate is a code point like any other."""
        return np.fromiter(map(self.char_to_index.get, text, repeat(UNK_INDEX)), np.int64, len(text))

    @property
    def word_size(self) -> int:
        return len(self.word_to_index)

    @property
    def pos_size(self) -> int:
        return len(self.pos_to_index)

    @property
    def char_size(self) -> int:
        return len(self.char_to_index)


@dataclass(frozen=True)
class StatsReport:
    note_count: int
    sentence_count_before_chunking: int
    chunk_count_after_chunking: int
    concept_span_count: int
    sentence_length_histogram: dict[int, int]


@dataclass(frozen=True)
class SplitResult:
    train: AnnotatedCorpus
    valid: AnnotatedCorpus
    stratified: bool  # False when the corpus had no concepts (plain random split)


def normalize_token(raw: str) -> str:
    """Lowercase, drop non-ASCII characters, strip unit-shorthand periods.

    One trailing period is removed when the remainder is 1-4 alphabetic
    characters ("Mg." -> "mg").  A surface that becomes empty is replaced by
    a placeholder token that maps to UNK downstream, so label alignment is
    never disturbed.
    """
    s = raw.lower()
    s = s.encode("ascii", errors="ignore").decode("ascii")
    if s.endswith("."):
        stem = s[:-1]
        if 1 <= len(stem) <= 4 and stem.isalpha():
            s = stem
    return s if s else EMPTY_PLACEHOLDER


def parse_corpus(stream: Iterable[str], require_labels: bool = True) -> AnnotatedCorpus:
    """Parse the column format into an AnnotatedCorpus.

    Surfaces are normalized on ingestion.  With ``require_labels=False``,
    two-column lines (surface, POS) are accepted and labeled O; this is the
    input mode for tagging unlabeled text.

    Equal token lines (after stripping surrounding whitespace) yield one
    shared ``RawToken`` within a call, for the first ``LINE_MEMO_CAP``
    distinct lines; a line that raises ParseError is never remembered, so
    every occurrence reports its own line number.
    """
    sentences: list[AnnotatedSentence] = []
    current: list[RawToken] = []
    doc_ordinal = -1
    note_count = 0
    sent_in_doc = 0
    memo: dict[str, RawToken] = {}

    def flush() -> None:
        nonlocal current, sent_in_doc
        if current:
            sentences.append(
                AnnotatedSentence(
                    tokens=tuple(current),
                    doc_id=str(max(doc_ordinal, 0)),
                    sent_index=sent_in_doc,
                )
            )
            sent_in_doc += 1
            current = []

    for line_number, raw_line in enumerate(stream, start=1):
        line = raw_line.strip()
        if not line:
            flush()
            continue
        if line == DOC_BOUNDARY:
            flush()
            note_count += 1
            doc_ordinal += 1
            sent_in_doc = 0
            continue
        if doc_ordinal < 0:
            # Content before any document directive: implicit first document.
            doc_ordinal = 0
            note_count = 1
        token = memo.get(line)
        if token is None:
            token = _parse_token(line, require_labels, line_number)
            if len(memo) < LINE_MEMO_CAP:
                memo[line] = token
        current.append(token)
    flush()
    return AnnotatedCorpus(sentences=tuple(sentences), note_count=note_count)


def _parse_token(line: str, require_labels: bool, line_number: int) -> RawToken:
    """One stripped, non-blank token line as a RawToken, or ParseError."""
    parts = line.split()
    if len(parts) == 2 and not require_labels:
        surface_raw, pos = parts
        label = "O"
        concept_id = None
    elif len(parts) in (3, 4):
        surface_raw, pos, label = parts[:3]
        concept_id = parts[3] if len(parts) == 4 else None
    else:
        raise ParseError(
            f"expected 3 or 4 whitespace-separated columns, got {len(parts)}",
            line_number,
        )
    if label not in LABELS:
        raise ParseError(
            f"unknown label {label!r} (expected one of {', '.join(LABELS)})",
            line_number,
        )
    return RawToken(
        surface=normalize_token(surface_raw),
        pos=pos,
        label=label,
        concept_id=concept_id,
    )


def serialize_corpus(corpus: AnnotatedCorpus) -> str:
    """Render a corpus back to the column format.

    ``parse_corpus(serialize_corpus(c)) == c`` for any corpus produced by
    parse_corpus (doc ids are consecutive ordinals, no empty documents).
    """
    lines: list[str] = []
    prev_doc: str | None = None
    for sentence in corpus.sentences:
        if sentence.doc_id != prev_doc:
            lines.append(DOC_BOUNDARY)
            prev_doc = sentence.doc_id
        for tok in sentence.tokens:
            cols = [tok.surface, tok.pos, tok.label]
            if tok.concept_id is not None:
                cols.append(tok.concept_id)
            lines.append("\t".join(cols))
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


def build_vocab(corpus: AnnotatedCorpus, min_count: int = 1) -> Vocabulary:
    """Index words above the count threshold plus every observed POS and char.

    Indices are dense and assigned in first-occurrence order after the
    reserved PAD (0) and UNK (1) entries.  The empty-surface placeholder is
    never indexed so it resolves to UNK.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    word_counts: Counter[str] = Counter()
    pos_seen: dict[str, None] = {}
    char_seen: dict[str, None] = {}
    for sentence in corpus.sentences:
        for tok in sentence.tokens:
            pos_seen.setdefault(tok.pos, None)
            if tok.surface == EMPTY_PLACEHOLDER:
                continue
            word_counts[tok.surface] += 1
            for ch in tok.surface:
                char_seen.setdefault(ch, None)

    word_to_index = {PAD: PAD_INDEX, UNK: UNK_INDEX}
    for word, count in word_counts.items():
        if count >= min_count:
            word_to_index[word] = len(word_to_index)
    pos_to_index = {PAD: PAD_INDEX, UNK: UNK_INDEX}
    for pos in pos_seen:
        pos_to_index[pos] = len(pos_to_index)
    char_to_index = {PAD: PAD_INDEX, UNK: UNK_INDEX}
    for ch in char_seen:
        char_to_index[ch] = len(char_to_index)
    return Vocabulary(word_to_index, pos_to_index, char_to_index)


def stratified_split(
    corpus: AnnotatedCorpus, valid_fraction: float, seed: int
) -> SplitResult:
    """Sentence-level split keeping concept density similar on both sides.

    Sentences are grouped by their gold concept-span count and each group
    contributes a proportional share to the validation side (largest-remainder
    rounding), which keeps the B-token fraction of each side close to the
    corpus-wide fraction.  Deterministic for a given seed.  A corpus with no
    concepts degrades to a plain random split, flagged via ``stratified``.
    """
    if not 0.0 < valid_fraction < 1.0:
        raise ValueError("valid_fraction must be in (0, 1)")
    n = len(corpus.sentences)
    if n < 2:
        raise ValueError("need at least 2 sentences to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_valid = int(round(n * valid_fraction))
    n_valid = min(max(n_valid, 1), n - 1)

    span_counts = [len(decode_iob(s.labels())) for s in corpus.sentences]
    groups: dict[int, list[int]] = {}
    for idx in order:
        groups.setdefault(span_counts[idx], []).append(int(idx))

    quotas = {c: len(members) * n_valid / n for c, members in groups.items()}
    alloc = {c: int(np.floor(q)) for c, q in quotas.items()}
    leftover = n_valid - sum(alloc.values())
    # Hand out the leftover slots by largest fractional remainder; ties broken
    # by group size then span count for determinism.  The leftover is the sum
    # of the remainders, each below 1, so more groups have a positive
    # remainder than there are leftover slots; those sort first, and each has
    # room for one more (alloc < quota <= size).
    by_remainder = sorted(
        groups,
        key=lambda c: (quotas[c] - alloc[c], len(groups[c]), -c),
        reverse=True,
    )
    for c in by_remainder[:leftover]:
        alloc[c] += 1

    valid_idx: set[int] = set()
    for c, members in groups.items():
        valid_idx.update(members[: alloc[c]])

    train_sents = tuple(s for i, s in enumerate(corpus.sentences) if i not in valid_idx)
    valid_sents = tuple(s for i, s in enumerate(corpus.sentences) if i in valid_idx)
    return SplitResult(
        train=AnnotatedCorpus(train_sents, _distinct_docs(train_sents)),
        valid=AnnotatedCorpus(valid_sents, _distinct_docs(valid_sents)),
        stratified=any(c > 0 for c in span_counts),
    )


def _distinct_docs(sentences: tuple[AnnotatedSentence, ...]) -> int:
    return len({s.doc_id for s in sentences})


def corpus_stats(corpus: AnnotatedCorpus, chunk_config) -> StatsReport:
    from .chunking import chunk_count  # local import to avoid a module cycle

    histogram: Counter[int] = Counter()
    chunks = 0
    spans = 0
    for sentence in corpus.sentences:
        length = len(sentence)
        histogram[length] += 1
        chunks += chunk_count(length, chunk_config)
        spans += len(decode_iob(sentence.labels()))
    return StatsReport(
        note_count=corpus.note_count,
        sentence_count_before_chunking=len(corpus.sentences),
        chunk_count_after_chunking=chunks,
        concept_span_count=spans,
        sentence_length_histogram=dict(sorted(histogram.items())),
    )


def format_stats(report: StatsReport) -> str:
    rows = [
        ("Total number of notes", report.note_count),
        ("Number of sentences before chunking", report.sentence_count_before_chunking),
        ("Number of chunks after chunking", report.chunk_count_after_chunking),
        ("Number of annotated concepts", report.concept_span_count),
    ]
    name_width = max(len(name) for name, _ in rows)
    value_width = max(len(str(value)) for _, value in rows)
    lines = [f"{name:<{name_width}}  {value:>{value_width}}" for name, value in rows]
    lines.append("")
    lines.append("Sentence length histogram")
    lines.append("  length  count")
    for length, count in report.sentence_length_histogram.items():
        lines.append(f"  {length:>6}  {count:>5}")
    return "\n".join(lines) + "\n"
