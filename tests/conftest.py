from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from clinspan import neural
from clinspan.corpus import AnnotatedCorpus, AnnotatedSentence, RawToken, parse_corpus

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def stats_corpus() -> AnnotatedCorpus:
    with open(DATA_DIR / "stats_corpus.txt", encoding="utf-8") as fh:
        return parse_corpus(fh)


@pytest.fixture(scope="session")
def overfit_corpus() -> AnnotatedCorpus:
    with open(DATA_DIR / "overfit_corpus.txt", encoding="utf-8") as fh:
        return parse_corpus(fh)


@pytest.fixture
def rolled_dense_gradient(monkeypatch):
    """Roll the analytic ``dense.w`` gradient by one position: a gradient bug
    that finite differences must catch."""
    exact = neural.backward

    def rolled(model, chunk):
        grads = exact(model, chunk)
        grads["dense.w"] = np.roll(grads["dense.w"], 1)
        return grads

    monkeypatch.setattr(neural, "backward", rolled)


def make_sentence(
    labeled_words: list[tuple[str, str]],
    doc_id: str = "0",
    sent_index: int = 0,
    pos: str = "NOUN",
) -> AnnotatedSentence:
    """Build a sentence from (surface, label) pairs with a uniform POS tag."""
    tokens = tuple(
        RawToken(surface=w, pos=pos, label=lab) for w, lab in labeled_words
    )
    return AnnotatedSentence(tokens=tokens, doc_id=doc_id, sent_index=sent_index)


def make_corpus(sentences: list[AnnotatedSentence]) -> AnnotatedCorpus:
    docs = {s.doc_id for s in sentences}
    return AnnotatedCorpus(tuple(sentences), note_count=len(docs))


def parse_text(text: str, **kwargs) -> AnnotatedCorpus:
    return parse_corpus(io.StringIO(text), **kwargs)


# Independent oracles for the span decoder (clinspan.corpus.decode_iob).


def count_spans(labels) -> int:
    """Number of maximal B(I)* runs; orphan I (after O or initial) opens a run."""
    count = 0
    prev = "O"
    for label in labels:
        if label == "B" or (label == "I" and prev == "O"):
            count += 1
        prev = label
    return count


def spans_to_iob(spans, length: int) -> list[str]:
    """Inverse of decode_iob for non-overlapping span sets."""
    tags = ["O"] * length
    for span in sorted(spans, key=lambda s: s.start):
        if span.end > length:
            raise ValueError(f"span [{span.start}, {span.end}) exceeds length {length}")
        if any(t != "O" for t in tags[span.start : span.end]):
            raise ValueError("overlapping spans cannot be encoded")
        tags[span.start] = "B"
        for i in range(span.start + 1, span.end):
            tags[i] = "I"
    return tags
