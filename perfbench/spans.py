"""Spans around the calls into each clinspan module, recorded from outside.

A ``Tracer`` replaces cross-module public functions in the namespace where
their caller looks them up (``clinspan.tagger.forward_batch``,
``clinspan.neural.char_cnn_trace``, ``clinspan.metrics.span_match_counts``,
...), and hands the benchmark traced versions of the entry points it calls
itself.  Spans (name, start, end, parent, request, info) stay in memory and
are written out when the benchmark ends.  Self time is a span's duration
minus that of its direct children.
"""
from __future__ import annotations

import gzip
import importlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# (module looked up by the caller, attribute, span name)
PATCHED = (
    ("clinspan.tagger", "stratified_split", "corpus.stratified_split"),
    ("clinspan.tagger", "chunk_sentence", "chunking.chunk_sentence"),
    ("clinspan.tagger", "merge_chunk_predictions", "chunking.merge_chunk_predictions"),
    ("clinspan.tagger", "init_parameters", "neural.init_parameters"),
    ("clinspan.tagger", "batch_chunks", "neural.batch_chunks"),
    ("clinspan.tagger", "make_dropout_plan", "neural.make_dropout_plan"),
    ("clinspan.tagger", "forward_batch", "neural.forward_batch"),
    ("clinspan.tagger", "backward_from_cache", "neural.backward_from_cache"),
    ("clinspan.tagger", "clip_gradients", "neural.clip_gradients"),
    ("clinspan.tagger", "adam_step", "neural.adam_step"),
    ("clinspan.metrics", "span_match_counts", "metrics.span_match_counts"),
    ("clinspan.metrics", "prf", "metrics.prf"),
    ("clinspan.neural", "char_cnn_trace", "features.char_cnn_trace"),
)

# Entry points the benchmark calls itself: (module, attribute, span name).
ENTRY = (
    ("clinspan.corpus", "parse_corpus", "corpus.parse_corpus"),
    ("clinspan.corpus", "build_vocab", "corpus.build_vocab"),
    ("clinspan.corpus", "serialize_corpus", "corpus.serialize_corpus"),
    ("clinspan.features", "load_embeddings", "features.load_embeddings"),
    ("clinspan.tagger", "train", "tagger.train"),
    ("clinspan.tagger", "save_model", "tagger.save_model"),
    ("clinspan.tagger", "load_model", "tagger.load_model"),
    ("clinspan.tagger", "predict_corpus_labels", "tagger.predict_corpus_labels"),
    ("clinspan.tagger", "annotate_sentence", "tagger.annotate_sentence"),
    ("clinspan.tagger", "decode_iob", "tagger.decode_iob"),
)


def _forward_info(args, kwargs) -> tuple:
    """(chunks, has dropout plan, real slots, computed slots, distinct char seqs)."""
    batch = args[1]
    plan = args[2] if len(args) > 2 else kwargs.get("plan")
    real = batch.mask > 0
    distinct = {
        chars[t].tobytes()
        for chars, row in zip(batch.chars, real)
        for t in np.flatnonzero(row)
    }
    return (batch.size, plan is not None, int(real.sum()), int(real.size), len(distinct))


def _size_info(args, kwargs) -> tuple:
    return (len(args[0]),)


def _cache_info(args, kwargs) -> tuple:
    return (args[1].batch.size,)


INFO: dict[str, Callable] = {
    "neural.forward_batch": _forward_info,
    "neural.batch_chunks": _size_info,
    "neural.backward_from_cache": _cache_info,
}


@dataclass(slots=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 at the top
    request: int
    info: tuple | None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        info = INFO.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                extra = info(args, kwargs) if info is not None else None
                spans[index] = Span(name, start, end, parent, self.request, extra)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCHED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def entry_points(self) -> dict[str, Callable]:
        """Traced versions of the functions the benchmark calls, by attribute."""
        out = {}
        for module_name, attr, name in ENTRY:
            out[attr] = self.wrap(getattr(importlib.import_module(module_name), attr), name)
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\trequest\tinfo\n")
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                info = ",".join(str(x) for x in s.info) if s.info else ""
                fh.write(f"{i}\t{s.name}\t{s.start}\t{s.end}\t{s.parent}\t{s.request}\t{info}\n")


class SpanIndex:
    """Queries over a finished trace."""

    def __init__(self, spans: list[Span | None]) -> None:
        if any(s is None for s in spans):
            raise RuntimeError("trace holds an unfinished span")
        self.spans: list[Span] = list(spans)
        self.children: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                self.children[s.parent].append(i)

    def of(self, name: str, request: int | None = None) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s.name == name and (request is None or s.request == request)
        ]

    def seconds(self, i: int) -> float:
        return self.spans[i].seconds

    def self_seconds(self, i: int) -> float:
        return self.seconds(i) - sum(self.seconds(c) for c in self.children[i])

    def eval_gaps(self, train_index: int) -> list[float]:
        """Per-epoch evaluation time inside one ``train`` span.

        A training step is batch_chunks, make_dropout_plan, forward_batch,
        backward_from_cache, clip_gradients, adam_step.  The evaluation of an
        epoch runs from the end of its last adam_step to the start of the
        next epoch's first training batch_chunks, or to the end of ``train``.
        """
        kids = [self.spans[c] for c in self.children[train_index]]
        starts = [
            j for j in range(len(kids) - 1)
            if kids[j].name == "neural.batch_chunks"
            and kids[j + 1].name == "neural.make_dropout_plan"
        ]
        gaps = []
        for k, span in enumerate(kids):
            if span.name != "neural.adam_step" or k + 1 in starts:
                continue
            later = [j for j in starts if j > k]
            end = kids[later[0]].start if later else self.spans[train_index].end
            gaps.append((end - span.end) * 1e-9)
        return gaps
