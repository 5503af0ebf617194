"""The names and numbers the benchmark under ``perfbench/`` takes from clinspan.

The benchmark patches functions by module and attribute name and checks the
batched forward against its own per-chunk reference.  A renamed or moved
function, or a forward that drifts from the reference, would otherwise show
only in a traced benchmark run.  These tests read ``perfbench/`` and change
nothing there.
"""
from __future__ import annotations

import importlib
import sys
import threading
from pathlib import Path

import pytest

from clinspan import neural
from clinspan.chunking import chunk_sentence
from clinspan.corpus import build_vocab
from clinspan.features import load_embeddings
from clinspan.neural import batch_chunks, forward_batch
from clinspan.tagger import TrainConfig, load_model, predict_corpus_labels, save_model, train

from conftest import DATA_DIR

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_MODULES = ("checks", "spans", "gauge", "worker")


@pytest.fixture(scope="module")
def bench():
    """perfbench's modules, imported from its directory and unloaded afterwards."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        modules = {name: importlib.import_module(name) for name in BENCH_MODULES}
        for module in modules.values():
            assert Path(module.__file__).parent == PERFBENCH, module.__file__
        yield modules
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def test_patched_and_entry_names_resolve(bench):
    spans = bench["spans"]
    for module, attr, _ in spans.PATCHED + spans.ENTRY:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_tracer_uninstall_restores_every_original(bench):
    spans = bench["spans"]
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in spans.PATCHED
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            patched = getattr(importlib.import_module(module), attr)
            assert patched is not original and patched.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, f"{module}.{attr}"


def _embeddings(vocab):
    with open(DATA_DIR / "overfit_embeddings.txt", encoding="utf-8") as fh:
        return load_embeddings(fh, vocab)


@pytest.fixture(scope="module")
def trained(overfit_corpus):
    """A model trained on the overfit corpus, its vocabulary and its config."""
    vocab = build_vocab(overfit_corpus)
    config = TrainConfig(epochs=2, hidden=8, char_filters=4, char_widths=(2, 3), pos_dim=4,
                         char_dim=4)
    model, _ = train(overfit_corpus, _embeddings(vocab), config, vocab=vocab)
    return model, vocab, config


def test_reference_forward_matches_forward_batch(bench, trained, overfit_corpus, tmp_path):
    # The tagging workloads run the forward on a model from load_model.
    model, vocab, config = trained
    save_model(model, vocab, str(tmp_path / "model.bin"))
    loaded, _ = load_model(str(tmp_path / "model.bin"))
    chunks = [c for s in overfit_corpus.sentences
              for c in chunk_sentence(s, vocab, config.chunk_config)]
    for m in (model, loaded):
        probs = forward_batch(m, batch_chunks(chunks)).probs
        worst = max(bench["checks"].reference_error(m, c, p) for c, p in zip(chunks, probs))
        assert worst <= bench["worker"].REFERENCE_TOLERANCE


def test_threaded_forward_leaves_a_finished_trace(bench, trained, overfit_corpus, monkeypatch):
    # The tracer's span stack is shared between threads, so the GRU helper
    # thread must not call a patched function.
    monkeypatch.setattr(neural, "_CPUS", 2)
    model, vocab, config = trained
    spans = bench["spans"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        predict_corpus_labels(model, vocab, overfit_corpus.sentences * 3, config.chunk_config)
    finally:
        tracer.uninstall()
    index = spans.SpanIndex(tracer.spans)
    forwards = index.of("neural.forward_batch")
    assert forwards and index.spans[forwards[0]].info[2] >= neural.PARALLEL_ROWS
    convolutions = index.of("features.char_cnn_trace")
    assert convolutions
    for i in convolutions:
        assert index.spans[index.spans[i].parent].name == "neural.forward_batch"


def test_threaded_backward_leaves_a_finished_trace(bench, trained, overfit_corpus, monkeypatch):
    # The backward's helper thread must not call a patched function either:
    # the char-CNN recompute stays in the calling thread, under its backward.
    monkeypatch.setattr(neural, "_CPUS", 2)
    monkeypatch.setattr(neural, "PARALLEL_ROWS", 1)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(1) or start(thread))
    callers = set()  # the threads that called a patched function

    class ThreadTracer(bench["spans"].Tracer):
        def wrap(self, fn, name):
            traced = super().wrap(fn, name)
            return lambda *args, **kwargs: callers.add(threading.get_ident()) or traced(*args, **kwargs)

    _, vocab, config = trained
    tracer = ThreadTracer()
    tracer.install()
    try:
        train(overfit_corpus, _embeddings(vocab), config, vocab=vocab)
    finally:
        tracer.uninstall()
    index = bench["spans"].SpanIndex(tracer.spans)
    backwards = index.of("neural.backward_from_cache")
    assert backwards
    assert len(started) == len(index.of("neural.forward_batch")) + len(backwards)
    assert callers == {threading.get_ident()}
    for i in backwards:
        assert [index.spans[c].name for c in index.children[i]] == ["features.char_cnn_trace"]


def test_one_merge_span_per_predict_call(bench, trained, overfit_corpus):
    # chunking.merge_chunk_predictions_s sums these spans per request: one
    # merge over every sentence of a predict_corpus_labels call.
    model, vocab, config = trained
    sentences = overfit_corpus.sentences * 2
    spans = bench["spans"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        predict_corpus_labels(model, vocab, sentences, config.chunk_config)
        predict_corpus_labels(model, vocab, sentences[:1], config.chunk_config)
    finally:
        tracer.uninstall()
    index = spans.SpanIndex(tracer.spans)
    merges = index.of("chunking.merge_chunk_predictions")
    assert len(merges) == 2
    assert all(index.spans[i].parent == -1 for i in merges)


def _convolutions_under(index, name):
    """For each span called ``name``, how many char-CNN calls it made itself."""
    return [
        sum(index.spans[c].name == "features.char_cnn_trace" for c in index.children[i])
        for i in index.of(name)
    ]


def test_one_char_cnn_call_per_forward_and_backward(bench, trained, overfit_corpus, tmp_path):
    # features.char_cnn_s and char_cnn_useful_share count these spans.
    model, vocab, config = trained
    save_model(model, vocab, str(tmp_path / "model.bin"))
    loaded, _ = load_model(str(tmp_path / "model.bin"))
    spans = bench["spans"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        train(overfit_corpus, _embeddings(vocab), config, vocab=vocab)
        cold = len(tracer.spans)
        predict_corpus_labels(loaded, vocab, overfit_corpus.sentences, config.chunk_config)
        warm = len(tracer.spans)
        predict_corpus_labels(loaded, vocab, overfit_corpus.sentences, config.chunk_config)
    finally:
        tracer.uninstall()
    index = spans.SpanIndex(tracer.spans)
    forwards = _convolutions_under(index, "neural.forward_batch")
    assert forwards and set(forwards) <= {0, 1}
    backwards = _convolutions_under(index, "neural.backward_from_cache")
    assert backwards and set(backwards) == {1}
    loaded_passes = [
        [n for i, n in zip(index.of("neural.forward_batch"), forwards) if lo <= i < hi]
        for lo, hi in ((cold, warm), (warm, len(index.spans)))
    ]
    assert loaded_passes[0] and 1 in loaded_passes[0]
    assert loaded_passes[1] and set(loaded_passes[1]) == {0}  # the memo serves every sequence
