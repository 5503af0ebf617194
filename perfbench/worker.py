"""The measured process: runs one workload (or, traced, all three) against
clinspan's public API, checks the outputs and prints the metrics.

run.py starts this process after it has generated the inputs and trained
the fixture model, with the BLAS thread count fixed in the environment.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans as tracing
from checks import require
from gauge import Gauge
from clinspan import chunking, corpus, features, metrics, neural, tagger

EPOCHS = 2
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
SAMPLED_CHUNKS = 8
REFERENCE_TOLERANCE = 1e-9
FIXTURE_EPOCHS = 4
# tag-notes tags its notes in this many shards of about 9k tokens (a few
# batches of EVAL_BATCH chunks each), so calls are shorter than the host's
# speed changes and the gauge runs between them.
TAG_SHARDS = 4
WORKLOADS = ("train-notes", "tag-notes", "annotate-online")


def plain_api() -> dict:
    return {attr: getattr(sys.modules[m], attr) for m, attr, _ in tracing.ENTRY}


def median(values) -> float:
    return float(statistics.median(values))


@dataclass
class Session:
    """Outcome of one workload session."""

    calls: list[float] = field(default_factory=list)  # seconds, untraced calls
    traced_calls: list[float] = field(default_factory=list)
    # Real tokens per second of call time, one value per round of calls (a
    # round is one call, or one pass over the sentences for annotate-online).
    rates: list[float] = field(default_factory=list)
    traced_rates: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    f1: float = 0.0
    tracer: tracing.Tracer | None = None
    traced_requests: list[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0  # after the calls, before the checks
    # Host-speed gauges, run between set-ups and between calls of untraced runs.
    setup_gauge: Gauge = field(default_factory=Gauge)
    gauge: Gauge = field(default_factory=Gauge)

    def pause(self, seconds: float) -> None:
        """Run the gauge after ``seconds`` of calls; traced runs have none."""
        if self.tracer is None:
            self.gauge.after(seconds)

    @property
    def attempted(self) -> int:
        return len(self.calls) + len(self.traced_calls)


def run_calls(session: Session, call, seconds: float, traced: bool, min_calls: int) -> None:
    """Closed loop with one caller.  Traced runs alternate untraced and traced
    calls, installing the tracer only around the traced ones."""
    begin = time.perf_counter()
    i = 0
    # Stop before a call that would end past ``seconds``; traced runs end on a
    # traced call so both kinds are measured.
    while i < min_calls or (traced and i % 2) or \
            (time.perf_counter() - begin) * (i + 1) / i <= seconds:
        if traced and i % 2:
            session.tracer.request = i
            session.traced_requests.append(i)
            session.tracer.install()
            try:
                durations, tokens = call(i, traced=True)
            finally:
                session.tracer.uninstall()
                session.tracer.request = -1
            session.traced_calls.extend(durations)
            session.traced_rates.append(sum(tokens) / sum(durations))
        else:
            durations, tokens = call(i, traced=False)
            session.calls.extend(durations)
            session.rates.append(sum(tokens) / sum(durations))
        i += 1
    session.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(session: Session, setup, traced: bool):
    """Set up at least SETUP_REPEATS times and for at least SETUP_SECONDS."""
    result = None
    begin = time.perf_counter()
    while len(session.setup) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_SECONDS:
        api = session.tracer.entry_points() if traced else plain_api()
        start = time.perf_counter()
        result = setup(api)
        session.setup.append(time.perf_counter() - start)
        if not traced:
            session.setup_gauge.after(session.setup[-1])
    return result


def sample_chunks(sentences, vocab, config, rng_seed: int, k: int = SAMPLED_CHUNKS):
    chunks = [c for s in sentences for c in chunking.chunk_sentence(s, vocab, config)]
    rng = np.random.default_rng(rng_seed)
    picks = sorted(rng.choice(len(chunks), size=min(k, len(chunks)), replace=False))
    return chunks, [int(i) for i in picks]


def check_reference(model, chunks, picks, batch_size: int) -> None:
    """forward_batch at ``batch_size`` against the per-chunk reference."""
    worst = 0.0
    for i in picks:
        lo = (i // batch_size) * batch_size
        batch = neural.batch_chunks(chunks[lo : lo + batch_size])
        probs = neural.forward_batch(model, batch).probs
        worst = max(worst, checks.reference_error(model, chunks[i], probs[i - lo]))
    require(worst <= REFERENCE_TOLERANCE, f"forward_batch differs from the reference by {worst:.3e}")
    print(f"reference forward at batch {batch_size}: max |difference| {worst:.3e}")


def scored_f1(gold_tags, predicted_tags) -> float:
    """The benchmark's F1, cross-checked with clinspan.metrics."""
    gold = [checks.spans_of(t) for t in gold_tags]
    pred = [checks.spans_of(t) for t in predicted_tags]
    counts = checks.span_counts(gold, pred)
    theirs = metrics.span_match_counts([sorted(g) for g in gold], [sorted(p) for p in pred])
    require(tuple(theirs) == counts, f"clinspan.metrics counts {theirs} != benchmark {counts}")
    return checks.f1_of(counts)


def tensors_equal(a, b) -> bool:
    return all(
        na == nb and np.array_equal(x, y)
        for (na, x), (nb, y) in zip(neural.named_tensors(a), neural.named_tensors(b))
    )


# ---------------------------------------------------------------------------
# Workloads


def train_notes(d: Path, seed: int, seconds: float, traced: bool) -> Session:
    s = Session(tracer=tracing.Tracer() if traced else None)

    def setup(api):
        with open(d / "corpus.txt", encoding="utf-8") as fh:
            c = api["parse_corpus"](fh)
        v = api["build_vocab"](c)
        with open(d / "embeddings.txt", encoding="utf-8") as fh:
            e = api["load_embeddings"](fh, v)
        return c, v, e

    notes, vocab, emb = timed_setups(s, setup, traced)
    config = tagger.TrainConfig(epochs=EPOCHS, early_stop_patience=0, seed=seed)
    split = corpus.stratified_split(notes, config.valid_fraction, config.seed)
    train_tokens = sum(len(x) for x in split.train.sentences) * EPOCHS
    archive = d / "model.bin"
    first: list = []
    traced_api = s.tracer.entry_points() if traced else None

    def call(i, traced):
        api = traced_api if traced else plain_api()
        start = time.perf_counter()
        model, history = api["train"](notes, emb, config, vocab=vocab)
        api["save_model"](model, vocab, str(archive))
        elapsed = time.perf_counter() - start
        # No gauge: a call (about 7 s) outlasts the host's speed, so a gauge
        # run between calls sees other phases and widens the spread.
        if not first:
            first.extend([model, history])
            losses = [e.train_loss for e in history.epochs]
            require(len(losses) == EPOCHS, f"{len(losses)} epochs run, {EPOCHS} asked")
            require(losses[-1] < losses[0], f"training loss did not fall: {losses}")
        else:
            require(history == first[1], "train() with the same seed gave another history")
            require(tensors_equal(model, first[0]), "train() with the same seed gave other parameters")
        return [elapsed], [train_tokens]

    run_calls(s, call, seconds, traced, min_calls=2)

    model, history = first
    loaded, loaded_vocab = tagger.load_model(str(archive))
    require(tensors_equal(model, loaded) and loaded_vocab == vocab, "archive does not round-trip")
    chunks, picks = sample_chunks(notes.sentences, vocab, config.chunk_config, seed)
    check_reference(model, chunks, picks, config.batch_size)

    valid = split.valid.sentences
    valid_tags = tagger.predict_corpus_labels(model, vocab, valid, config.chunk_config)
    best = history.epochs[history.best_epoch - 1].valid_f1
    ours = scored_f1([x.labels() for x in valid], valid_tags)
    require(abs(ours - best) < 1e-12, f"valid F1 {ours} != history's {best}")

    with open(d / "test.txt", encoding="utf-8") as fh:
        test = corpus.parse_corpus(fh, require_labels=False)
    gold = checks.read_labels(d / "test-gold.txt")
    tags = tagger.predict_corpus_labels(model, vocab, test.sentences, config.chunk_config)
    checks.check_tags(tags, [len(x) for x in test.sentences])
    s.f1 = scored_f1(gold, tags)
    return s


def note_shards(sentences, parts: int) -> list[list]:
    """Split at note boundaries into ``parts`` runs of about equal tokens."""
    total = sum(len(x) for x in sentences)
    shards: list[list] = [[]]
    done = 0
    for k, sentence in enumerate(sentences):
        new_note = k > 0 and sentence.doc_id != sentences[k - 1].doc_id
        if new_note and done >= total * len(shards) / parts:
            shards.append([])
        shards[-1].append(sentence)
        done += len(sentence)
    return shards


def tag_notes(d: Path, fixture: Path, seed: int, seconds: float, traced: bool) -> Session:
    s = Session(tracer=tracing.Tracer() if traced else None)

    def setup(api):
        m, v = api["load_model"](str(fixture))
        with open(d / "input.txt", encoding="utf-8") as fh:
            return m, v, api["parse_corpus"](fh, require_labels=False)

    model, vocab, notes = timed_setups(s, setup, traced)
    config = chunking.ChunkConfig(window=model.dims.window, overlap=model.dims.overlap)
    sentences = list(notes.sentences)
    shards = note_shards(sentences, TAG_SHARDS)
    first: list = []
    traced_api = s.tracer.entry_points() if traced else None

    def call(i, traced):
        """One round: each shard is tagged, decoded and serialized in turn."""
        api = traced_api if traced else plain_api()
        durations, tags, texts = [], [], []
        for shard in shards:
            start = time.perf_counter()
            shard_tags = api["predict_corpus_labels"](model, vocab, shard, config, tagger.EVAL_BATCH)
            tagged = []
            for sentence, seq in zip(shard, shard_tags):
                api["decode_iob"](seq)
                tokens = tuple(
                    corpus.RawToken(surface=t.surface, pos=t.pos, label=tag)
                    for t, tag in zip(sentence.tokens, seq)
                )
                tagged.append(corpus.AnnotatedSentence(tokens, sentence.doc_id, sentence.sent_index))
            n_notes = len({x.doc_id for x in shard})
            texts.append(api["serialize_corpus"](corpus.AnnotatedCorpus(tuple(tagged), n_notes)))
            durations.append(time.perf_counter() - start)
            s.pause(durations[-1])
            tags.extend(shard_tags)
        text = "".join(texts)
        if not first:
            first.extend([tags, text])
        else:
            require(tags == first[0] and text == first[1], "tagging is not deterministic")
        return durations, [sum(len(x) for x in shard) for shard in shards]

    run_calls(s, call, seconds, traced, min_calls=2)

    tags, text = first
    checks.check_tags(tags, [len(x) for x in sentences])
    out = d / "tagged.txt"
    out.write_text(text, encoding="utf-8")
    require(checks.read_labels(out) == tags, "serialized labels differ from the predicted tags")
    chunks, picks = sample_chunks(sentences, vocab, config, seed)
    check_reference(model, chunks, picks, tagger.EVAL_BATCH)
    s.f1 = scored_f1(checks.read_labels(d / "gold.txt"), tags)
    return s


def annotate_online(d: Path, fixture: Path, seed: int, seconds: float, traced: bool) -> Session:
    s = Session(tracer=tracing.Tracer() if traced else None)

    def setup(api):
        m, v = api["load_model"](str(fixture))
        with open(d / "input.txt", encoding="utf-8") as fh:
            return m, v, api["parse_corpus"](fh, require_labels=False)

    model, vocab, notes = timed_setups(s, setup, traced)
    config = chunking.ChunkConfig(window=model.dims.window, overlap=model.dims.overlap)
    sentences = list(notes.sentences)
    lengths = [len(x) for x in sentences]
    first: list = []
    traced_api = s.tracer.entry_points() if traced else None

    def one_pass(i, traced):
        annotate = (traced_api if traced else plain_api())["annotate_sentence"]
        clock = time.perf_counter
        durations = []
        results = []
        for sentence in sentences:
            start = clock()
            found = annotate(model, vocab, sentence, config)
            durations.append(clock() - start)
            s.pause(durations[-1])
            results.append({(x.start, x.end) for x in found})
        if not first:
            first.append(results)
        else:
            require(results == first[0], "annotate_sentence is not deterministic")
        return durations, lengths

    run_calls(s, one_pass, seconds, traced, min_calls=2)

    batch_tags = tagger.predict_corpus_labels(model, vocab, sentences, config)
    checks.check_tags(batch_tags, lengths)
    require(
        [checks.spans_of(t) for t in batch_tags] == first[0],
        "annotate_sentence disagrees with the batch pass",
    )
    chunks, picks = sample_chunks(sentences, vocab, config, seed)
    check_reference(model, chunks, picks, 1)
    s.f1 = scored_f1(checks.read_labels(d / "gold.txt"), batch_tags)  # same spans as annotate
    return s


def run_session(name: str, inputs: Path, fixture: Path, seed: int, seconds: float, traced: bool) -> Session:
    d = inputs / name
    if name == "train-notes":
        return train_notes(d, seed, seconds, traced)
    if name == "tag-notes":
        return tag_notes(d, fixture, seed, seconds, traced)
    return annotate_online(d, fixture, seed, seconds, traced)


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(name: str, s: Session) -> dict:
    """Times and rates are scaled to the gauge's reference host speed, calls
    only where the gauge ran between them (not on train-notes)."""
    slow = s.gauge.slowdown() if s.gauge.samples else 1.0
    setup_slow = s.setup_gauge.slowdown()
    calls_ms = sorted(x * 1e3 / slow for x in s.calls)
    print(
        f"gauge: slowdown {slow:.4f} over {len(s.gauge.samples)} samples between calls, "
        f"{setup_slow:.4f} over {len(s.setup_gauge.samples)} between set-ups; as measured: "
        f"setup_s={median(s.setup):.6g} tokens_per_s={median(s.rates):.6g} "
        f"call_ms_p50={median(calls_ms) * slow:.6g}"
    )
    if name == "annotate-online":
        tail = tail_percentile(calls_ms)
        if tail is not None:
            print(f"annotate-online call_ms p{tail[0]:g}={tail[1]:.4f} samples={len(calls_ms)}")
    return {
        "setup_s": (median(s.setup) / setup_slow, "s"),
        "tokens_per_s": (median(s.rates) * slow, "tokens/s"),
        "call_ms_p50": (median(calls_ms), "ms"),
        "f1": (s.f1, "ratio"),
        "peak_rss_mb": (s.peak_rss_mb, "MB"),
    }


def tail_percentile(sorted_ms: list[float]):
    """Highest percentile among p90, p99, p99.9, ... with >= 10 samples beyond."""
    n = len(sorted_ms)
    best = None
    p = 90.0
    while n * (100.0 - p) / 100.0 >= 10:
        best = (p, float(np.percentile(sorted_ms, p)))
        p = 100.0 - (100.0 - p) / 10.0
    return best


def per_layer(name: str, sessions: dict[str, Session]) -> dict:
    idx = {w: tracing.SpanIndex(s.tracer.spans) for w, s in sessions.items()}
    out: dict[str, tuple[float, str]] = {}

    def setup_median(w, span):
        return median(idx[w].seconds(i) for i in idx[w].of(span, request=-1))

    def per_call(w, span):
        ix = idx[w]
        return median(sum(ix.seconds(i) for i in ix.of(span, r)) for r in sessions[w].traced_requests)

    def each(w, span, keep=lambda info: True):
        ix = idx[w]
        values = [ix.seconds(i) * 1e3 for i in ix.of(span) if keep(ix.spans[i].info)]
        require(values, f"trace holds no {span} span on {w}")
        return median(values)

    tr = idx["train-notes"]
    batch = 32
    out["corpus.parse_corpus_s"] = (setup_median("train-notes", "corpus.parse_corpus"), "s")
    out["corpus.build_vocab_s"] = (setup_median("train-notes", "corpus.build_vocab"), "s")
    out["features.load_embeddings_s"] = (setup_median("train-notes", "features.load_embeddings"), "s")
    out["tagger.load_model_s"] = (setup_median("tag-notes", "tagger.load_model"), "s")
    out["corpus.stratified_split_s"] = (per_call("train-notes", "corpus.stratified_split"), "s")
    out["chunking.chunk_sentence_s"] = (per_call("train-notes", "chunking.chunk_sentence"), "s")
    out["neural.batch_chunks_ms"] = (each("train-notes", "neural.batch_chunks", lambda i: i[0] == batch), "ms")
    out["neural.forward_train_ms"] = (
        each("train-notes", "neural.forward_batch", lambda i: i[1] and i[0] == batch), "ms")
    out["neural.backward_ms"] = (each("train-notes", "neural.backward_from_cache", lambda i: i[0] == batch), "ms")
    out["neural.clip_ms"] = (each("train-notes", "neural.clip_gradients"), "ms")
    out["neural.adam_ms"] = (each("train-notes", "neural.adam_step"), "ms")
    gaps = [g for i in tr.of("tagger.train") for g in tr.eval_gaps(i)]
    require(len(gaps) == EPOCHS * len(tr.of("tagger.train")), "one evaluation per epoch expected")
    out["tagger.epoch_eval_s"] = (median(gaps), "s")
    eval_chunks = sum(
        tr.spans[i].info[0] for i in tr.of("neural.forward_batch") if not tr.spans[i].info[1]
    )
    out["tagger.eval_chunk_forwards"] = (eval_chunks / (EPOCHS * len(tr.of("tagger.train"))), "count")
    span_f1 = median(
        sum(tr.seconds(i) for i in tr.of("metrics.span_match_counts", r) + tr.of("metrics.prf", r))
        for r in sessions["train-notes"].traced_requests
    )
    out["metrics.span_f1_s"] = (span_f1, "s")
    out["tagger.save_model_s"] = (per_call("train-notes", "tagger.save_model"), "s")
    out["tagger.train_self_s"] = (median(tr.self_seconds(i) for i in tr.of("tagger.train")), "s")

    tg = idx["tag-notes"]
    out["neural.forward_eval_ms"] = (
        each("tag-notes", "neural.forward_batch", lambda i: i[0] == tagger.EVAL_BATCH), "ms")
    out["chunking.merge_chunk_predictions_s"] = (per_call("tag-notes", "chunking.merge_chunk_predictions"), "s")
    out["corpus.serialize_corpus_s"] = (per_call("tag-notes", "corpus.serialize_corpus"), "s")
    out["tagger.predict_self_s"] = (
        median(
            sum(tg.self_seconds(i) for i in tg.of("tagger.predict_corpus_labels", r))
            for r in sessions["tag-notes"].traced_requests
        ), "s")

    an = idx["annotate-online"]
    out["neural.forward_online_ms"] = (each("annotate-online", "neural.forward_batch"), "ms")
    out["tagger.annotate_self_ms"] = (
        median(an.self_seconds(i) * 1e3 for i in an.of("tagger.annotate_sentence")), "ms")

    # The named workload's char-CNN, padding and tracing figures.
    ix, s = idx[name], sessions[name]
    char_s = sum(ix.seconds(i) for i in ix.of("features.char_cnn_trace")) / len(s.traced_calls)
    out["features.char_cnn_s"] = (char_s, "s")
    distinct = calls = real = computed = 0
    for i in ix.of("neural.forward_batch"):
        size, _, r_slots, c_slots, d_chars = ix.spans[i].info
        distinct += d_chars
        calls += len([c for c in ix.children[i] if ix.spans[c].name == "features.char_cnn_trace"])
        real += r_slots
        computed += c_slots
    out["features.char_cnn_useful_share"] = (distinct / calls, "ratio")
    out["chunking.real_slot_share"] = (real / computed, "ratio")
    # Each traced round follows an untraced one; comparing neighbours cancels
    # the host's slow drift in speed.  The first pair holds the process's cold
    # first call, so it is left out when there are others.
    pairs = [(u - t) / u for u, t in zip(s.rates, s.traced_rates)]
    out["trace.overhead_share"] = (median(pairs[1:] or pairs), "ratio")
    return out


# ---------------------------------------------------------------------------


def train_fixture(inputs: Path, out: Path) -> None:
    """Train the model the tagging workloads load (not a measured process)."""
    with open(inputs / "corpus.txt", encoding="utf-8") as fh:
        notes = corpus.parse_corpus(fh)
    vocab = corpus.build_vocab(notes)
    with open(inputs / "embeddings.txt", encoding="utf-8") as fh:
        emb = features.load_embeddings(fh, vocab)
    config = tagger.TrainConfig(epochs=FIXTURE_EPOCHS, early_stop_patience=0)
    model, history = tagger.train(notes, emb, config, vocab=vocab)
    tmp = out.with_suffix(".tmp")
    tagger.save_model(model, vocab, str(tmp))
    os.replace(tmp, out)
    print(tagger.format_history(history), end="")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--fixture", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--train-fixture", action="store_true")
    args = ap.parse_args()

    if args.train_fixture:
        train_fixture(args.inputs, args.fixture)
        return 0
    checks.self_test_scorer(args.seed)
    print(f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')} nproc={os.cpu_count()}")
    try:
        if not args.trace:
            s = run_session(args.workload, args.inputs, args.fixture, args.seed, args.seconds, False)
            values, attempted = end_to_end(args.workload, s), s.attempted
        else:
            sessions = {
                w: run_session(w, args.inputs, args.fixture, args.seed, args.seconds, True)
                for w in WORKLOADS
            }
            values = per_layer(args.workload, sessions)
            attempted = sum(s.attempted for s in sessions.values())
            if args.trace_out is not None:
                args.trace_out.mkdir(parents=True, exist_ok=True)
                for w, s in sessions.items():
                    s.tracer.write(args.trace_out / f"{w}-seed{args.seed}.tsv.gz")
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
