"""Print the make-up of each workload's inputs for one seed.

    python3 perfbench/describe.py [--seed N]

Run after run.py has built the fixture model.  For each workload: sentences,
tokens, chunks per sentence, real/computed token slots, distinct surfaces
per real slot within one forward batch, and the OOV share (surfaces missing
from the embedding file for train-notes, from the fixture vocabulary for the
tagging workloads).
"""
from __future__ import annotations

import argparse
import sys

import run  # the benchmark's input generation and paths

sys.path.insert(0, str(run.SRC))
from clinspan import chunking, corpus, tagger  # noqa: E402

BATCH = {"train-notes": 32, "tag-notes": tagger.EVAL_BATCH}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    fixtures = sorted((run.WORK / "fixture").glob("model-*.bin"))
    if not fixtures:
        print("no fixture model yet: run run.py once", file=sys.stderr)
        return 1
    model, fixture_vocab = tagger.load_model(str(fixtures[-1]))
    config = chunking.ChunkConfig(window=model.dims.window, overlap=model.dims.overlap)
    world = run.gen.build_world()
    for w in run.WORKLOADS:
        d = run.WORK / "describe" / w
        run.generate(world, w, args.seed, d)
        name = "corpus.txt" if w == "train-notes" else "input.txt"
        with open(d / name, encoding="utf-8") as fh:
            notes = corpus.parse_corpus(fh, require_labels=False)
        if w == "train-notes":
            vocab = corpus.build_vocab(notes)
            with open(d / "embeddings.txt", encoding="utf-8") as fh:
                known = {line.split(" ", 1)[0] for line in fh}
        else:
            vocab, known = fixture_vocab, set(fixture_vocab.word_to_index)
        sentences = notes.sentences
        chunks = [c for s in sentences for c in chunking.chunk_sentence(s, vocab, config)]
        real = sum(c.real_count for c in chunks)
        batch = BATCH.get(w)
        groups = (
            [chunks[i : i + batch] for i in range(0, len(chunks), batch)]
            if batch else
            [chunking.chunk_sentence(s, vocab, config) for s in sentences]
        )
        distinct = sum(
            len({c.char_ids[t].tobytes() for c in g for t in range(c.real_count)}) for g in groups
        )
        tokens = [t.surface for s in sentences for t in s.tokens]
        oov = sum(1 for t in tokens if t not in known) / len(tokens)
        print(
            f"{w}: seed={args.seed} sentences={len(sentences)} tokens={len(tokens)} "
            f"chunks/sentence={len(chunks) / len(sentences):.3f} "
            f"real/computed slots={real / (len(chunks) * config.window):.3f} "
            f"distinct/real slots per batch={distinct / real:.3f} oov={oov:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
