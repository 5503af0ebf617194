"""Seeded synthetic clinical-note corpora and word vectors for the benchmark.

The lexicon (the "world") is fixed: a Zipfian background vocabulary, a pool
of concept words and multi-token concept phrases, their parts of speech and
100-d vectors all come from ``WORLD_SEED``.  A run's ``--seed`` only draws
documents from that world, so a model trained on one seed's notes can tag
another seed's notes, and a fixed tagging model serves every seed.

Each profile varies what the tagger's cost and accuracy depend on: sentence
length (long sentences span several chunks), token sharing (Zipfian draws
repeat surfaces; "rare" draws come from the tail), the misspelling/OOV rate
and the concept density.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORLD_SEED = 250802556
EMBED_DIM = 100
BACKGROUND_WORDS = 2300
CONCEPT_WORDS = 700
CONCEPTS = 450
EMBEDDED_SHARE = 0.92  # share of lexicon words that the vector file covers

CONSONANTS = "bcdfghklmnprstvz"
VOWELS = "aeiou"
SUFFIXES = ("itis", "emia", "osis", "oma", "algia", "ectomy", "uria", "al", "ine", "ase")
PUNCT = (",", ".", ":", "(", ")", "/", "-", ";")
FUNCTION_POS = ("DET", "ADP", "PRON", "CCONJ", "AUX")
CONTENT_POS = ("NOUN", "VERB", "ADJ", "ADV")


@dataclass(frozen=True)
class Profile:
    """How one workload's notes are drawn from the world."""

    tokens: int  # sentences are drawn until the notes hold this many tokens
    min_len: int
    max_len: int
    long_share: float  # share of sentences drawn from (max_len, long_max]
    long_max: int
    concept_rate: float  # chance that a position opens a concept phrase
    misspell_rate: float  # chance that a token's surface gets one edit
    rare_surfaces: bool  # background words uniform over the Zipf tail
    sentences_per_note: int


PROFILES = {
    "train-notes": Profile(10_000, 5, 60, 0.0, 60, 0.07, 0.02, False, 12),
    # Held-out notes that the trained model tags for train-notes' f1.
    "train-test": Profile(8_000, 5, 60, 0.0, 60, 0.07, 0.02, False, 12),
    "tag-notes": Profile(36_000, 5, 60, 0.12, 160, 0.07, 0.02, False, 12),
    "annotate-online": Profile(8_000, 6, 34, 0.0, 34, 0.07, 0.15, True, 1),
    # Training data of the fixed model that the two tagging workloads load.
    "fixture": Profile(25_000, 5, 60, 0.0, 60, 0.07, 0.02, False, 12),
}


@dataclass(frozen=True)
class Token:
    surface: str
    pos: str
    label: str
    concept_id: str | None


@dataclass
class World:
    words: list[str]  # background first (punctuation and function words lead)
    pos: dict[str, str]
    background_cdf: np.ndarray  # Zipf over the background words
    concepts: list[tuple[str, ...]]
    concept_cdf: np.ndarray  # Zipf over the concepts
    concept_words: list[str]
    vectors: dict[str, np.ndarray]


def _syllables(rng: np.random.Generator, n: int) -> str:
    out = []
    for _ in range(n):
        out.append(CONSONANTS[rng.integers(len(CONSONANTS))] + VOWELS[rng.integers(len(VOWELS))])
        if rng.random() < 0.3:
            out.append(CONSONANTS[rng.integers(len(CONSONANTS))])
    return "".join(out)


def _zipf(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    return min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)


def build_world() -> World:
    rng = np.random.default_rng(WORLD_SEED)
    seen: set[str] = set()
    pos: dict[str, str] = {}

    def fresh(make) -> str:
        while True:
            word = make()
            if word not in seen:
                seen.add(word)
                return word

    words: list[str] = []
    for p in PUNCT:
        seen.add(p)
        pos[p] = "PUNCT"
        words.append(p)
    for _ in range(40):
        w = fresh(lambda: _syllables(rng, 1))
        pos[w] = FUNCTION_POS[rng.integers(len(FUNCTION_POS))]
        words.append(w)
    for n in range(120):
        w = str(n) if n < 100 else f"{rng.integers(1, 20) * 5}mg"
        if w in seen:
            continue
        seen.add(w)
        pos[w] = "NUM"
        words.append(w)
    while len(words) < BACKGROUND_WORDS:
        w = fresh(lambda: _syllables(rng, int(rng.integers(1, 5))))
        pos[w] = CONTENT_POS[rng.integers(len(CONTENT_POS))]
        words.append(w)

    concept_words = []
    for _ in range(CONCEPT_WORDS):
        w = fresh(
            lambda: _syllables(rng, int(rng.integers(1, 4)))
            + SUFFIXES[rng.integers(len(SUFFIXES))]
        )
        pos[w] = "NOUN" if rng.random() < 0.7 else "ADJ"
        concept_words.append(w)
    head_p = _zipf(CONCEPT_WORDS, 0.8)
    concepts: list[tuple[str, ...]] = []
    phrase_seen: set[tuple[str, ...]] = set()
    while len(concepts) < CONCEPTS:
        length = int(rng.choice([1, 2, 3, 4], p=[0.35, 0.35, 0.2, 0.1]))
        idx = rng.choice(CONCEPT_WORDS, size=length, p=head_p)
        phrase = tuple(concept_words[i] for i in idx)
        if phrase not in phrase_seen:
            phrase_seen.add(phrase)
            concepts.append(phrase)

    # Concept words share one direction and each class of POS another, so the
    # vectors carry the signal a pretrained clinical embedding would.
    concept_axis = rng.normal(0.0, 1.0, EMBED_DIM)
    concept_set = set(concept_words)
    pos_axes = {p: rng.normal(0.0, 1.0, EMBED_DIM) for p in set(pos.values())}
    vectors = {}
    for w in words + concept_words:
        if rng.random() >= EMBEDDED_SHARE:
            continue
        v = rng.normal(0.0, 0.3, EMBED_DIM) + 0.3 * pos_axes[pos[w]]
        if w in concept_set:
            v += 1.0 * concept_axis
        vectors[w] = v
    return World(
        words=words,
        pos=pos,
        background_cdf=np.cumsum(_zipf(len(words), 1.07)),
        concepts=concepts,
        concept_cdf=np.cumsum(_zipf(CONCEPTS, 0.9)),
        concept_words=concept_words,
        vectors=vectors,
    )


def _misspell(rng: np.random.Generator, word: str) -> str:
    if len(word) < 3 or not word.isalpha():
        return word
    i = int(rng.integers(len(word)))
    c = "abcdefghijklmnopqrstuvwxyz"[rng.integers(26)]
    kind = rng.integers(4)
    if kind == 0:
        return word[:i] + c + word[i + 1 :]
    if kind == 1:
        return word[:i] + word[i + 1 :]
    if kind == 2:
        return word[:i] + c + word[i:]
    j = min(i + 1, len(word) - 1)
    chars = list(word)
    chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


def _surface(rng: np.random.Generator, word: str, profile: Profile) -> str:
    if rng.random() < profile.misspell_rate:
        word = _misspell(rng, word)
    roll = rng.random()
    if roll < 0.05:
        return word.capitalize()  # normalization lowercases it again
    if roll < 0.07 and word.isalpha() and len(word) <= 4:
        return word + "."  # unit shorthand; normalization strips the period
    return word


def sentence_lengths(profile: Profile) -> list[int]:
    """The profile's sentence lengths, the same for every seed.

    Lengths are drawn from a fixed generator until they hold ``tokens``
    tokens; a seed only shuffles them.  Every seed then gives the same
    sentences, chunks and padding to compute, so the cost of a call does
    not change with the seed.
    """
    rng = np.random.default_rng([WORLD_SEED, profile.tokens, profile.max_len, profile.long_max])
    span = profile.max_len - profile.min_len
    lengths: list[int] = []
    total = 0
    while total < profile.tokens:
        if profile.long_share and rng.random() < profile.long_share:
            length = int(rng.integers(profile.max_len + 1, profile.long_max + 1))
        else:
            length = profile.min_len + min(span, int(rng.gamma(2.0, span / 5.0)))
        length = min(length, max(profile.tokens - total, profile.min_len))
        lengths.append(length)
        total += length
    return lengths


def make_sentence(
    rng: np.random.Generator, world: World, profile: Profile, length: int
) -> list[Token]:
    n_bg = len(world.words)
    tail = 300  # rare draws skip the 300 most frequent background words
    out: list[Token] = []
    while len(out) < length:
        if rng.random() < profile.concept_rate:
            c = _draw(rng, world.concept_cdf)
            phrase = world.concepts[c][: length - len(out)]
            for k, w in enumerate(phrase):
                out.append(
                    Token(_surface(rng, w, profile), world.pos[w], "B" if k == 0 else "I", f"C{c:05d}")
                )
            continue
        if rng.random() < 0.03:
            # A concept word outside a concept: the tagger needs context.
            w = world.concept_words[rng.integers(len(world.concept_words))]
        elif profile.rare_surfaces:
            w = world.words[int(rng.integers(tail, n_bg))]
        else:
            w = world.words[_draw(rng, world.background_cdf)]
        out.append(Token(_surface(rng, w, profile), world.pos[w], "O", None))
    return out


def make_notes(world: World, profile: Profile, seed: int, stream: int) -> list[list[list[Token]]]:
    """Notes (lists of sentences) for one seed; ``stream`` separates uses."""
    rng = np.random.default_rng([seed, stream])
    notes: list[list[list[Token]]] = []
    for i, length in enumerate(rng.permutation(sentence_lengths(profile))):
        if i % profile.sentences_per_note == 0:
            notes.append([])
        notes[-1].append(make_sentence(rng, world, profile, int(length)))
    return notes


def corpus_text(notes: list[list[list[Token]]], labelled: bool = True) -> str:
    lines: list[str] = []
    for note in notes:
        lines.append("-DOCSTART-")
        for sentence in note:
            for t in sentence:
                cols = [t.surface, t.pos]
                if labelled:
                    cols.append(t.label)
                    if t.concept_id is not None:
                        cols.append(t.concept_id)
                lines.append("\t".join(cols))
            lines.append("")
    return "\n".join(lines) + "\n"


def embeddings_text(world: World) -> str:
    lines = [f"{len(world.vectors)} {EMBED_DIM}"]
    for w, v in world.vectors.items():
        lines.append(w + " " + " ".join(f"{x:.6f}" for x in v))
    return "\n".join(lines) + "\n"
