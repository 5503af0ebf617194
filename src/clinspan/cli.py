"""Command-line entry point: stats, train, tag, eval, gradcheck.

Configuration is a flat key=value file (``#`` comments allowed) whose keys
mirror the command-line flags; flags override file values.  Exit codes:
0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import metrics
from .chunking import ChunkConfig
from .corpus import (
    AnnotatedCorpus,
    AnnotatedSentence,
    ParseError,
    RawToken,
    build_vocab,
    corpus_stats,
    format_stats,
    parse_corpus,
    serialize_corpus,
)
from .features import load_embeddings
from .neural import NumericError, build_probe, finite_difference_check
from .tagger import (
    ArchiveError,
    TrainConfig,
    decode_iob,
    format_history,
    gold_spans,
    load_model,
    predict_corpus_labels,
    save_model,
    train,
)


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class DataError(ValueError):
    pass


@dataclass
class RunConfig:
    """Every tunable plus file paths; defaults are the published values."""

    epochs: int = 15
    lr: float = 0.001
    clip_norm: float = 5.0
    dropout: float = 0.5
    batch_size: int = 32
    early_stop_patience: int = 3
    seed: int = 42
    valid_fraction: float = 0.2
    window: int = 19
    overlap: int = 2
    pos_dim: int = 16
    char_dim: int = 24
    char_filters: int = 32
    char_widths: str = "3"
    hidden: int = 128
    min_count: int = 1
    train_word_embeddings: bool = False
    corpus: str | None = None
    embeddings: str | None = None
    model: str | None = None
    output: str | None = None
    history: str | None = None
    spans_out: str | None = None

    def train_config(self) -> TrainConfig:
        try:
            widths = tuple(int(w) for w in str(self.char_widths).split(",") if w.strip())
        except ValueError:
            raise ConfigError(f"bad char_widths value {self.char_widths!r}") from None
        if not widths:
            raise ConfigError("char_widths must name at least one kernel width")
        return TrainConfig(
            epochs=self.epochs,
            lr=self.lr,
            clip_norm=self.clip_norm,
            dropout=self.dropout,
            batch_size=self.batch_size,
            early_stop_patience=self.early_stop_patience,
            seed=self.seed,
            valid_fraction=self.valid_fraction,
            window=self.window,
            overlap=self.overlap,
            pos_dim=self.pos_dim,
            char_dim=self.char_dim,
            char_filters=self.char_filters,
            char_widths=widths,
            hidden=self.hidden,
            min_count=self.min_count,
            train_word_embeddings=self.train_word_embeddings,
        )


_CONFIG_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _coerce(key: str, raw: str):
    kind = _CONFIG_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _parse_bool(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def load_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_number}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{line_number}: unknown config key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in _CONFIG_TYPES:
        override = getattr(args, key, None)
        if override is not None:
            values[key] = override
    return RunConfig(**values)


def _read_corpus(path: str, require_labels: bool = True) -> AnnotatedCorpus:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_corpus(fh, require_labels=require_labels)
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_stats(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.corpus)
    config = ChunkConfig(window=args.window, overlap=args.overlap)
    print(format_stats(corpus_stats(corpus, config)), end="")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    run = build_run_config(args)
    if not run.corpus or not run.embeddings or not run.model:
        raise ConfigError("train requires corpus, embeddings, and model paths")
    config = run.train_config()
    corpus = _read_corpus(run.corpus)
    if len(corpus.sentences) == 0:
        raise DataError(f"corpus {run.corpus} contains no sentences")
    vocab = build_vocab(corpus, config.min_count)
    try:
        with open(run.embeddings, "r", encoding="utf-8") as fh:
            embeddings = load_embeddings(fh, vocab)
    except OSError as exc:
        raise ConfigError(f"cannot read embeddings {run.embeddings}: {exc}") from None

    model, history = train(corpus, embeddings, config, vocab=vocab)
    save_model(model, vocab, run.model)
    history_path = run.history or run.model + ".history"
    Path(history_path).write_text(format_history(history), encoding="utf-8")
    if history.best_epoch:
        best = history.epochs[history.best_epoch - 1]
        print(f"best epoch: {history.best_epoch} (valid loss {best.valid_loss:.6g})")
    else:
        print("best epoch: none (no training epochs)")
    print(f"model written to {run.model}")
    print(f"history written to {history_path}")
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    model, vocab = load_model(args.model)
    corpus = _read_corpus(args.input, require_labels=False)
    config = ChunkConfig(window=model.dims.window, overlap=model.dims.overlap)
    sentences = list(corpus.sentences)
    if sentences:
        predicted = predict_corpus_labels(model, vocab, sentences, config)
    else:
        predicted = []
    tagged = []
    span_lines = []
    for sentence, tags in zip(sentences, predicted):
        tokens = tuple(
            RawToken(surface=t.surface, pos=t.pos, label=tag)
            for t, tag in zip(sentence.tokens, tags)
        )
        tagged.append(
            AnnotatedSentence(tokens=tokens, doc_id=sentence.doc_id, sent_index=sentence.sent_index)
        )
        for span in decode_iob(tags):
            span_lines.append(
                f"{sentence.doc_id} {sentence.sent_index} {span.start} {span.end}"
            )
    out = AnnotatedCorpus(tuple(tagged), corpus.note_count if sentences else 0)
    Path(args.output).write_text(serialize_corpus(out), encoding="utf-8")
    if args.spans_out:
        text = "\n".join(span_lines) + ("\n" if span_lines else "")
        Path(args.spans_out).write_text(text, encoding="utf-8")
    return 0


def _eval_corpus_mode(gold_path: str, system_path: str) -> metrics.EvalResult:
    gold = _read_corpus(gold_path)
    system = _read_corpus(system_path)
    if len(gold.sentences) != len(system.sentences):
        raise DataError(
            f"sentence count mismatch: gold has {len(gold.sentences)}, "
            f"system has {len(system.sentences)}"
        )
    for i, (g, s) in enumerate(zip(gold.sentences, system.sentences)):
        if len(g) != len(s):
            raise DataError(
                f"token count mismatch at sentence {i}: gold has {len(g)} "
                f"tokens, system has {len(s)}"
            )
    gold_tag_seqs = [g.labels() for g in gold.sentences]
    system_tag_seqs = [s.labels() for s in system.sentences]
    gold_span_lists = [
        [(sp.start, sp.end) for sp in gold_spans(s)] for s in gold.sentences
    ]
    system_span_lists = [
        [(sp.start, sp.end) for sp in decode_iob(tags)] for tags in system_tag_seqs
    ]
    return metrics.evaluate(
        gold_span_lists, system_span_lists, gold_tag_seqs, system_tag_seqs
    )


def _read_span_file(path: str) -> dict[tuple[str, int], list[tuple[int, int]]]:
    spans: dict[tuple[str, int], list[tuple[int, int]]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read span file {path}: {exc}") from None
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError("expected 'doc_id sent_index start end'", line_number)
        try:
            key = (parts[0], int(parts[1]))
            span = (int(parts[2]), int(parts[3]))
        except ValueError:
            raise ParseError("non-integer span field", line_number) from None
        spans.setdefault(key, []).append(span)
    return spans


def _eval_span_mode(gold_path: str, system_path: str) -> metrics.EvalResult:
    gold = _read_span_file(gold_path)
    system = _read_span_file(system_path)
    keys = sorted(set(gold) | set(system))
    gold_lists = [gold.get(k, []) for k in keys]
    system_lists = [system.get(k, []) for k in keys]
    return metrics.evaluate(gold_lists, system_lists)


def cmd_eval(args: argparse.Namespace) -> int:
    if args.format == "corpus":
        result = _eval_corpus_mode(args.gold, args.system)
    else:
        result = _eval_span_mode(args.gold, args.system)
    print(metrics.evaluation_report(result), end="")
    if args.porcelain:
        print(metrics.porcelain_report(result), end="")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    model, chunk = build_probe(seed=args.seed, trainable_words=args.train_words)
    report = finite_difference_check(
        model,
        chunk,
        step=args.step,
        tolerance=args.tolerance,
        corrupt_tensor=args.inject_bug,
    )
    print(report.format())
    return 0 if report.ok else 3


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 for usage problems
        raise UsageError(f"{message}\n{self.format_usage()}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    flag_help = {
        "corpus": "training corpus file",
        "embeddings": "word-embedding text file",
        "model": "output model archive path",
        "history": "output per-epoch history file",
    }
    for f in fields(RunConfig):
        if f.name in ("output", "spans_out"):
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, type=_parse_bool, default=None,
                                metavar="BOOL", help=flag_help.get(f.name))
        elif f.type == "int":
            parser.add_argument(flag, type=int, default=None,
                                help=flag_help.get(f.name))
        elif f.type == "float":
            parser.add_argument(flag, type=float, default=None,
                                help=flag_help.get(f.name))
        else:
            parser.add_argument(flag, default=None, help=flag_help.get(f.name))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clinspan",
        description="Train and apply a bidirectional-GRU clinical concept span tagger.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_stats = sub.add_parser("stats", help="corpus statistics")
    p_stats.add_argument("corpus", help="corpus file in the column format")
    p_stats.add_argument("--window", type=int, default=19)
    p_stats.add_argument("--overlap", type=int, default=2)
    p_stats.set_defaults(func=cmd_stats)

    p_train = sub.add_parser("train", help="train a tagger")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_tag = sub.add_parser("tag", help="annotate a corpus with a trained model")
    p_tag.add_argument("--model", required=True, help="model archive")
    p_tag.add_argument("--input", required=True,
                       help="corpus file (label column optional, POS required)")
    p_tag.add_argument("--output", required=True, help="tagged corpus output path")
    p_tag.add_argument("--spans-out", help="optional span-list sidecar path")
    p_tag.set_defaults(func=cmd_tag)

    p_eval = sub.add_parser("eval", help="score system output against gold")
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--system", required=True)
    p_eval.add_argument("--format", choices=("corpus", "spans"), default="corpus")
    p_eval.add_argument("--porcelain", action="store_true",
                        help="append a machine-readable key=value block")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--step", type=float, default=1e-5)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.add_argument("--train-words", type=_parse_bool, default=False,
                        metavar="BOOL", help="make the word table trainable too")
    p_grad.add_argument("--inject-bug", help=argparse.SUPPRESS)
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"clinspan: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"clinspan: config error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ArchiveError, DataError) as exc:
        print(f"clinspan: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"clinspan: numeric failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
