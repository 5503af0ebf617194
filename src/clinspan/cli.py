"""Command-line entry point: stats, train, tag, eval, gradcheck.

Configuration is a flat key=value file (``#`` comments allowed) whose keys
mirror the command-line flags; flags override file values.  Exit codes:
0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields
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
    write_atomic,
)


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class DataError(ValueError):
    pass


# Config-file keys and ``train`` flags: every TrainConfig field plus these paths.
PATH_KEYS = ("corpus", "embeddings", "model", "history")
_CONFIG_TYPES = {f.name: f.type for f in fields(TrainConfig)} | dict.fromkeys(PATH_KEYS, "str")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_widths(raw: str) -> tuple[int, ...]:
    return tuple(int(w) for w in raw.split(",") if w.strip())


_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "tuple[int, ...]": _parse_widths}


def _coerce(key: str, raw: str):
    parse = _PARSERS.get(_CONFIG_TYPES[key], str)
    try:
        return parse(raw)
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


def build_run_config(args: argparse.Namespace) -> tuple[TrainConfig, dict[str, str | None]]:
    """The training config and the paths (``PATH_KEYS``) from the config file
    and the flags; flags win.  An invalid value raises ConfigError."""
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in _CONFIG_TYPES:
        override = getattr(args, key, None)
        if override is not None:
            values[key] = _coerce(key, override) if isinstance(override, str) else override
    paths = {key: values.pop(key, None) for key in PATH_KEYS}
    try:
        return TrainConfig(**values), paths
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_output_dirs(*paths: str | None) -> None:
    for path in paths:
        if path and not Path(path).resolve().parent.is_dir():
            raise ConfigError(f"cannot write {path}: no such directory")


@contextmanager
def _writing(path: str):
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _read_corpus(path: str, require_labels: bool = True) -> AnnotatedCorpus:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_corpus(fh, require_labels=require_labels)
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        config = ChunkConfig(window=args.window, overlap=args.overlap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    corpus = _read_corpus(args.corpus)
    print(format_stats(corpus_stats(corpus, config)), end="")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config, paths = build_run_config(args)
    if not paths["corpus"] or not paths["embeddings"] or not paths["model"]:
        raise ConfigError("train requires corpus, embeddings, and model paths")
    model_path = paths["model"]
    history_path = paths["history"] or model_path + ".history"
    _check_output_dirs(model_path, history_path)
    corpus = _read_corpus(paths["corpus"])
    if len(corpus.sentences) == 0:
        raise DataError(f"corpus {paths['corpus']} contains no sentences")
    vocab = build_vocab(corpus, config.min_count)
    try:
        with open(paths["embeddings"], "r", encoding="utf-8") as fh:
            embeddings = load_embeddings(fh, vocab)
    except OSError as exc:
        raise ConfigError(f"cannot read embeddings {paths['embeddings']}: {exc}") from None

    model, history = train(corpus, embeddings, config, vocab=vocab)
    with _writing(model_path):
        save_model(model, vocab, model_path)
    with _writing(history_path):
        write_atomic(history_path, format_history(history))
    if history.best_epoch:
        best = history.epochs[history.best_epoch - 1]
        print(f"best epoch: {history.best_epoch} (valid loss {best.valid_loss:.6g})")
    else:
        print("best epoch: none (no training epochs)")
    print(f"model written to {model_path}")
    print(f"history written to {history_path}")
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    _check_output_dirs(args.output, args.spans_out)
    try:
        model, vocab = load_model(args.model)
    except OSError as exc:
        raise ConfigError(f"cannot read model {args.model}: {exc}") from None
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
    with _writing(args.output):
        write_atomic(args.output, serialize_corpus(out))
    if args.spans_out:
        with _writing(args.spans_out):
            write_atomic(args.spans_out, "\n".join(span_lines) + ("\n" if span_lines else ""))
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
    for name, kind in _CONFIG_TYPES.items():
        flag = "--" + name.replace("_", "-")
        if kind == "bool":
            parser.add_argument(flag, type=_parse_bool, default=None, metavar="BOOL")
        elif kind in ("int", "float"):
            parser.add_argument(flag, type=_PARSERS[kind], default=None)
        else:  # paths, and char_widths as "3,5", are coerced in build_run_config
            parser.add_argument(flag, default=None, help=flag_help.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clinspan",
        description="Train and apply a bidirectional-GRU clinical concept span tagger.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_stats = sub.add_parser("stats", help="corpus statistics")
    p_stats.add_argument("corpus", help="corpus file in the column format")
    p_stats.add_argument("--window", type=int, default=ChunkConfig.window)
    p_stats.add_argument("--overlap", type=int, default=ChunkConfig.overlap)
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
