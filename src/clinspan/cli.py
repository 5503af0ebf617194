"""Command-line entry point: stats, train, tag, eval, gradcheck.

Configuration is a flat key=value file (``#`` comments allowed) whose keys
mirror the command-line flags; flags override file values.  Exit codes:
0 success, 1 usage/config error (also a failed allocation, such as a model
too large for memory), 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import bisect
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
    decode_iob,
    format_stats,
    parse_corpus,
    serialize_corpus,
)
from .features import load_embeddings
from .neural import (
    GRADCHECK_STEP,
    GRADCHECK_TOLERANCE,
    NumericError,
    build_probe,
    finite_difference_check,
)
from .tagger import (
    ArchiveError,
    TrainConfig,
    format_history,
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


def _coerce(key: str, raw: str, where: str = ""):
    parse = _PARSERS.get(_CONFIG_TYPES[key], str)
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{where}bad value for {key}: {raw!r}") from None


def load_config_file(path: str) -> dict:
    values = {}
    with _reading(path, "config file", not_utf8=ConfigError), open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            where = f"{path}:{line_number}: "
            if "=" not in stripped:
                raise ConfigError(f"{where}expected key=value")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"{where}unknown config key {key!r}")
            values[key] = _coerce(key, raw.strip(), where)
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
            values[key] = _coerce(key, override)
    paths = {key: values.pop(key, None) for key in PATH_KEYS}
    try:
        return TrainConfig(**values), paths
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_outputs(outputs: dict[str, str | None], inputs: dict[str, str | None]) -> None:
    """Raise ConfigError unless every output (flag -> path) has an existing
    directory and resolves to no input and no other output of the command."""
    taken = {Path(path).resolve(): flag for flag, path in inputs.items() if path}
    for flag, path in outputs.items():
        if not path:
            continue
        resolved = Path(path).resolve()
        if not resolved.parent.is_dir():
            raise ConfigError(f"cannot write {path}: no such directory")
        if resolved in taken:
            raise ConfigError(f"{flag} and {taken[resolved]} name the same file {path}")
        taken[resolved] = flag


@contextmanager
def _writing(path: str):
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


@contextmanager
def _reading(path: str, what: str, not_utf8: type[Exception] = DataError):
    """An unreadable file is a ConfigError; bytes that are not UTF-8 raise
    ``not_utf8`` naming the offset and line of the first bad byte; a
    ParseError or ArchiveError becomes a DataError naming the file.  Lines
    end where a text-mode reader ends them: at LF, CR LF or a lone CR."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except (ParseError, ArchiveError) as exc:
        raise DataError(f"{what} {path}: {exc}") from None
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = data[: exc.start].decode("utf-8")
            line = prefix.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
            raise not_utf8(
                f"{what} {path} is not UTF-8: byte 0x{data[exc.start]:02x} "
                f"at offset {exc.start} (line {line})"
            ) from None
        raise


def _read_corpus(path: str, require_labels: bool = True) -> AnnotatedCorpus:
    with _reading(path, "corpus"), open(path, "r", encoding="utf-8") as fh:
        return parse_corpus(fh, require_labels=require_labels)


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
    _check_outputs(
        {"--model": model_path, "--history": history_path},
        {"--corpus": paths["corpus"], "--embeddings": paths["embeddings"], "--config": args.config},
    )
    corpus = _read_corpus(paths["corpus"])
    if len(corpus.sentences) == 0:
        raise DataError(f"corpus {paths['corpus']} contains no sentences")
    vocab = build_vocab(corpus, config.min_count)
    embeddings_path = paths["embeddings"]
    with _reading(embeddings_path, "embeddings"), open(embeddings_path, encoding="utf-8") as fh:
        embeddings = load_embeddings(fh, vocab)

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
    _check_outputs(
        {"--output": args.output, "--spans-out": args.spans_out},
        {"--model": args.model, "--input": args.input},
    )
    with _reading(args.model, "model"):
        model, vocab = load_model(args.model)
    corpus = _read_corpus(args.input, require_labels=False)
    config = ChunkConfig(window=model.dims.window, overlap=model.dims.overlap)
    sentences = list(corpus.sentences)
    predicted = predict_corpus_labels(model, vocab, sentences, config)
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
    out = AnnotatedCorpus(tuple(tagged), corpus.note_count)
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
        for t, (gt, st) in enumerate(zip(g.tokens, s.tokens)):
            if gt.surface != st.surface:
                raise DataError(f"token mismatch at sentence {i}, token {t}: gold has "
                                f"{gt.surface!r}, system has {st.surface!r}")
    gold_tag_seqs = [g.labels() for g in gold.sentences]
    system_tag_seqs = [s.labels() for s in system.sentences]
    gold_span_lists = [
        [(sp.start, sp.end) for sp in decode_iob(tags)] for tags in gold_tag_seqs
    ]
    system_span_lists = [
        [(sp.start, sp.end) for sp in decode_iob(tags)] for tags in system_tag_seqs
    ]
    return metrics.evaluate(
        gold_span_lists, system_span_lists, gold_tag_seqs, system_tag_seqs
    )


def _read_span_file(path: str, which: str) -> dict[tuple[str, int], list[tuple[int, int]]]:
    """Spans by (doc id, sentence index), each list sorted.  Raises DataError
    naming the file and the line of a malformed line, and the file, the
    sentence and both lines when two spans of one sentence overlap.  Lines
    end where a corpus file's do: U+0085 or U+2028 inside a line is
    whitespace, not a line break."""
    spans: dict[tuple[str, int], list[tuple[int, int, int]]] = {}  # (start, end, line)
    with _reading(path, "span file"), open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
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
            if not 0 <= span[0] < span[1]:
                raise ParseError(f"invalid span {span}: need 0 <= start < end", line_number)
            found = spans.setdefault(key, [])
            i = bisect.bisect_left(found, span)
            # The spans found so far do not overlap, so only the neighbours can.
            for start, end, other in found[max(i - 1, 0) : i + 1]:
                if start < span[1] and span[0] < end:
                    raise DataError(
                        f"{which} spans overlap: {path} line {line_number}: "
                        f"[{span[0]}, {span[1]}) overlaps [{start}, {end}) of line {other} "
                        f"in doc {key[0]} sentence {key[1]}"
                    )
            found.insert(i, (*span, line_number))
    return {key: [(start, end) for start, end, _ in found] for key, found in spans.items()}


def _eval_span_mode(gold_path: str, system_path: str) -> metrics.EvalResult:
    gold = _read_span_file(gold_path, "gold")
    system = _read_span_file(system_path, "system")
    keys = sorted(set(gold) | set(system))
    return metrics.evaluate([gold.get(k, []) for k in keys], [system.get(k, []) for k in keys])


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
    """Check the probe's gradients without dropout and through its fixed
    dropout plan; one verdict covers both runs."""
    if args.seed < 0:
        raise ConfigError(f"gradcheck seed must be >= 0, got {args.seed}")
    model, batch, plan = build_probe(seed=args.seed, trainable_words=args.train_words)
    ok = True
    for title, run_plan in (("without dropout", None), ("with dropout", plan)):
        try:
            report = finite_difference_check(
                model, batch, run_plan, step=args.step, tolerance=args.tolerance
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        print(f"{title}:\n{report.format()}")
        ok = ok and report.ok
    print(f"gradcheck {'passed' if ok else 'FAILED'} "
          f"(step={args.step:g}, tolerance={args.tolerance:g})")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 for usage problems
        raise UsageError(f"{message} (see '{self.prog} --help')")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    flag_help = {
        "corpus": "training corpus file",
        "embeddings": "word-embedding text file",
        "model": "output model archive path",
        "history": "output per-epoch history file",
    }
    for name, kind in _CONFIG_TYPES.items():  # build_run_config coerces every value
        flag = "--" + name.replace("_", "-")
        metavar = "BOOL" if kind == "bool" else None
        parser.add_argument(flag, metavar=metavar, help=flag_help.get(name))


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
    p_grad.add_argument("--step", type=float, default=GRADCHECK_STEP)
    p_grad.add_argument("--tolerance", type=float, default=GRADCHECK_TOLERANCE)
    p_grad.add_argument("--train-words", type=_parse_bool, default=False,
                        metavar="BOOL", help="make the word table trainable too")
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
    except MemoryError as exc:  # e.g. a model too large to allocate
        reason = str(exc) or "an allocation failed"
        print(f"clinspan: config error: out of memory: {reason}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
