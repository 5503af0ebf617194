from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import contextlib
import io
import itertools
import re
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinspan import features
from clinspan.cli import PATH_KEYS, build_parser, build_run_config, load_config_file, main
from clinspan.corpus import ParseError, build_vocab, parse_corpus
from clinspan.features import load_embeddings
from clinspan.tagger import ArchiveError, TrainConfig, load_model

from conftest import DATA_DIR, reference_load_embeddings


def run(*argv):
    return main(list(argv))


def assert_one_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


def train_args(model_path, *flags):
    return (
        "train",
        "--corpus", str(DATA_DIR / "overfit_corpus.txt"),
        "--embeddings", str(DATA_DIR / "overfit_embeddings.txt"),
        "--model", str(model_path),
        "--epochs", "1", "--hidden", "4", "--char-filters", "2", "--pos-dim", "2",
        "--char-dim", "2",
        *flags,
    )


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A quickly trained model on the bundled corpus, shared by tag tests."""
    tmp = tmp_path_factory.mktemp("trained")
    model_path = tmp / "model.bin"
    code = run(
        "train",
        "--corpus", str(DATA_DIR / "overfit_corpus.txt"),
        "--embeddings", str(DATA_DIR / "overfit_embeddings.txt"),
        "--model", str(model_path),
        "--epochs", "2",
        "--hidden", "8",
        "--char-filters", "4",
        "--pos-dim", "4",
        "--char-dim", "4",
    )
    assert code == 0
    return model_path


class TestStats:
    @staticmethod
    def _rows(out):
        rows = {}
        for line in out.splitlines():
            parts = line.rsplit(maxsplit=1)
            if len(parts) == 2 and parts[1].isdigit():
                rows[parts[0].strip()] = int(parts[1])
        return rows

    def test_fixture_counts(self, capsys):
        assert run("stats", str(DATA_DIR / "stats_corpus.txt")) == 0
        rows = self._rows(capsys.readouterr().out)
        assert rows["Total number of notes"] == 3
        assert rows["Number of sentences before chunking"] == 7
        assert rows["Number of chunks after chunking"] == 9
        assert rows["Number of annotated concepts"] == 11

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert run("stats", str(empty)) == 0
        rows = self._rows(capsys.readouterr().out)
        assert rows["Total number of notes"] == 0
        assert rows["Number of annotated concepts"] == 0

    def test_missing_file(self, capsys):
        assert run("stats", "/nonexistent/corpus.txt") == 1

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("fine NOUN O\nbroken NOUN Q\n")
        assert run("stats", str(bad)) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--overlap", "0"], ["--window", "5", "--overlap", "7"]])
    def test_bad_window_is_config_error(self, flags, capsys):
        assert run("stats", str(DATA_DIR / "stats_corpus.txt"), *flags) == 1
        assert_one_line(capsys, "clinspan: config error:")


class TestTrainCommand:
    def test_writes_model_and_history(self, trained, capsys):
        assert trained.exists()
        history = trained.with_name(trained.name + ".history")
        assert history.exists()
        lines = [
            l for l in history.read_text().splitlines() if not l.startswith("#")
        ]
        assert len(lines) == 2

    def test_epochs_zero_boundary(self, tmp_path, capsys):
        model_path = tmp_path / "init.bin"
        code = run(
            "train",
            "--corpus", str(DATA_DIR / "overfit_corpus.txt"),
            "--embeddings", str(DATA_DIR / "overfit_embeddings.txt"),
            "--model", str(model_path),
            "--epochs", "0",
            "--hidden", "4", "--char-filters", "2", "--pos-dim", "2",
            "--char-dim", "2",
        )
        assert code == 0
        assert model_path.exists()
        history = model_path.with_name(model_path.name + ".history")
        rows = [
            l for l in history.read_text().splitlines() if not l.startswith("#")
        ]
        assert rows == []
        load_model(str(model_path))

    def test_nan_learning_rate_is_numeric_failure(self, tmp_path, capsys):
        model_path = tmp_path / "nan.bin"
        code = run(
            "train",
            "--corpus", str(DATA_DIR / "overfit_corpus.txt"),
            "--embeddings", str(DATA_DIR / "overfit_embeddings.txt"),
            "--model", str(model_path),
            "--epochs", "1", "--lr", "nan",
            "--hidden", "4", "--char-filters", "2", "--pos-dim", "2",
            "--char-dim", "2",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("clinspan: numeric failure:") and err.count("\n") == 1
        assert not model_path.exists()

    def test_overflowing_learning_rate_is_one_line_numeric_failure(self, tmp_path, capsys):
        # lr 1e300 leaves the parameters finite (about 1e300) after the first
        # Adam step; the next forward overflows, and numpy must not warn first.
        model_path = tmp_path / "huge.bin"
        assert run(*train_args(model_path, "--lr", "1e300")) == 3
        assert_one_line(capsys, "clinspan: numeric failure:")
        assert not model_path.exists()

    def test_model_too_large_to_allocate_is_one_line_config_error(self, tmp_path, capsys):
        # Its first tensors need hundreds of TiB, so the allocation fails at
        # once, even where the kernel overcommits memory.
        model_path = tmp_path / "m.bin"
        assert run(*train_args(model_path, "--hidden", "1000000000000")) == 1
        assert_one_line(capsys, "clinspan: config error: out of memory: Unable to allocate")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--batch-size", "0"], ["--dropout", "1.0"], ["--dropout", "-0.5"], ["--hidden", "0"],
        ["--pos-dim", "0"], ["--char-filters", "0"], ["--char-widths", "3,-1"],
        ["--char-widths", "0"], ["--char-widths", "3,3"], ["--seed", "-1"],
        ["--valid-fraction", "0"], ["--min-count", "0"], ["--window", "5", "--overlap", "7"],
        ["--lr", "-1"], ["--clip-norm", "0"],
        ["--epochs", "x"], ["--train-word-embeddings", "maybe"],  # values that do not parse
    ])
    def test_invalid_value_is_config_error(self, flags, tmp_path, capsys):
        model_path = tmp_path / "m.bin"
        assert run(*train_args(model_path, *flags)) == 1
        assert_one_line(capsys, "clinspan: config error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, text, message", [
        ("--corpus", "", " contains no sentences"),
        ("--embeddings", "3 0\n", ": line 1: embedding dimension must be >= 1"),
    ], ids=["no-sentences", "zero-width-embeddings"])
    def test_unusable_input_is_data_error(self, flag, text, message, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text(text)
        assert run(*train_args(tmp_path / "m.bin", flag, str(source))) == 2
        assert capsys.readouterr().err == f"clinspan: data error: {flag[2:]} {source}{message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input.txt"]

    def test_one_sentence_corpus_validates_on_its_training_loss(self, tmp_path, capsys):
        # No sentence is left to hold out, so train skips the split: each
        # epoch's validation loss is its training loss, its F1 is NaN, and
        # the best epoch is the one with the lowest training loss.  At lr 1
        # that loss rises after the first epoch, so the last epoch is not it.
        lines = (DATA_DIR / "overfit_corpus.txt").read_text().splitlines(keepends=True)
        corpus = tmp_path / "one.txt"
        corpus.write_text("".join(itertools.takewhile(str.strip, lines)))
        model_path = tmp_path / "m.bin"
        args = list(train_args(model_path, "--epochs", "4", "--early-stop-patience", "0",
                               "--lr", "1"))
        args[args.index("--corpus") + 1] = str(corpus)
        assert run(*args) == 0
        header, *rows, footer = (tmp_path / "m.bin.history").read_text().splitlines()
        assert header == "# epoch train_loss valid_loss valid_f1"
        fields = [row.split() for row in rows]
        assert [f[0] for f in fields] == ["1", "2", "3", "4"]
        assert all(len(f) == 4 and f[2] == f[1] and f[3] == "nan" for f in fields)
        losses = [float(f[1]) for f in fields]
        assert min(losses) < losses[-1]
        assert footer == f"# best_epoch {losses.index(min(losses)) + 1} stopped_epoch 4"
        assert run("tag", "--model", str(model_path), "--input", str(corpus),
                   "--output", str(tmp_path / "tagged.txt")) == 0  # the archive loads

    @pytest.mark.parametrize("target", ["--model", "--history"])
    def test_missing_output_directory_fails_before_reading_corpus(self, target, tmp_path, capsys):
        bad_corpus = tmp_path / "bad.txt"
        bad_corpus.write_text("broken NOUN Q\n")  # a data error (exit 2) if it were parsed
        args = list(train_args(tmp_path / "m.bin", target, str(tmp_path / "nodir" / "out")))
        args[args.index("--corpus") + 1] = str(bad_corpus)
        assert run(*args) == 1
        assert_one_line(capsys, "clinspan: config error: cannot write")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]

    def test_history_on_the_model_path_is_config_error(self, tmp_path, capsys):
        # Exit 0 used to leave the history text where the archive should be.
        model_path = tmp_path / "m.bin"
        model_path.write_bytes(b"an earlier archive")
        assert run(*train_args(model_path, "--history", str(model_path))) == 1
        assert_one_line(
            capsys, f"clinspan: config error: --history and --model name the same file {model_path}"
        )
        assert model_path.read_bytes() == b"an earlier archive"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin"]

    @pytest.mark.parametrize("source", ["corpus", "embeddings", "config"])
    def test_model_on_an_input_path_is_config_error(self, source, tmp_path, capsys):
        inputs = {
            "corpus": (DATA_DIR / "overfit_corpus.txt").read_bytes(),
            "embeddings": (DATA_DIR / "overfit_embeddings.txt").read_bytes(),
            "config": b"epochs=1\n",
        }
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(data)
        args = [*train_args(tmp_path / source, "--config", str(tmp_path / "config"))]
        for name in ("corpus", "embeddings"):
            args[args.index(f"--{name}") + 1] = str(tmp_path / name)
        assert run(*args) == 1
        assert_one_line(
            capsys, f"clinspan: config error: --model and --{source} name the same file"
        )
        for name, data in inputs.items():
            assert (tmp_path / name).read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)

    def test_missing_required_paths(self, capsys):
        assert run("train", "--epochs", "1") == 1
        assert "requires" in capsys.readouterr().err

    def test_config_file_with_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# training settings\n"
            f"corpus={DATA_DIR / 'overfit_corpus.txt'}\n"
            f"embeddings={DATA_DIR / 'overfit_embeddings.txt'}\n"
            "epochs=1\nhidden=4\nchar_filters=2\npos_dim=2\nchar_dim=2\n"
        )
        model_path = tmp_path / "m.bin"
        code = run("train", "--config", str(config), "--model", str(model_path))
        assert code == 0
        assert model_path.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("warp_speed=9\n")
        assert run("train", "--config", str(config)) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_config_lines_end_only_at_newlines(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("epochs=3\u2028\nwarp_speed=9\n", encoding="utf-8")
        assert run("train", "--config", str(config)) == 1
        assert_one_line(capsys, f"clinspan: config error: {config}:2: unknown config key")

    def test_bad_config_value_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("epochs=soon\n")
        assert run("train", "--config", str(config)) == 1

    def test_bad_config_value_names_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("# run\nhidden=4\nepochs=abc\n")
        assert run("train", "--config", str(config)) == 1
        assert capsys.readouterr().err == (
            f"clinspan: config error: {config}:3: bad value for epochs: 'abc'\n"
        )

    def test_bad_flag_value_names_only_the_key(self, tmp_path, capsys):
        assert run(*train_args(tmp_path / "m.bin", "--epochs", "abc")) == 1
        assert capsys.readouterr().err == "clinspan: config error: bad value for epochs: 'abc'\n"

    @pytest.mark.parametrize("line", ["output=x.txt", "spans_out=s.txt", "dropout=1.5"])
    def test_config_file_outside_train_config_rejected(self, line, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        assert run(*train_args(tmp_path / "m.bin", "--config", str(config))) == 1
        assert_one_line(capsys, "clinspan: config error:")
        assert not (tmp_path / "m.bin").exists()


class TestTagCommand:
    def test_tag_round_trip(self, trained, tmp_path, capsys):
        out_path = tmp_path / "tagged.txt"
        spans_path = tmp_path / "spans.txt"
        code = run(
            "tag", "--model", str(trained),
            "--input", str(DATA_DIR / "stats_corpus.txt"),
            "--output", str(out_path), "--spans-out", str(spans_path),
        )
        assert code == 0
        with open(out_path, encoding="utf-8") as fh:
            tagged = parse_corpus(fh)
        with open(DATA_DIR / "stats_corpus.txt", encoding="utf-8") as fh:
            source = parse_corpus(fh)
        assert len(tagged.sentences) == len(source.sentences)
        for got, src in zip(tagged.sentences, source.sentences):
            assert len(got) == len(src)
        for line in spans_path.read_text().splitlines():
            doc, sent, start, end = line.split()
            assert int(end) > int(start)

    def test_tagging_is_deterministic(self, trained, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            assert run(
                "tag", "--model", str(trained),
                "--input", str(DATA_DIR / "stats_corpus.txt"),
                "--output", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unlabeled_input_accepted(self, trained, tmp_path):
        unlabeled = tmp_path / "plain.txt"
        unlabeled.write_text("patient NOUN\nresting VERB\n")
        out = tmp_path / "out.txt"
        assert run("tag", "--model", str(trained), "--input", str(unlabeled),
                   "--output", str(out)) == 0
        assert out.read_text().count("\t") >= 2

    def test_empty_input_empty_output(self, trained, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "out.txt"
        assert run("tag", "--model", str(trained), "--input", str(empty),
                   "--output", str(out)) == 0
        assert out.read_text() == ""

    def test_missing_model_is_config_error(self, tmp_path, capsys):
        assert run("tag", "--model", str(tmp_path / "missing.bin"),
                   "--input", str(DATA_DIR / "stats_corpus.txt"),
                   "--output", str(tmp_path / "x.txt")) == 1
        assert_one_line(capsys, "clinspan: config error: cannot read model")

    @pytest.mark.parametrize("target", ["--output", "--spans-out"])
    def test_missing_output_directory_is_config_error(self, target, trained, tmp_path, capsys):
        paths = {"--output": str(tmp_path / "x.txt"), "--spans-out": str(tmp_path / "s.txt")}
        paths[target] = str(tmp_path / "nodir" / "out.txt")
        assert run("tag", "--model", str(trained),
                   "--input", str(DATA_DIR / "stats_corpus.txt"),
                   *[a for pair in paths.items() for a in pair]) == 1
        assert_one_line(capsys, "clinspan: config error: cannot write")
        assert list(tmp_path.iterdir()) == []

    def test_spans_out_on_the_output_path_is_config_error(self, trained, tmp_path, capsys):
        # Exit 0 used to leave only the span list in the output file.
        out = tmp_path / "o.txt"
        out.write_text("an earlier output\n")
        assert run("tag", "--model", str(trained),
                   "--input", str(DATA_DIR / "stats_corpus.txt"),
                   "--output", str(out), "--spans-out", str(out)) == 1
        assert_one_line(
            capsys, f"clinspan: config error: --spans-out and --output name the same file {out}"
        )
        assert out.read_text() == "an earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.txt"]

    @pytest.mark.parametrize("target", ["--output", "--spans-out"])
    @pytest.mark.parametrize("source", ["--model", "--input"])
    def test_output_on_an_input_path_is_config_error(self, target, source, trained, tmp_path, capsys):
        # Exit 0 with --output on the model used to replace the archive with
        # tagged text, so that the next tag run failed on its magic.
        inputs = {"--model": tmp_path / "m.bin", "--input": tmp_path / "in.txt"}
        inputs["--model"].write_bytes(trained.read_bytes())
        inputs["--input"].write_bytes((DATA_DIR / "stats_corpus.txt").read_bytes())
        outputs = {"--output": tmp_path / "o.txt", target: inputs[source]}
        argv = [str(a) for pair in {**inputs, **outputs}.items() for a in pair]
        assert run("tag", *argv) == 1
        assert_one_line(
            capsys, f"clinspan: config error: {target} and {source} name the same file"
        )
        assert inputs["--model"].read_bytes() == trained.read_bytes()
        assert inputs["--input"].read_bytes() == (DATA_DIR / "stats_corpus.txt").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "m.bin"]
        assert run("tag", "--model", str(inputs["--model"]), "--input", str(inputs["--input"]),
                   "--output", str(tmp_path / "o.txt")) == 0

    def test_corrupt_archive_rejected(self, trained, tmp_path, capsys):
        broken = tmp_path / "broken.bin"
        blob = bytearray(trained.read_bytes())
        blob[-1] ^= 0xFF
        broken.write_bytes(bytes(blob))
        assert run("tag", "--model", str(broken),
                   "--input", str(DATA_DIR / "stats_corpus.txt"),
                   "--output", str(tmp_path / "x.txt")) == 2
        assert_one_line(capsys, f"clinspan: data error: model {broken}: archive checksum mismatch")

    def test_short_archive_is_data_error(self, trained, tmp_path, capsys):
        short = tmp_path / "short.bin"
        short.write_bytes(trained.read_bytes()[:8])  # the magic alone
        assert run("tag", "--model", str(short),
                   "--input", str(DATA_DIR / "stats_corpus.txt"),
                   "--output", str(tmp_path / "x.txt")) == 2
        assert_one_line(
            capsys, f"clinspan: data error: model {short}: file too short to be a model archive"
        )

    def test_model_directory_is_config_error(self, tmp_path, capsys):
        assert run("tag", "--model", str(tmp_path),
                   "--input", str(DATA_DIR / "stats_corpus.txt"),
                   "--output", str(tmp_path / "x.txt")) == 1
        assert_one_line(capsys, f"clinspan: config error: cannot read model {tmp_path}: ")
        assert list(tmp_path.iterdir()) == []

    def test_archive_with_wrong_gate_shape_rejected(self, trained, tmp_path, capsys):
        # 4 x 16 holds as many values as the 8 x 8 that hidden 8 calls for.
        def edit(header):
            for entry in header["tensors"]:
                if entry[0] == "gru_fwd.u_z":
                    entry[1] = [4, 16]

        self._assert_rejected(trained, tmp_path, capsys, edit, "gru_fwd.u_z")

    def test_archive_header_missing_key_rejected(self, trained, tmp_path, capsys):
        self._assert_rejected(
            trained, tmp_path, capsys, lambda header: header.pop("word_table_trainable"),
            "word_table_trainable",
        )

    def test_archive_with_out_of_range_word_index_rejected(self, trained, tmp_path, capsys):
        def edit(header):
            words = header["vocab"]["word_to_index"]
            words[max(words, key=words.get)] = 10**6

        self._assert_rejected(trained, tmp_path, capsys, edit, "word vocabulary")

    @pytest.mark.parametrize("hidden", [-3, 10**9])
    def test_archive_with_impossible_hidden_rejected_before_allocation(
        self, hidden, trained, tmp_path, capsys
    ):
        # The manifest is left as it is, so the shapes disagree with the dims;
        # building a model from the dims first would fail or try to allocate
        # hundreds of GiB.  A size below 1 is refused by the dims rules first.
        needle = "hidden must be >= 1" if hidden < 1 else "gru_fwd.w_z"
        self._assert_rejected(
            trained, tmp_path, capsys, lambda header: header["dims"].update(hidden=hidden),
            needle,
        )

    @pytest.mark.parametrize("size", ["char_filters", "hidden"])
    def test_archive_with_zero_size_rejected(self, size, trained, tmp_path, capsys):
        # Manifest and payload agree with the zero-size dims, so only the dims
        # rules can refuse the archive.  The bytes are written here because
        # clinspan no longer builds such a model.
        def edit(header):
            dims = header["dims"]
            dims[size] = 0
            h, f = dims["hidden"], dims["char_filters"]
            d = dims["word_dim"] + dims["pos_dim"] + f * len(dims["char_widths"])
            for entry in header["tensors"]:
                name, shape = entry
                if name.startswith(("char_filters_w", "char_bias_w")):
                    shape[0] = f
                elif name.startswith("gru_"):
                    entry[1] = {"w": [h, d], "u": [h, h], "b": [h]}[name.split(".")[1][0]]
                elif name == "dense.w":
                    entry[1] = [3, 2 * h]

        def zeros(header, payload):
            return bytes(8 * sum(math.prod(shape) for _, shape in header["tensors"]))

        self._assert_rejected(trained, tmp_path, capsys, edit, f"{size} must be >= 1", zeros)

    @pytest.mark.parametrize("edit, edit_payload, needle", [
        (lambda h: h.update(word_table_trainable=1), None, "word_table_trainable is not"),
        (lambda h: h["dims"].update(hidden=8.0), None, "dims must be integers"),
        (lambda h: h["tensors"][-1].__setitem__(1, [3.0]), None, "shapes are not integer"),
        (lambda h: h["tensors"][-1].__setitem__(0, "dense.x"), None,
         "manifest does not match the dims (missing: dense.b; unexpected: dense.x)"),
        (None, lambda h, p: p[:-8] + struct.pack("<d", math.nan), "dense.b contains non-finite"),
        (None, lambda h, p: p[:-24], "truncated while reading tensor dense.b"),
        (None, lambda h, p: p + bytes(8), "trailing bytes"),
    ], ids=["trainable-flag", "float-dim", "float-shape", "unknown-tensor", "nan-value",
            "tensor-short", "trailing-bytes"])
    def test_archive_guard(self, edit, edit_payload, needle, trained, tmp_path, capsys):
        self._assert_rejected(trained, tmp_path, capsys, edit, needle, edit_payload)

    @staticmethod
    def _assert_rejected(trained, tmp_path, capsys, edit, needle, edit_payload=None):
        """Edit the header and then the payload (``edit_payload(header,
        payload)`` returns the new bytes) of a copy of the archive, checksum it
        again, and expect tag to exit 2 with a one-line message and
        load_model to raise ArchiveError."""
        blob = trained.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[12:20])
        header = json.loads(blob[20 : 20 + header_len])
        if edit is not None:
            edit(header)
        payload = blob[20 + header_len : -32]
        if edit_payload is not None:
            payload = edit_payload(header, payload)
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        body = blob[:12] + struct.pack("<Q", len(raw)) + raw + payload
        edited = tmp_path / "edited.bin"
        edited.write_bytes(body + hashlib.sha256(body).digest())
        capsys.readouterr()
        assert run("tag", "--model", str(edited),
                   "--input", str(DATA_DIR / "stats_corpus.txt"),
                   "--output", str(tmp_path / "x.txt")) == 2
        err = capsys.readouterr().err
        assert err.startswith("clinspan: data error:") and err.count("\n") == 1
        assert needle in err
        with pytest.raises(ArchiveError, match=re.escape(needle)):
            load_model(str(edited))


@pytest.mark.parametrize("command", ["train", "tag"])
def test_output_that_is_a_directory_is_config_error(command, trained, tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    args = train_args(target) if command == "train" else (
        "tag", "--model", str(trained), "--input", str(DATA_DIR / "stats_corpus.txt"),
        "--output", str(target))
    assert run(*args) == 1
    assert_one_line(capsys, f"clinspan: config error: cannot write {target}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["out"] and not any(target.iterdir())


class TestEvalCommand:
    def test_gold_against_itself(self, capsys):
        gold = str(DATA_DIR / "stats_corpus.txt")
        assert run("eval", "--gold", gold, "--system", gold) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "1.00 1.00 1.00 1.00"

    def test_known_counts(self, tmp_path, capsys):
        # gold spans [0,2), pred spans [0,3) and [4,5) over 6 tokens, plus an
        # extra gold sentence span the system misses entirely:
        # TP=1, FP=2, FN=1 -> P=1/3, R=1/2, F1=0.4.
        gold = tmp_path / "gold.txt"
        gold.write_text(
            "a N B\nb N I\nc N O\nd N O\ne N O\nf N O\n\n"
            "g N B\nh N I\n\n"
        )
        system = tmp_path / "system.txt"
        system.write_text(
            "a N B\nb N I\nc N I\nd N O\ne N B\nf N O\n\n"
            "g N B\nh N I\n\n"
        )
        assert run("eval", "--gold", str(gold), "--system", str(system),
                   "--porcelain") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("0.33 0.50 0.40")
        assert "tp=1" in out and "fp=2" in out and "fn=1" in out

    def test_empty_corpora_score_accuracy_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert run("eval", "--gold", str(empty), "--system", str(empty), "--porcelain") == 0
        out = capsys.readouterr().out.splitlines()
        assert "accuracy=1.000000" in out and "tokens=0" in out

    def test_misaligned_files_rejected(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("a N O\n\nb N O\n")
        system = tmp_path / "system.txt"
        system.write_text("a N O\n")
        assert run("eval", "--gold", str(gold), "--system", str(system)) == 2
        assert "mismatch" in capsys.readouterr().err

    def test_token_count_mismatch_names_sentence(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("a N O\nb N O\n")
        system = tmp_path / "system.txt"
        system.write_text("a N O\n")
        assert run("eval", "--gold", str(gold), "--system", str(system)) == 2
        assert "sentence 0" in capsys.readouterr().err

    def test_token_surface_mismatch_rejected(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("fever N B\nnow N O\n")
        system = tmp_path / "system.txt"
        system.write_text("cough N B\nlater N O\n")
        assert run("eval", "--gold", str(gold), "--system", str(system)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "sentence 0, token 0" in err and "'fever'" in err and "'cough'" in err

    def test_span_list_format(self, tmp_path, capsys):
        gold = tmp_path / "gold.spans"
        gold.write_text("0 0 0 4\n0 1 2 5\n")
        system = tmp_path / "system.spans"
        system.write_text("0 0 0 4\n0 1 2 6\n")
        assert run("eval", "--gold", str(gold), "--system", str(system),
                   "--format", "spans") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "0.50 0.50 0.50 -"

    @pytest.mark.parametrize("line", ["0 1 3 2", "0 1 2 2", "0 1 -1 2"])
    def test_bad_span_interval_is_data_error(self, line, tmp_path, capsys):
        spans = tmp_path / "bad.spans"
        spans.write_text(f"0 0 0 4\n{line}\n")
        assert run("eval", "--gold", str(spans), "--system", str(spans),
                   "--format", "spans") == 2
        assert_one_line(capsys, f"clinspan: data error: span file {spans}: line 2: invalid span")

    def test_overlapping_spans_are_data_error(self, tmp_path, capsys):
        spans = tmp_path / "overlap.spans"
        spans.write_text("0 0 0 3\n0 0 2 4\n")
        assert run("eval", "--gold", str(spans), "--system", str(spans),
                   "--format", "spans") == 2
        assert_one_line(capsys, "clinspan: data error: gold spans overlap")

    @pytest.mark.parametrize("lines, expected", [
        (["d1 3 5 8", "d1 4 0 2", "d1 3 0 6"], "line 3: [0, 6) overlaps [5, 8) of line 1 "
                                               "in doc d1 sentence 3"),
        (["d1 3 0 2", "", "d1 3 0 2"], "line 3: [0, 2) overlaps [0, 2) of line 1 "
                                       "in doc d1 sentence 3"),
        (["d2 0 0 2", "d2 0 6 9", "d2 0 2 6", "d2 0 5 7"], "line 4: [5, 7) overlaps [2, 6) "
                                                           "of line 3 in doc d2 sentence 0"),
    ], ids=["earlier-span", "repeated-span", "between-spans"])
    def test_overlap_names_file_sentence_and_lines(self, lines, expected, tmp_path, capsys):
        gold = tmp_path / "gold.spans"
        gold.write_text("d1 3 0 2\n")
        system = tmp_path / "system.spans"
        system.write_text("\n".join(lines) + "\n")
        assert run("eval", "--gold", str(gold), "--system", str(system),
                   "--format", "spans") == 2
        assert capsys.readouterr().err == (
            f"clinspan: data error: system spans overlap: {system} {expected}\n"
        )


class TestParseErrorsNameTheirFile:
    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\x1c"])
    def test_span_lines_end_only_at_newlines(self, separator, tmp_path, capsys):
        # str.splitlines also breaks at these, which numbered every later
        # line one too high; inside a line they separate fields.
        gold = tmp_path / "gold.spans"
        gold.write_text("d1 0 0 2\n", encoding="utf-8")
        system = tmp_path / "system.spans"
        system.write_text(f"d1 0 0{separator}2{separator}\nd1 0 x 4\n", encoding="utf-8")
        assert run("eval", "--gold", str(gold), "--system", str(system),
                   "--format", "spans") == 2
        assert capsys.readouterr().err == (
            f"clinspan: data error: span file {system}: line 2: non-integer span field\n"
        )

    def test_bad_system_span_line(self, tmp_path, capsys):
        gold = tmp_path / "gold.spans"
        gold.write_text("0 0 0 4\n")
        system = tmp_path / "system.spans"
        system.write_text("0 0 x 4\n")
        assert run("eval", "--gold", str(gold), "--system", str(system),
                   "--format", "spans") == 2
        assert capsys.readouterr().err == (
            f"clinspan: data error: span file {system}: line 1: non-integer span field\n"
        )

    def test_bad_gold_corpus_in_eval(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("fever NOUN B\ncough NOUN Q\n")
        system = str(DATA_DIR / "stats_corpus.txt")
        assert run("eval", "--gold", str(gold), "--system", system) == 2
        assert_one_line(capsys, f"clinspan: data error: corpus {gold}: line 2: ")

    def test_non_finite_embedding_in_train(self, tmp_path, capsys):
        lines = (DATA_DIR / "overfit_embeddings.txt").read_text().splitlines()
        fields = lines[2].split()
        lines[2] = " ".join([fields[0], "nan", *fields[2:]])
        bad = tmp_path / "emb.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert run(*train_args(tmp_path / "m.bin", "--embeddings", str(bad))) == 2
        assert capsys.readouterr().err == (
            f"clinspan: data error: embeddings {bad}: line 3: non-finite embedding value\n"
        )
        assert not (tmp_path / "m.bin").exists()


_TEXT_INPUTS = {
    "corpus": (2, lambda bad, tmp: ("stats", bad)),
    "embeddings": (2, lambda bad, tmp: train_args(tmp / "m.bin", "--embeddings", bad)),
    "span file": (2, lambda bad, tmp: ("eval", "--gold", bad, "--system", bad,
                                       "--format", "spans")),
    "config file": (1, lambda bad, tmp: ("train", "--config", bad)),
}


@pytest.mark.parametrize("what,end", [
    pytest.param(what, end, id=what.replace(" ", "-") + suffix)
    for end, suffix in (("\n", ""), ("\r\n", "-crlf"), ("\r", "-cr"))
    for what in _TEXT_INPUTS
])
def test_non_utf8_input_names_file_and_byte(what, end, tmp_path, capsys):
    code, argv = _TEXT_INPUTS[what]
    bad = tmp_path / "bad.txt"
    first = f"fever N B{end}".encode()
    bad.write_bytes(first + b"\xff\xfe N O" + end.encode())
    assert run(*argv(str(bad), tmp_path)) == code
    kind = "config error" if code == 1 else "data error"
    assert_one_line(capsys, f"clinspan: {kind}: {what} {bad} is not UTF-8: "
                            f"byte 0xff at offset {len(first)} (line 2)")


def _assert_bad_byte_line(message: str, path) -> None:
    """A not-UTF-8 message names the line that holds its byte offset, with
    lines split at LF, CR LF and CR as a text reader splits them."""
    found = re.search(r"is not UTF-8: byte 0x[0-9a-f]{2} at offset (\d+) \(line (\d+)\)", message)
    if found is None:
        return
    offset, named = map(int, found.groups())
    end = 0
    with open(path, encoding="latin-1", newline="") as fh:  # one char per byte
        for number, line in enumerate(fh, start=1):
            end += len(line)
            if offset < end:
                break
    assert named == number, message


_STATS_LINES = (DATA_DIR / "stats_corpus.txt").read_bytes().splitlines(keepends=True)


@st.composite
def mutated_corpora(draw, corpus_lines: list[bytes]) -> bytes:
    """A corpus after a few line-level mutations: byte flips (which may
    leave invalid UTF-8), dropped, duplicated and truncated lines, an extra
    or a missing column, a CR LF or lone CR line end, and separators that
    only ``str.split`` treats as whitespace (U+001C, U+0085) or an
    undecodable 0x85 byte."""
    lines = list(corpus_lines)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if not lines:
            break
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(["flip", "drop", "dup", "cut", "extra", "missing", "end",
                                   "sep"]))
        if op == "flip" and line:
            k = draw(st.integers(min_value=0, max_value=len(line) - 1))
            byte = draw(st.integers(min_value=0, max_value=255))
            lines[i] = line[:k] + bytes([byte]) + line[k + 1 :]
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, line)
        elif op == "cut":
            lines[i] = line[: draw(st.integers(min_value=0, max_value=len(line)))]
        elif op == "extra":
            lines[i] = line.rstrip(b"\r\n") + b"\tEXTRA\n"
        elif op == "missing":
            lines[i] = line.rstrip(b"\r\n").rpartition(b"\t")[0] + b"\n"
        elif op == "end" and line.endswith(b"\n"):
            lines[i] = line.rstrip(b"\r\n") + draw(st.sampled_from([b"\r\n", b"\r"]))
        elif op == "sep":
            sep = draw(st.sampled_from([b"\x1c", "\x85".encode(), b"\x85"]))
            lines[i] = line.replace(b"\t", sep)
    return b"".join(lines)


@given(mutated_corpora(_STATS_LINES))
@settings(max_examples=300, deadline=None)
def test_mutated_corpus_never_escapes_main(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated_corpus.txt"
    path.write_bytes(data)
    gold = str(DATA_DIR / "stats_corpus.txt")
    for argv in (["stats", str(path)], ["eval", "--gold", gold, "--system", str(path)]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code, err.getvalue())
        lines = err.getvalue().splitlines(keepends=True)
        if code:
            assert len(lines) == 1 and lines[0].startswith("clinspan: "), lines
            _assert_bad_byte_line(lines[0], path)
        else:
            assert lines == []


_EMBEDDING_LINES = (DATA_DIR / "overfit_embeddings.txt").read_bytes().splitlines(keepends=True)
# Values that are not finite, not numeric, only float() reads, or finite but huge.
_ODD_VALUES = [b"nan", b"inf", b"-inf", b"1e309", b"9" * 400, b"1_0", b"0x10", b"#", b"1e300"]


@st.composite
def mutated_embeddings(draw) -> bytes:
    """``overfit_embeddings.txt`` after a few line-level mutations: byte
    flips, dropped, duplicated, cut and blank lines, the file cut after a
    line (down to the header alone), an extra or a missing value, a
    word-only row, one value replaced by an odd one, and separators that
    only ``str.split`` treats as whitespace or that end a line."""
    lines = list(_EMBEDDING_LINES)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        line = lines[i]
        fields = line.rstrip(b"\r\n").split(b" ")
        op = draw(st.sampled_from(["flip", "drop", "dup", "cut", "blank", "end", "extra",
                                   "missing", "word", "value", "sep"]))
        if op == "flip" and line:
            k = draw(st.integers(min_value=0, max_value=len(line) - 1))
            byte = draw(st.integers(min_value=0, max_value=255))
            lines[i] = line[:k] + bytes([byte]) + line[k + 1 :]
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "dup":
            lines.insert(i, line)
        elif op == "cut":
            lines[i] = line[: draw(st.integers(min_value=0, max_value=len(line)))]
        elif op == "blank":
            lines.insert(i, draw(st.sampled_from([b"\n", b"  \n", b"\t\r\n"])))
        elif op == "end":
            del lines[i + 1 :]
        elif op == "extra":
            lines[i] = line.rstrip(b"\r\n") + b" 0.5\n"
        elif op == "missing":
            lines[i] = b" ".join(fields[:-1]) + b"\n"
        elif op == "word":
            lines[i] = fields[0] + b"\n"
        elif op == "value" and len(fields) > 1:
            fields[draw(st.integers(min_value=1, max_value=len(fields) - 1))] = draw(
                st.sampled_from(_ODD_VALUES))
            lines[i] = b" ".join(fields) + b"\n"
        elif op == "sep":
            sep = draw(st.sampled_from([b"\t", b"\x1c", "\x85".encode(), b"\x85",
                                        "\xa0".encode(), b"\r"]))
            lines[i] = line.replace(b" ", sep)
    return b"".join(lines)


def _overfit_vocab():
    with open(DATA_DIR / "overfit_corpus.txt", encoding="utf-8") as fh:
        return build_vocab(parse_corpus(fh))


@given(mutated_embeddings(), st.sampled_from([16, 16 * 7, 2**17]))
@settings(max_examples=300, deadline=None)
def test_mutated_embeddings_load_or_raise(data, block_values):
    """A finite (V, D) matrix or a ParseError, never a warning, and the same
    outcome as the per-row oracle (which alone accepts a header-only file)."""
    vocab = _overfit_vocab()
    text = data.decode("utf-8", errors="replace")
    outcomes = []
    for load in (lambda s, v: load_embeddings(s, v).matrix, reference_load_embeddings):
        with warnings.catch_warnings(), mock.patch.object(features, "VALUES_PER_BLOCK", block_values):
            warnings.simplefilter("error")
            try:
                outcomes.append(load(io.StringIO(text, newline=None), vocab))
            except ParseError as err:
                outcomes.append((str(err), err.line_number))
    got, expected = outcomes
    if isinstance(got, np.ndarray):
        assert got.shape[0] == vocab.word_size and np.isfinite(got).all()
        assert np.array_equal(got, expected)
    elif got == ("line 1: no embedding rows after the header", 1):
        assert not text.partition("\n")[2].strip()
    else:
        assert got == expected


@given(mutated_embeddings())
@settings(max_examples=40, deadline=None)
def test_mutated_embeddings_never_escape_train(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    path, model, history = base / "mutated_emb.txt", base / "fuzz.bin", base / "fuzz.history"
    path.write_bytes(data)
    model.unlink(missing_ok=True)
    history.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(*train_args(model, "--embeddings", str(path), "--history", str(history)))
    # A finite but huge value (1e300) is legal and may make training diverge (exit 3).
    assert code in (0, 2, 3), (code, err.getvalue())
    lines = err.getvalue().splitlines(keepends=True)
    if code:
        assert len(lines) == 1 and lines[0].startswith("clinspan: "), lines
        assert not model.exists() and not history.exists()
    else:
        assert lines == []
        load_model(str(model))
        assert history.read_text()


_SPAN_LINES = [b"d1 0 0 2\n", b"d1 0 3 5\n", b"d1 1 1 4\n", b"\n", b"d2 0 0 1\n", b"d2 3 2 6\n"]
# Fields that are not plain non-negative integers, or that are huge.
_ODD_FIELDS = [b"-1", b"+3", b"1.5", b"1e3", b"9" * 5000, b"\xd9\xa3", b"0x10", b"1_0", b"nan", b""]


@st.composite
def mutated_span_files(draw) -> bytes:
    """A valid span list after a few line-level mutations: byte flips (which
    may leave invalid UTF-8), dropped, duplicated and cut lines, an extra or
    a missing field, swapped or shifted bounds, one field replaced by an odd
    one, and separators that ``str.split`` or ``str.splitlines`` treat
    differently from a space or a newline, between fields or at the end."""
    lines = list(_SPAN_LINES)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if not lines:
            break
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        line = lines[i]
        fields = line.rstrip(b"\n").split(b" ")
        op = draw(st.sampled_from(["flip", "drop", "dup", "cut", "extra", "missing", "swap",
                                   "shift", "field", "sep"]))
        if op == "flip" and line:
            k = draw(st.integers(min_value=0, max_value=len(line) - 1))
            byte = draw(st.integers(min_value=0, max_value=255))
            lines[i] = line[:k] + bytes([byte]) + line[k + 1 :]
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, line)
        elif op == "cut":
            lines[i] = line[: draw(st.integers(min_value=0, max_value=len(line)))]
        elif op == "extra":
            lines[i] = line.rstrip(b"\n") + b" 7\n"
        elif op == "missing":
            lines[i] = b" ".join(fields[:-1]) + b"\n"
        elif op == "swap" and len(fields) == 4:
            lines[i] = b" ".join([*fields[:2], fields[3], fields[2]]) + b"\n"
        elif op == "shift" and len(fields) == 4:
            shift = draw(st.integers(min_value=-3, max_value=3))
            k = draw(st.sampled_from([2, 3]))
            if fields[k].isdigit():  # an earlier "sep" may have glued a separator on
                fields[k] = str(int(fields[k]) + shift).encode()
                lines[i] = b" ".join(fields) + b"\n"
        elif op == "field" and len(fields) == 4:
            fields[draw(st.integers(min_value=0, max_value=3))] = draw(st.sampled_from(_ODD_FIELDS))
            lines[i] = b" ".join(fields) + b"\n"
        elif op == "sep":
            sep = draw(st.sampled_from([b"\t", b"\x1c", "\x85".encode(), b"\x85", b"\r",
                                        "\u2028".encode(), "\xa0".encode()]))
            if draw(st.booleans()):
                lines[i] = line.replace(b" ", sep, draw(st.integers(min_value=1, max_value=3)))
            else:  # at the end of the line
                lines[i] = line.rstrip(b"\n") + sep + b"\n"
    return b"".join(lines)


@given(mutated_span_files())
@settings(max_examples=300, deadline=None)
def test_mutated_span_file_never_escapes_main(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    valid, path = base / "valid.spans", base / "mutated.spans"
    valid.write_bytes(b"".join(_SPAN_LINES))
    path.write_bytes(data)
    for gold, system in ((valid, path), (path, valid)):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", "--gold", str(gold), "--system", str(system), "--format", "spans"])
        assert code in (0, 1, 2, 3), (code, err.getvalue())
        lines = err.getvalue().splitlines(keepends=True)
        if code:
            assert len(lines) == 1 and lines[0].startswith("clinspan: "), lines
            # A named line exists in the file as a text reader splits it.
            named = [int(n) for n in re.findall(r"line (\d+)", lines[0])]
            text = data.decode("utf-8", errors="replace")
            assert all(n <= len(io.StringIO(text, newline=None).readlines()) for n in named), lines
            _assert_bad_byte_line(lines[0], path)
        else:
            assert lines == []


# A tiny model whatever the file says: flags win over the file.
_SIZE_FLAGS = {"hidden": "4", "pos_dim": "2", "char_dim": "2", "char_filters": "2",
               "char_widths": "2", "window": "5", "overlap": "1", "batch_size": "4"}
_CONFIG_LINES = [b"# every key that sets no model size\n", b"epochs=2\n", b"lr=0.01\n",
                 b"clip_norm=5\n", b"dropout=0.25\n", b"early_stop_patience=2\n", b"seed=7\n",
                 b"valid_fraction=0.3\n", b"min_count=1\n", b"train_word_embeddings=true\n"]
_ODD_CONFIG_VALUES = [b"-1", b"1e3", b"nan", b"inf", b"9" * 400, b"1_0", b",", b""]


@st.composite
def mutated_config_files(draw) -> bytes:
    """A config file that sets every key but the sizes, after a few
    line-level mutations: byte flips (which may leave invalid UTF-8), dropped,
    duplicated and cut lines, a missing ``=``, an unknown key, and one value
    replaced by an odd one."""
    lines = list(_CONFIG_LINES)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if not lines:
            break
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(["flip", "drop", "dup", "cut", "no-eq", "unknown", "value"]))
        if op == "flip" and line:
            k = draw(st.integers(min_value=0, max_value=len(line) - 1))
            byte = draw(st.integers(min_value=0, max_value=255))
            lines[i] = line[:k] + bytes([byte]) + line[k + 1 :]
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, line)
        elif op == "cut":
            lines[i] = line[: draw(st.integers(min_value=0, max_value=len(line)))]
        elif op == "no-eq":
            lines[i] = line.replace(b"=", b" ", 1)
        elif op == "unknown":
            lines.insert(i, b"warp_speed=9\n")
        elif op == "value" and b"=" in line:
            lines[i] = line.partition(b"=")[0] + b"=" + draw(st.sampled_from(_ODD_CONFIG_VALUES)) + b"\n"
    return b"".join(lines)


@given(mutated_config_files())
@settings(max_examples=300, deadline=None)
def test_mutated_config_file_never_escapes_train(tmp_path_factory, data):
    set_keys = {line.partition(b"=")[0].decode() for line in _CONFIG_LINES[1:]}
    assert set_keys | set(_SIZE_FLAGS) == {f.name for f in dataclasses.fields(TrainConfig)}
    base = tmp_path_factory.getbasetemp()
    path, model, history = base / "mutated.cfg", base / "cfg.bin", base / "cfg.history"
    path.write_bytes(data)
    model.unlink(missing_ok=True)
    history.unlink(missing_ok=True)
    sizes = [a for key, value in _SIZE_FLAGS.items() for a in ("--" + key.replace("_", "-"), value)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["train", "--config", str(path),
                     "--corpus", str(DATA_DIR / "overfit_corpus.txt"),
                     "--embeddings", str(DATA_DIR / "overfit_embeddings.txt"),
                     "--model", str(model), "--history", str(history), "--epochs", "0", *sizes])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    lines = err.getvalue().splitlines(keepends=True)
    if code:
        assert len(lines) == 1 and lines[0].startswith("clinspan: "), lines
        assert not model.exists() and not history.exists()
        _assert_bad_byte_line(lines[0], path)
    else:
        assert lines == []
        load_model(str(model))


_TAG_LINES = [b"\t".join(line.rstrip(b"\n").split(b"\t")[:2]) + b"\n" for line in _STATS_LINES]


@given(mutated_corpora(_TAG_LINES))
@settings(max_examples=300, deadline=None)
def test_mutated_tag_input_never_escapes_main(trained, tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    path, output, spans = base / "mutated_tag.txt", base / "tagged.txt", base / "tagged.spans"
    path.write_bytes(data)
    output.unlink(missing_ok=True)
    spans.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["tag", "--model", str(trained), "--input", str(path),
                     "--output", str(output), "--spans-out", str(spans)])
    assert code in (0, 2), (code, err.getvalue())
    lines = err.getvalue().splitlines(keepends=True)
    if code:
        assert len(lines) == 1 and lines[0].startswith("clinspan: "), lines
        assert not output.exists() and not spans.exists()
        _assert_bad_byte_line(lines[0], path)
    else:
        assert lines == []
        with open(path, encoding="utf-8") as fh:
            source = parse_corpus(fh, require_labels=False)
        with open(output, encoding="utf-8") as fh:
            tagged = parse_corpus(fh)
        assert [len(s) for s in tagged.sentences] == [len(s) for s in source.sentences]


class TestGradcheckCommand:
    @pytest.mark.parametrize("flags", [
        ("--seed", "0"), ("--seed", "3"), ("--train-words", "true"), ("--train-words", "false"),
    ], ids=["seed-0", "seed-3", "train-words", "frozen-words"])
    def test_passes(self, flags, capsys):
        assert run("gradcheck", *flags) == 0
        out = capsys.readouterr().out.splitlines()
        # Both runs list every tensor; one verdict covers them.
        assert out[0] == "without dropout:" and "with dropout:" in out
        assert out[-1].startswith("gradcheck passed")
        skipped = [line for line in out if line.startswith("SKIP")]
        if "true" in flags:
            assert skipped == []  # the trainable word table is checked
        else:
            assert skipped == ["SKIP word_table (frozen)"] * 2

    def test_injected_bug_fails(self, rolled_dense_gradient, capsys):
        assert run("gradcheck") == 3
        out = capsys.readouterr().out
        assert "FAIL dense.w" in out

    @pytest.mark.parametrize("flags", [
        ("--step", "0"),
        ("--step", "nan"),
        ("--tolerance", "nan"),
    ])
    def test_bad_step_or_tolerance_is_a_config_error(self, flags, capsys):
        assert run("gradcheck", *flags) == 1
        assert_one_line(capsys, "clinspan: config error: gradcheck")
        assert capsys.readouterr().out == ""

    def test_overflowing_step_fails_without_a_warning(self, capsys):
        assert run("gradcheck", "--step", "1e308") == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1].startswith("gradcheck FAILED")

    def test_negative_seed_is_a_config_error(self, capsys):
        assert run("gradcheck", "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert err.startswith("clinspan: config error: gradcheck") and err.count("\n") == 1
        assert "seed must be >= 0" in err


class TestParserBehavior:
    def test_help_on_every_subcommand(self, capsys):
        for command in ("stats", "train", "tag", "eval", "gradcheck"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value_is_usage_error(self, capsys):
        assert main(["stats", "x.txt", "--window", "many"]) == 1
        assert_one_line(capsys, "clinspan: argument --window: invalid int value: 'many'")
        assert main(["tag", "--model", "m.bin"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("(see 'clinspan tag --help')\n"), err

    def test_defaults_match_published_values(self):
        from_cli, paths = build_run_config(build_parser().parse_args(["train"]))
        assert paths == dict.fromkeys(PATH_KEYS)
        for config in (TrainConfig(), from_cli):
            assert config.window == 19
            assert config.overlap == 2
            assert config.lr == 0.001
            assert config.clip_norm == 5.0
            assert config.dropout == 0.5
            assert config.epochs == 15
            assert config.valid_fraction == 0.2
        assert from_cli == TrainConfig()

    def test_train_flags_are_config_fields_plus_paths(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        offered = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        names = [f.name for f in dataclasses.fields(TrainConfig)] + list(PATH_KEYS)
        expected = {"--" + n.replace("_", "-") for n in names} | {"--help", "--config"}
        assert offered == expected

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs=7\nlr=0.01\ntrain_word_embeddings=true\n")
        values = load_config_file(str(path))
        assert values == {"epochs": 7, "lr": 0.01, "train_word_embeddings": True}
