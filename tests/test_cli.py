from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import struct

import pytest

from clinspan.cli import PATH_KEYS, build_parser, build_run_config, load_config_file, main
from clinspan.corpus import parse_corpus
from clinspan.tagger import TrainConfig, load_model

from conftest import DATA_DIR


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

    @pytest.mark.parametrize("flags", [
        ["--batch-size", "0"], ["--dropout", "1.0"], ["--dropout", "-0.5"], ["--hidden", "0"],
        ["--pos-dim", "0"], ["--char-filters", "0"], ["--char-widths", "3,-1"],
        ["--char-widths", "0"], ["--char-widths", "3,3"], ["--seed", "-1"],
        ["--valid-fraction", "0"], ["--min-count", "0"], ["--window", "5", "--overlap", "7"],
        ["--lr", "-1"], ["--clip-norm", "0"],
    ])
    def test_invalid_value_is_config_error(self, flags, tmp_path, capsys):
        model_path = tmp_path / "m.bin"
        assert run(*train_args(model_path, *flags)) == 1
        assert_one_line(capsys, "clinspan: config error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["--model", "--history"])
    def test_missing_output_directory_fails_before_reading_corpus(self, target, tmp_path, capsys):
        bad_corpus = tmp_path / "bad.txt"
        bad_corpus.write_text("broken NOUN Q\n")  # a data error (exit 2) if it were parsed
        args = list(train_args(tmp_path / "m.bin", target, str(tmp_path / "nodir" / "out")))
        args[args.index("--corpus") + 1] = str(bad_corpus)
        assert run(*args) == 1
        assert_one_line(capsys, "clinspan: config error: cannot write")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]

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

    def test_bad_config_value_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("epochs=soon\n")
        assert run("train", "--config", str(config)) == 1

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

    def test_corrupt_archive_rejected(self, trained, tmp_path, capsys):
        broken = tmp_path / "broken.bin"
        blob = bytearray(trained.read_bytes())
        blob[-1] ^= 0xFF
        broken.write_bytes(bytes(blob))
        assert run("tag", "--model", str(broken),
                   "--input", str(DATA_DIR / "stats_corpus.txt"),
                   "--output", str(tmp_path / "x.txt")) == 2


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

    @staticmethod
    def _assert_rejected(trained, tmp_path, capsys, edit, needle):
        """Edit the header of a copy of the archive, checksum it again, and
        expect tag to exit 2 with a one-line message."""
        blob = trained.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[12:20])
        header = json.loads(blob[20 : 20 + header_len])
        edit(header)
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        body = blob[:12] + struct.pack("<Q", len(raw)) + raw + blob[20 + header_len : -32]
        edited = tmp_path / "edited.bin"
        edited.write_bytes(body + hashlib.sha256(body).digest())
        capsys.readouterr()
        assert run("tag", "--model", str(edited),
                   "--input", str(DATA_DIR / "stats_corpus.txt"),
                   "--output", str(tmp_path / "x.txt")) == 2
        err = capsys.readouterr().err
        assert err.startswith("clinspan: data error:") and err.count("\n") == 1
        assert needle in err


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

    def test_span_list_format(self, tmp_path, capsys):
        gold = tmp_path / "gold.spans"
        gold.write_text("0 0 0 4\n0 1 2 5\n")
        system = tmp_path / "system.spans"
        system.write_text("0 0 0 4\n0 1 2 6\n")
        assert run("eval", "--gold", str(gold), "--system", str(system),
                   "--format", "spans") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "0.50 0.50 0.50 -"


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert run("gradcheck") == 0
        out = capsys.readouterr().out
        assert "SKIP word_table (frozen)" in out
        assert "gradcheck passed" in out

    def test_injected_bug_fails(self, capsys):
        assert run("gradcheck", "--inject-bug", "dense.w") == 3
        out = capsys.readouterr().out
        assert "FAIL dense.w" in out

    def test_trainable_word_table_checked(self, capsys):
        assert run("gradcheck", "--train-words", "true") == 0
        assert "SKIP" not in capsys.readouterr().out


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
