import io
import os
import select
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swcnn
from helpers import trigger_bigram_dataset, word_vocab, write_csv
from swcnn.cli import main
from swcnn.config import RunConfig, apply_setting, parse_config
from swcnn.errors import DataError, UsageError
from swcnn.serialize import save_model
from swcnn.train import ModelTemplate, TrainConfig, init_model


@pytest.fixture
def task_files(tmp_path):
    """Small trigger-bigram CSVs plus a config tuned for fast runs."""
    train = trigger_bigram_dataset(80, doc_len=12, vocab_size=10, seed=0)
    test = trigger_bigram_dataset(30, doc_len=12, vocab_size=10, seed=1)
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    write_csv(train_csv, [(label + 1, " ".join(tokens)) for tokens, label in train])
    write_csv(test_csv, [(label + 1, " ".join(tokens)) for tokens, label in test])
    config = tmp_path / "run.conf"
    config.write_text(
        "# fast test profile\n"
        "seed=3\n"
        "embed_dim=16\n"
        "epochs=4\n"
        "decay_epoch=3\n"
        "initial_lr=0.1\n"
        "holdout=10\n"
        "tv_dim=4\n"
        "tv_epochs=2\n"
        "tv_negatives=5\n"
        "tv_region_size=3\n",
        encoding="utf-8",
    )
    return tmp_path, train_csv, test_csv, config


def run(argv):
    return main([str(a) for a in argv])


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("seed=9\ngrid_initial_lrs=0.5,0.25\n# comment\n\n", encoding="utf-8")
        cfg = parse_config(path)
        assert cfg.seed == 9
        assert cfg.grid_initial_lrs == (0.5, 0.25)
        assert cfg.epochs == 0 and cfg.word_vocab_cap == 30_000

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("not_a_key=1\n", encoding="utf-8")
        with pytest.raises(UsageError, match="not_a_key"):
            parse_config(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_bytes(b"seed=9\n# caf\xe9\n")
        with pytest.raises(DataError, match=r"c\.conf: line 2: not valid UTF-8"):
            parse_config(path)

    def test_type_errors_carry_key_name(self):
        cfg = RunConfig()
        with pytest.raises(UsageError, match="seed"):
            apply_setting(cfg, "seed", "many")

    def test_bool_coercion(self):
        cfg = RunConfig()
        apply_setting(cfg, "small_data", "true")
        assert cfg.small_data is True

    def test_small_data_profile_switches_schedule(self):
        from swcnn.config import resolved_decay_epoch, resolved_epochs

        cfg = RunConfig()
        assert (resolved_epochs(cfg), resolved_decay_epoch(cfg)) == (30, 24)
        cfg.small_data = True
        assert (resolved_epochs(cfg), resolved_decay_epoch(cfg)) == (100, 80)
        cfg.epochs = 12
        assert resolved_epochs(cfg) == 12

    def test_sentiment_profile_fixes_k(self):
        from swcnn.config import selection_grid

        cfg = RunConfig()
        assert selection_grid(cfg).pooling_ks == (1, 10)
        cfg.profile = "sentiment"
        assert selection_grid(cfg).pooling_ks == (1,)


class TestParams:
    def test_base_word_cnn_row(self, capsys):
        assert run(["params", "--set", "n_classes=5"]) == 0
        assert capsys.readouterr().out.strip() == "45,003,005"

    def test_tv_rows(self, capsys):
        spec = "tv_specs=bow:5,bow:9,ngram:5,ngram:9"
        assert run(["params", "--set", "n_classes=5", "--set", spec, "--set", "tv_dim=300"]) == 0
        assert capsys.readouterr().out.strip() == "183,604,205"
        assert run(["params", "--set", "n_classes=5", "--set", spec, "--set", "tv_dim=100"]) == 0
        assert capsys.readouterr().out.strip() == "91,203,405"

    def test_requires_class_count(self, capsys):
        assert run(["params"]) == 1


class TestPipeline:
    def test_vocab_train_eval_predict(self, task_files, capsys, monkeypatch):
        tmp_path, train_csv, test_csv, config = task_files
        vocab_path = tmp_path / "word.vocab"
        model_path = tmp_path / "model.swcn"
        metrics_path = tmp_path / "metrics.txt"

        assert run(["vocab", "--config", config, "--input", train_csv,
                    "--output", vocab_path]) == 0
        assert vocab_path.exists()
        capsys.readouterr()

        assert run(["train", "--config", config, "--input", train_csv,
                    "--word-vocab", vocab_path, "--output", model_path,
                    "--metrics", metrics_path]) == 0
        out = capsys.readouterr().out
        assert "epoch=1" in out and "val_error=" in out
        lines = metrics_path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert all("train_loss=" in line and "seconds=" in line for line in lines)

        assert run(["eval", "--model", model_path, "--input", test_csv]) == 0
        out = capsys.readouterr().out
        assert "n_docs=30" in out
        assert "error_rate_percent=" in out

        monkeypatch.setattr("sys.stdin", io.StringIO("w3 w7 w1 w2\nw0 w1 w2 w4\n"))
        assert run(["predict", "--model", model_path]) == 0
        predictions = capsys.readouterr().out.split()
        assert len(predictions) == 2
        assert all(p in {"0", "1"} for p in predictions)

    def test_predict_empty_stdin(self, task_files, capsys, monkeypatch):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        model_path = tmp_path / "m.swcn"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        run(["train", "--config", config, "--input", train_csv,
             "--word-vocab", vocab_path, "--output", model_path])
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert run(["predict", "--model", model_path]) == 0
        assert capsys.readouterr().out == ""

    def test_tv_train_then_fused_train(self, task_files, capsys):
        tmp_path, train_csv, test_csv, config = task_files
        vocab_path = tmp_path / "w.vocab"
        tv_path = tmp_path / "tv.swcn"
        model_path = tmp_path / "m.swcn"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        assert run(["tv-train", "--config", config, "--input", train_csv,
                    "--word-vocab", vocab_path, "--output", tv_path]) == 0
        out = capsys.readouterr().out
        assert "tv_loss=" in out
        assert tv_path.exists()
        assert run(["train", "--config", config, "--input", train_csv,
                    "--word-vocab", vocab_path, "--tv", tv_path,
                    "--output", model_path]) == 0
        assert run(["eval", "--model", model_path, "--input", test_csv]) == 0

    def test_select_reports_grid(self, task_files, capsys):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        model_path = tmp_path / "m.swcn"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        capsys.readouterr()
        assert run(["select", "--config", config, "--input", train_csv,
                    "--word-vocab", vocab_path, "--output", model_path,
                    "--set", "grid_region_sizes=2,3",
                    "--set", "grid_initial_lrs=0.1",
                    "--set", "profile=sentiment",
                    "--set", "epochs=2", "--set", "decay_epoch=1"]) == 0
        out = capsys.readouterr().out
        assert out.count("point region_size=") == 2
        assert "selected region_size=" in out
        assert model_path.exists()

    def test_train_is_reproducible_byte_for_byte(self, task_files):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        a = tmp_path / "a.swcn"
        b = tmp_path / "b.swcn"
        for out in (a, b):
            assert run(["train", "--config", config, "--input", train_csv,
                        "--word-vocab", vocab_path, "--output", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ngram_vocab_kind(self, task_files, capsys):
        tmp_path, train_csv, _, config = task_files
        gram_path = tmp_path / "grams.vocab"
        assert run(["vocab", "--config", config, "--input", train_csv,
                    "--output", gram_path, "--kind", "ngram123", "--cap", "50"]) == 0
        assert "kind=ngram123" in capsys.readouterr().out
        from swcnn.data import load_vocab

        vocab = load_vocab(gram_path)
        assert vocab.kind == "ngram123"
        assert len(vocab) == 50
        assert any(" " in token for token, _ in vocab.entries)

    def test_eval_table_output(self, task_files, capsys):
        tmp_path, train_csv, test_csv, config = task_files
        vocab_path = tmp_path / "w.vocab"
        model_path = tmp_path / "m.swcn"
        table_path = tmp_path / "confusion.tsv"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        run(["train", "--config", config, "--input", train_csv,
             "--word-vocab", vocab_path, "--output", model_path])
        assert run(["eval", "--model", model_path, "--input", test_csv,
                    "--table", table_path]) == 0
        lines = table_path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per class
        cells = [int(x) for row in lines[1:] for x in row.split("\t")[1:]]
        assert sum(cells) == 30

    def test_bench_reports_ratios(self, capsys):
        assert run(["bench",
                    "--set", "bench_d=32", "--set", "bench_v_small=500",
                    "--set", "bench_v_large=5000", "--set", "bench_repetitions=10"]) == 0
        out = capsys.readouterr().out
        assert "sparse_ratio=" in out and "dense_control_ratio=" in out

    def test_saved_model_reproduces_logits(self, task_files):
        from swcnn.model import forward, prepare_document
        from swcnn.serialize import load_model

        tmp_path, train_csv, test_csv, config = task_files
        vocab_path = tmp_path / "w.vocab"
        model_path = tmp_path / "m.swcn"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        run(["train", "--config", config, "--input", train_csv,
             "--word-vocab", vocab_path, "--output", model_path])
        model = load_model(model_path)
        again = load_model(model_path)
        rng = np.random.default_rng(0)
        for _ in range(10):
            tokens = [f"w{int(rng.integers(12))}" for _ in range(10)]
            doc = prepare_document(model.views, tokens)
            one, _ = forward(model, doc)
            two, _ = forward(again, doc)
            assert np.array_equal(one, two)

    def test_written_files_get_umask_mode(self, task_files, capsys):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        model_path = tmp_path / "m.swcn"
        metrics_path = tmp_path / "metrics.txt"
        old = os.umask(0o022)
        try:
            run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
            run(["train", "--config", config, "--input", train_csv,
                 "--set", "epochs=1", "--set", "decay_epoch=1",
                 "--word-vocab", vocab_path, "--output", model_path,
                 "--metrics", metrics_path])
        finally:
            os.umask(old)
        for path in (vocab_path, model_path, metrics_path):
            assert path.stat().st_mode & 0o777 == 0o644, path.name
        assert not list(tmp_path.glob("*.tmp"))

    def test_predict_answers_before_stdin_closes(self, task_files, capsys):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        model_path = tmp_path / "m.swcn"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        run(["train", "--config", config, "--input", train_csv,
             "--set", "epochs=1", "--set", "decay_epoch=1",
             "--word-vocab", vocab_path, "--output", model_path])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(swcnn.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-m", "swcnn", "predict", "--model", str(model_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        try:
            child.stdin.write(b"w3 w7 w1 w2\n")
            child.stdin.flush()
            ready, _, _ = select.select([child.stdout], [], [], 30.0)
            assert ready, "no answer while stdin is open"
            assert os.read(child.stdout.fileno(), 64).decode().strip() in {"0", "1"}
        finally:
            child.stdin.close()
            child.wait(timeout=30)
        assert child.returncode == 0


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run(["train", "--config", "/nonexistent", "--bogus-flag"]) == 1

    def test_unknown_config_key_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("mystery=1\n", encoding="utf-8")
        assert run(["params", "--config", bad]) == 1
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("command,settings,message", [
        ("train", ["epochs=1"], "decay_epoch <= epochs"),  # the config sets decay_epoch=3
        ("train", ["region_size=0"], "region_size must be >= 1"),
        ("params", ["n_classes=2", "region_size=0"], "region_size must be >= 1"),
        ("train", ["batch_size=0"], "batch_size must be >= 1"),
        ("train", ["dropout=1"], "dropout must be in"),
    ])
    def test_invalid_config_value_is_one(self, task_files, capsys, command, settings, message):
        tmp_path, train_csv, _, config = task_files
        argv = [command]
        if command == "train":
            argv += ["--config", config, "--input", train_csv,
                     "--word-vocab", tmp_path / "w.vocab", "--output", tmp_path / "m.swcn"]
        for setting in settings:
            argv += ["--set", setting]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid configuration") and message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_oversized_container_field_is_two(self, tmp_path, capsys, monkeypatch):
        template = ModelTemplate(base_vocab=word_vocab(4), n_classes=2, region_size=1,
                                 embed_dim=3, pooling_k=1)
        model = init_model(template, TrainConfig(epochs=1, decay_epoch=1),
                           np.random.default_rng(0))
        path = tmp_path / "huge.swcn"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[35:39] = (0xFFFFFFF0).to_bytes(4, "little")  # first vocabulary entry length
        path.write_bytes(bytes(raw))
        monkeypatch.setattr("sys.stdin", io.StringIO("w0 w1\n"))
        assert run(["predict", "--model", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "huge.swcn: truncated container" in captured.err

    def test_missing_input_is_two(self, tmp_path, capsys):
        assert run(["eval", "--model", tmp_path / "no.swcn",
                    "--input", tmp_path / "no.csv"]) == 2

    def test_bad_container_is_two(self, tmp_path, task_files, capsys):
        junk = tmp_path / "junk.swcn"
        junk.write_bytes(b"garbage bytes here")
        _, _, test_csv, _ = task_files
        assert run(["eval", "--model", junk, "--input", test_csv]) == 2

    def test_invalid_utf8_csv_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b'"1","caf\xe9"\n')
        assert run(["vocab", "--input", bad, "--output", tmp_path / "w.vocab"]) == 2
        assert "bad.csv: line 1" in capsys.readouterr().err

    def test_non_finite_model_is_two(self, tmp_path, capsys, monkeypatch):
        template = ModelTemplate(base_vocab=word_vocab(4), n_classes=2, region_size=1,
                                 embed_dim=3, pooling_k=1)
        model = init_model(template, TrainConfig(epochs=1, decay_epoch=1),
                           np.random.default_rng(0))
        model.top_W[0, 0] = np.nan
        path = tmp_path / "nan.swcn"
        save_model(model, path)
        monkeypatch.setattr("sys.stdin", io.StringIO("w0 w1\n"))
        assert run(["predict", "--model", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "nan.swcn" in captured.err

    def test_version_mismatch_is_two(self, task_files, capsys):
        tmp_path, train_csv, test_csv, config = task_files
        vocab_path = tmp_path / "w.vocab"
        model_path = tmp_path / "m.swcn"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        run(["train", "--config", config, "--input", train_csv,
             "--word-vocab", vocab_path, "--output", model_path])
        raw = bytearray(model_path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        model_path.write_bytes(bytes(raw))
        assert run(["eval", "--model", model_path, "--input", test_csv]) == 2
        assert "version" in capsys.readouterr().err

    def test_numeric_failure_is_three(self, task_files, capsys):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train", "--config", config, "--input", train_csv,
                        "--word-vocab", vocab_path, "--output", tmp_path / "m.swcn",
                        "--set", "initial_lr=1e200", "--set", "batch_size=5"])
        assert code == 3
        assert "epoch" in capsys.readouterr().err
