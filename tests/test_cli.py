import dataclasses
import io
import math
import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import swcnn
from helpers import (
    child_env, child_peak_rss_bytes, trigger_bigram_dataset, v1_embedding_bytes, v1_model_bytes,
    word_vocab, write_corrupted, write_csv,
)
from swcnn import config as cfgmod
from swcnn.cli import main
from swcnn.config import RunConfig, load_config
from swcnn.errors import DataError, UsageError
from swcnn.data import save_vocab
from swcnn.model import RegionEmbedding, ShallowModel
from swcnn.serialize import load_embedding, save_model
from swcnn.textpipe import BOW_WORD, RegionSpec
from swcnn.train import ModelTemplate, TrainConfig, init_model

README = Path(__file__).resolve().parents[1] / "README.md"
# former config keys that named files; a file is named by its CLI flag only
REMOVED_KEYS = ("train_csv", "test_csv", "word_vocab", "tv_vocab", "embeddings",
                "model_path", "metrics_path", "tv_out")


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


def stdin_of(text):
    """A stand-in for sys.stdin holding ``text``; predict reads its bytes."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("seed=9\ngrid_initial_lrs=0.5,0.25\n# comment\n\n", encoding="utf-8")
        cfg = load_config(path, [])
        assert cfg.seed == 9
        assert cfg.grid_initial_lrs == (0.5, 0.25)
        assert cfg.epochs == 0 and cfg.word_vocab_cap == 30_000

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("not_a_key=1\n", encoding="utf-8")
        with pytest.raises(UsageError, match="not_a_key"):
            load_config(path, [])

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_bytes(b"seed=9\n# caf\xe9\n")
        with pytest.raises(DataError, match=r"c\.conf: line 2: not valid UTF-8"):
            load_config(path, [])

    def test_type_errors_carry_key_name(self):
        with pytest.raises(UsageError, match="seed"):
            load_config(None, ["seed=many"])

    def test_bool_coercion(self):
        assert load_config(None, ["small_data=true"]).small_data is True

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

    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
    def test_every_key_reads_back_its_default_text(self, tmp_path, field):
        default = field.default
        text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        item = f"{field.name}={text}"
        path = tmp_path / "c.conf"
        path.write_text(item + "\n", encoding="utf-8")
        for cfg in (load_config(None, [item]), load_config(path, [])):
            # repr tells 3 from 3.0 and True from 1
            assert repr(getattr(cfg, field.name)) == repr(default)

    def test_readme_lists_every_config_key(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("### Config keys")[1].split("\n## ")[0]
        named = set(re.findall(r"`([a-z][a-z0-9_]*)", section))
        keys = {f.name for f in dataclasses.fields(RunConfig)}
        assert keys <= named, f"undocumented config keys: {sorted(keys - named)}"
        assert not named & set(REMOVED_KEYS)
        assert not keys & set(REMOVED_KEYS)
        snake = {name for name in named if "_" in name}
        assert snake <= keys, f"README names unknown config keys: {sorted(snake - keys)}"


VALID_CONFIG = (
    "# a run\n"
    "seed=15\n"
    "profile=topic\n"
    "n_classes=12\n"
    "embed_dim=16\n"
    "epochs=4\n"
    "decay_epoch=3\n"
    "initial_lr=0.1\n"
    "top_l2=1e-300\n"
    "holdout=10\n"
    "grid_initial_lrs=0.5,0.25\n"
    "tv_dim=4\n"
    "tv_representation=bow-ngram123\n"
).encode()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=0), st.integers(min_value=-1, max_value=255))
@example(offset=VALID_CONFIG.index(b"seed=15") + 5, byte=ord("-"))  # seed=-5
@example(offset=VALID_CONFIG.index(b"1e-300") + 2, byte=ord("3"))  # top_l2=1e3300, infinite
@example(offset=VALID_CONFIG.index(b"n_classes=12") + 10, byte=ord("-"))  # n_classes=-2
def test_corrupt_config_is_valid_or_a_usage_or_data_error(tmp_path, offset, byte):
    """Cut the config at ``offset``, or (``byte`` >= 0) overwrite one byte.

    An accepted config builds everything the stages build from it.
    """
    path = tmp_path / "c.conf"
    write_corrupted(path, VALID_CONFIG, offset, byte)
    try:
        cfg = load_config(path, [])
    except (UsageError, DataError):
        return
    cfgmod.train_config(cfg)
    cfgmod.tv_config(cfg)
    cfgmod.selection_grid(cfg)
    np.random.default_rng(cfg.seed)
    assert cfg.n_classes >= 0
    for f in dataclasses.fields(RunConfig):
        default = f.default[0] if isinstance(f.default, tuple) else f.default
        if isinstance(default, float):
            assert all(map(math.isfinite, np.atleast_1d(getattr(cfg, f.name))))


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

    @pytest.mark.parametrize("entry", ["bow", "cnn:5", "bow:x", "ngram:0"])
    def test_bad_tv_spec_is_one(self, capsys, entry):
        assert run(["params", "--set", "n_classes=2", "--set", f"tv_specs=bow:5,{entry}"]) == 1
        assert entry in capsys.readouterr().err


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

        monkeypatch.setattr("sys.stdin", stdin_of("w3 w7 w1 w2\nw0 w1 w2 w4\n"))
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
        monkeypatch.setattr("sys.stdin", stdin_of(""))
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

    def test_train_with_a_mapped_tv_matches_a_copied_one(self, task_files):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        mapped, copied = tmp_path / "tv2.swcn", tmp_path / "tv1.swcn"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        assert run(["tv-train", "--config", config, "--input", train_csv,
                    "--word-vocab", vocab_path, "--output", mapped]) == 0
        # a version 1 container loads its W as an in-memory copy
        copied.write_bytes(v1_embedding_bytes(load_embedding(mapped)))
        assert not load_embedding(mapped).W.flags.writeable
        assert load_embedding(copied).W.flags.writeable
        outputs = []
        for tv in (mapped, copied):
            out = tmp_path / f"m-{tv.stem}.swcn"
            assert run(["train", "--config", config, "--input", train_csv,
                        "--word-vocab", vocab_path, "--tv", tv, "--output", out]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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

    def test_select_skips_a_diverged_point(self, task_files, capsys):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        model_path = tmp_path / "m.swcn"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        capsys.readouterr()
        code = run(["select", "--config", config, "--input", train_csv,
                    "--word-vocab", vocab_path, "--output", model_path,
                    "--set", "grid_region_sizes=3", "--set", "profile=sentiment",
                    "--set", "grid_initial_lrs=0.1,1e200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "point region_size=3 pooling_k=1 initial_lr=0.1 val_error=" in out
        # one batch per epoch: the first step blows the weights up
        assert ("point region_size=3 pooling_k=1 initial_lr=1e+200 diverged: "
                "non-finite loss at epoch 2, batch 1\n") in out
        assert "selected region_size=3 pooling_k=1 initial_lr=0.1\n" in out
        assert model_path.exists()

    def test_select_with_every_point_diverged_is_three(self, task_files, capsys):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        model_path = tmp_path / "m.swcn"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        capsys.readouterr()
        code = run(["select", "--config", config, "--input", train_csv,
                    "--word-vocab", vocab_path, "--output", model_path,
                    "--set", "grid_region_sizes=3", "--set", "profile=sentiment",
                    "--set", "grid_initial_lrs=1e200,1e300"])
        assert code == 3
        assert "every grid point diverged" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("holdout", [6, 0])
    def test_select_over_one_point_writes_what_train_writes(self, task_files, capsys, holdout):
        # both commands train on the same seeded split of the same CSV
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        common = ["--config", config, "--input", train_csv, "--word-vocab", vocab_path,
                  "--set", f"holdout={holdout}"]
        capsys.readouterr()
        assert run(["select", *common, "--output", tmp_path / "selected.swcn",
                    "--set", "profile=sentiment", "--set", "grid_region_sizes=3",
                    "--set", "grid_initial_lrs=0.1"]) == 0
        select_out = capsys.readouterr().out
        assert run(["train", *common, "--output", tmp_path / "trained.swcn",
                    "--set", "region_size=3", "--set", "pooling_k=1",
                    "--set", "initial_lr=0.1"]) == 0
        train_out = capsys.readouterr().out
        assert (tmp_path / "selected.swcn").read_bytes() == (tmp_path / "trained.swcn").read_bytes()
        notes = [line for out in (select_out, train_out)
                 for line in out.splitlines() if line.startswith("note:")]
        assert notes == ([] if holdout else [
            "note: empty validation holdout, selecting on training loss",
            "note: empty validation holdout, reporting training loss only",
        ])
        # each note comes first, before the lines it qualifies
        assert holdout or (select_out.startswith("note:") and train_out.startswith("note:"))

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

    def test_bench_accepts_the_smallest_values(self, capsys):
        assert run(["bench", "--set", "bench_d=1", "--set", "bench_p=1",
                    "--set", "bench_v_small=48", "--set", "bench_v_large=48",
                    "--set", "bench_repetitions=1"]) == 0
        assert "sparse_ratio=" in capsys.readouterr().out

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


def test_import_leaves_statistics_out():
    """Every command imports ``swcnn.cli``; ``statistics``, with the
    ``decimal`` and ``fractions`` it imports, is not among what that costs."""
    code = ("import sys, swcnn.cli; "
            "print(sorted({'statistics', 'decimal', 'fractions'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-c", code], env=child_env(),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def blank_model(path, n_words, dim):
    """A zero-weight model container: a bow-word base view of ``dim`` x
    ``n_words`` weights, two classes."""
    vocab = word_vocab(n_words)
    base = RegionEmbedding(spec=RegionSpec(BOW_WORD, 1, n_words), vocab=vocab,
                           W=np.zeros((n_words, dim)), b=np.zeros(dim))
    save_model(ShallowModel(base=base, tvs=(), pooling_k=1, top_W=np.zeros((2, dim)),
                            top_b=np.zeros(2)), path)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB on Linux")
def test_cold_start_leaves_W_unread(tmp_path):
    """``predict`` with no documents maps W but reads none of it: against an
    80 MB W its peak RSS exceeds that of an 80 KB W by much less than W."""
    def peak_rss(dim):
        path = tmp_path / f"d{dim}.swcn"
        blank_model(path, 10_000, dim)
        return child_peak_rss_bytes(
            [sys.executable, "-m", "swcnn", "predict", "--model", str(path)])

    W_bytes = 1_000 * 10_000 * 8
    extra = peak_rss(1_000) - peak_rss(1)
    assert extra < W_bytes / 4, f"{extra / 1e6:.1f} MB over the small W"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_predict_ends_quietly_when_stdout_closes(tmp_path):
    """``swcnn predict ... | head -2``: once the reader is gone, the next
    answer ends the process by SIGPIPE, with nothing on stderr."""
    path = tmp_path / "m.swcn"
    blank_model(path, 4, 3)
    child = subprocess.Popen(
        [sys.executable, "-m", "swcnn", "predict", "--model", str(path)],
        env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdin.write(b"w0 w1\nw2\n")
    child.stdin.flush()
    assert [child.stdout.readline() for _ in range(2)] == [b"0\n", b"0\n"]
    child.stdout.close()
    child.stdin.write(b"w3\n")
    child.stdin.close()
    assert child.wait(timeout=60) == -signal.SIGPIPE
    assert child.stderr.read() == b""
    child.stderr.close()


@pytest.mark.parametrize("env_change", [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8"}],
                         ids=["LC_ALL=C", "PYTHONIOENCODING=utf-8"])
def test_predict_rejects_invalid_utf8_whatever_the_locale(task_files, env_change):
    tmp_path, train_csv, _, config = task_files
    vocab_path = tmp_path / "w.vocab"
    model_path = tmp_path / "m.swcn"
    run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
    run(["train", "--config", config, "--input", train_csv,
         "--set", "epochs=1", "--set", "decay_epoch=1",
         "--word-vocab", vocab_path, "--output", model_path])
    env = {k: v for k, v in os.environ.items()
           if k not in ("LANG", "LC_ALL", "LC_CTYPE", "PYTHONIOENCODING", "PYTHONUTF8")}
    env["PYTHONPATH"] = str(Path(swcnn.__file__).resolve().parents[1])
    env.update(env_change)

    def predict(stdin):
        return subprocess.run(
            [sys.executable, "-m", "swcnn", "predict", "--model", str(model_path)],
            input=stdin, capture_output=True, env=env, timeout=60)

    good = predict("w3 w7 w1 w2\nw0 w1 \u00e9t\u00e9\n".encode("utf-8"))
    assert good.returncode == 0 and len(good.stdout.split()) == 2
    bad = predict(b"w3 w7 w1 w2\nw0 \xff\xfe w1\nw3\n")
    assert bad.returncode == 2
    # the answer before the bad line stays printed, and none after it
    assert bad.stdout.split() == good.stdout.split()[:1]
    assert bad.stderr.decode().strip() == "data error: stdin: line 2: not valid UTF-8"


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
        ("train", ["pooling_k=0"], "pooling_k must be >= 1"),
        ("params", ["n_classes=2", "pooling_k=0"], "pooling_k must be >= 1"),
        ("train", ["embed_dim=0"], "embed_dim must be >= 1"),
        ("params", ["n_classes=2", "embed_dim=0"], "embed_dim must be >= 1"),
        ("tv-train", ["tv_dim=0"], "tv_dim must be >= 1"),
        ("params", ["n_classes=2", "tv_dim=0"], "tv_dim must be >= 1"),
        ("train", ["representation=bow-ngram123"], "base view reads the word vocabulary"),
        ("params", ["n_classes=2", "representation=bow-ngram123"],
         "base view reads the word vocabulary"),
        ("train", ["initial_lr=nan"], "initial_lr must be finite"),
        ("tv-train", ["tv_lr=nan"], "tv_lr must be finite"),
        ("train", ["momentum=inf"], "momentum must be finite"),
        ("select", ["grid_initial_lrs=0.1,-inf"], "grid_initial_lrs must be finite"),
        ("train", ["seed=-1"], "seed must be >= 0"),
        ("train", ["n_classes=-1"], "n_classes must be >= 0"),
        ("params", ["n_classes=-1"], "n_classes must be >= 0"),
        # the bench pattern has 48 distinct codes; each vocabulary must hold them
        ("bench", ["bench_v_small=10"], "bench_v_small must be >= 48"),
        ("bench", ["bench_v_small=47"], "bench_v_small must be >= 48"),
        ("bench", ["bench_v_large=0"], "bench_v_large must be >= 48"),
        ("bench", ["bench_p=0"], "bench_p must be >= 1"),
        ("bench", ["bench_repetitions=0"], "bench_repetitions must be >= 1"),
        ("bench", ["bench_d=0"], "bench_d must be >= 1"),
        ("bench", ["bench_d=-3"], "bench_d must be >= 1"),
        ("train", ["holdout=-7"], "holdout must be >= -1"),  # -1 alone means automatic
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
        monkeypatch.setattr("sys.stdin", stdin_of("w0 w1\n"))
        assert run(["predict", "--model", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "huge.swcn: truncated container" in captured.err

    @pytest.mark.parametrize("representation,input_vocab,code,message", [
        ("bow-ngram123", None, 1, "bow-ngram123 embeddings need --input-vocab"),
        ("bow-ngram123", "w.vocab", 2, "w.vocab: bow-ngram123 embeddings need a vocabulary of kind ngram123"),
        ("bow-word", "g.vocab", 2, "g.vocab: bow-word embeddings need a vocabulary of kind word"),
    ])
    def test_tv_input_vocab_of_the_wrong_kind(self, task_files, capsys, representation,
                                              input_vocab, code, message):
        tmp_path, train_csv, _, config = task_files
        for name, kind in (("w.vocab", "word"), ("g.vocab", "ngram123")):
            assert run(["vocab", "--input", train_csv, "--output", tmp_path / name,
                        "--kind", kind]) == 0
        argv = ["tv-train", "--config", config, "--input", train_csv,
                "--word-vocab", tmp_path / "w.vocab", "--output", tmp_path / "tv.swcn",
                "--set", f"tv_representation={representation}"]
        if input_vocab:
            argv += ["--input-vocab", tmp_path / input_vocab]
        capsys.readouterr()
        assert run(argv) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "tv.swcn").exists()

    @pytest.mark.parametrize("command", ["train", "select"])
    def test_holdout_without_training_records_is_one(self, task_files, capsys, command):
        tmp_path, train_csv, _, config = task_files
        small = tmp_path / "two.csv"
        write_csv(small, [(1, "w1 w2"), (2, "w3 w7")])
        vocab_path = tmp_path / "w.vocab"
        assert run(["vocab", "--input", train_csv, "--output", vocab_path]) == 0
        capsys.readouterr()
        assert run([command, "--config", config, "--input", small, "--word-vocab", vocab_path,
                    "--output", tmp_path / "m.swcn", "--set", "holdout=5"]) == 1
        captured = capsys.readouterr()
        assert "error: holdout 5 leaves no training records" in captured.err
        assert "two.csv has 2" in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "m.swcn").exists()

    @pytest.mark.parametrize("command,key", [
        ("train", "embed_dim"), ("tv-train", "tv_dim"), ("bench", "bench_d"),
    ])
    def test_allocation_that_cannot_succeed_is_one(self, task_files, capsys, command, key):
        # at 10**15 columns the first weight matrix fails to allocate at once
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        assert run(["vocab", "--input", train_csv, "--output", vocab_path]) == 0
        capsys.readouterr()
        argv = [command, "--set", f"{key}={10**15}"]
        if command != "bench":
            argv += ["--config", config, "--input", train_csv, "--word-vocab", vocab_path,
                     "--output", tmp_path / "out.swcn"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate")
        assert captured.err.count("\n") == 1 and "1000000000000000)" in captured.err
        assert not (tmp_path / "out.swcn").exists()

    @pytest.mark.parametrize("cap", [0, -1])
    def test_vocab_cap_below_one_is_one(self, task_files, capsys, cap):
        tmp_path, train_csv, _, _ = task_files
        out = tmp_path / "w.vocab"
        assert run(["vocab", "--input", train_csv, "--output", out, "--cap", cap]) == 1
        assert f"--cap must be >= 1, got {cap}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "tv-train"])
    def test_vocabulary_without_entries_is_two(self, task_files, capsys, command):
        tmp_path, train_csv, _, config = task_files
        empty = tmp_path / "empty.vocab"
        empty.write_text("kind=word\n", encoding="utf-8")
        assert run([command, "--config", config, "--input", train_csv, "--word-vocab", empty,
                    "--output", tmp_path / "out.swcn"]) == 2
        assert "empty.vocab: no vocabulary entries" in capsys.readouterr().err

    def test_duplicate_vocabulary_token_is_two(self, task_files, capsys):
        # a duplicate would leave an id that no token maps to
        tmp_path, train_csv, _, config = task_files
        dup = tmp_path / "dup.vocab"
        dup.write_text("kind=word\na\t3\na\t2\n", encoding="utf-8")
        assert run(["train", "--config", config, "--input", train_csv, "--word-vocab", dup,
                    "--output", tmp_path / "out.swcn"]) == 2
        assert "dup.vocab: line 3: duplicate token 'a' (first on line 2)" in capsys.readouterr().err
        assert not (tmp_path / "out.swcn").exists()

    @pytest.mark.parametrize("text", ['"1","a b\n', '"1","a"b\n'])
    def test_csv_with_a_stray_quote_is_two(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        assert run(["vocab", "--input", bad, "--output", tmp_path / "w.vocab"]) == 2
        err = capsys.readouterr().err
        assert "bad.csv: line 1: " in err and "Traceback" not in err

    def test_vocab_of_a_corpus_without_tokens_is_two(self, tmp_path, capsys):
        blank = tmp_path / "blank.csv"
        write_csv(blank, [(1, " "), (2, "")])
        assert run(["vocab", "--input", blank, "--output", tmp_path / "w.vocab"]) == 2
        assert "blank.csv: no tokens" in capsys.readouterr().err
        assert not (tmp_path / "w.vocab").exists()

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_file_key_is_one(self, tmp_path, capsys, key):
        conf = tmp_path / "old.conf"
        conf.write_text(f"seed=2\n{key}=somewhere\n", encoding="utf-8")
        assert run(["params", "--config", conf, "--set", "n_classes=2"]) == 1
        assert f"old.conf: line 2: unknown config key '{key}'" in capsys.readouterr().err

    def test_config_naming_a_vocabulary_cannot_overwrite_it(self, task_files, capsys):
        tmp_path, train_csv, _, _ = task_files
        word = tmp_path / "w.vocab"
        assert run(["vocab", "--input", train_csv, "--output", word]) == 0
        before = word.read_bytes()
        conf = tmp_path / "old.conf"
        conf.write_text(f"word_vocab={word}\n", encoding="utf-8")
        assert run(["vocab", "--config", conf, "--input", train_csv, "--kind", "ngram123"]) == 1
        assert "unknown config key 'word_vocab'" in capsys.readouterr().err
        assert word.read_bytes() == before

    @pytest.mark.parametrize("command,flags,message", [
        ("train", ["--input", "train.csv", "--word-vocab", "w.vocab"], "--output path"),
        ("select", ["--input", "train.csv", "--word-vocab", "w.vocab"], "--output path"),
        ("tv-train", ["--input", "train.csv", "--word-vocab", "w.vocab"], "--output path"),
        ("eval", ["--input", "test.csv"], "--model path"),
        ("predict", [], "--model path"),
        ("bench", ["--input", "test.csv"], "--model path"),
    ])
    def test_file_named_by_no_flag_is_one(self, task_files, capsys, monkeypatch,
                                          command, flags, message):
        tmp_path, train_csv, _, config = task_files
        monkeypatch.chdir(tmp_path)
        assert run(["vocab", "--input", train_csv, "--output", "w.vocab"]) == 0
        run(["train", "--config", config, "--input", train_csv, "--word-vocab", "w.vocab",
             "--output", "model.swcn", "--set", "epochs=1", "--set", "decay_epoch=1"])
        before = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", stdin_of("w3 w7\n"))
        assert run([command, "--config", config, *flags]) == 1
        captured = capsys.readouterr()
        assert f"error: missing {message}" in captured.err and captured.out == ""
        assert {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("command,csv,settings,message", [
        ("vocab", "empty.csv", [], "empty.csv: no records"),
        ("tv-train", "empty.csv", [], "empty.csv: no records"),
        ("train", "empty.csv", [], "empty.csv: no records"),
        ("train", "empty.csv", ["n_classes=2"], "empty.csv: no records"),
        ("select", "empty.csv", [], "empty.csv: no records"),
        ("eval", "empty.csv", [], "empty.csv: no records"),
        ("bench", "empty.csv", [], "empty.csv: no records"),
        ("train", "three.csv", ["n_classes=2"], "three.csv: record 2: label 3 outside 1..2"),
        ("eval", "three.csv", [], "three.csv: record 2: label 3 outside 1..2"),
        ("bench", "three.csv", [], "three.csv: record 2: label 3 outside 1..2"),
    ])
    def test_unusable_csv_is_two_and_names_it(self, tmp_path, capsys, command, csv, settings,
                                              message):
        (tmp_path / "empty.csv").write_bytes(b"")
        write_csv(tmp_path / "three.csv", [(1, "w0 w1"), (3, "w2 w3"), (2, "w1")])
        vocab = tmp_path / "w.vocab"
        save_vocab(word_vocab(4), vocab)
        template = ModelTemplate(base_vocab=word_vocab(4), n_classes=2, region_size=1,
                                 embed_dim=3, pooling_k=1)
        model = tmp_path / "m.swcn"
        save_model(init_model(template, TrainConfig(epochs=1, decay_epoch=1),
                              np.random.default_rng(0)), model)
        flags = {
            "vocab": ["--output", tmp_path / "new.vocab"],
            "tv-train": ["--word-vocab", vocab, "--output", tmp_path / "tv.swcn"],
            "train": ["--word-vocab", vocab, "--output", tmp_path / "new.swcn"],
            "select": ["--word-vocab", vocab, "--output", tmp_path / "new.swcn"],
            "eval": ["--model", model],
            "bench": ["--model", model],
        }[command]
        argv = [command, "--input", tmp_path / csv, *flags]
        for setting in settings:
            argv += ["--set", setting]
        before = sorted(p.name for p in tmp_path.iterdir())
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert f"data error: {tmp_path / message}" in captured.err
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command,flag", [
        ("vocab", "--output"),
        ("tv-train", "--output"),
        ("train", "--output"),
        ("train", "--metrics"),
        ("select", "--output"),
        ("select", "--metrics"),
        ("eval", "--table"),
    ])
    @pytest.mark.parametrize("target", ["absent/out", "."])
    def test_unwritable_output_is_one_before_any_work(self, task_files, capsys, command, flag,
                                                      target):
        tmp_path, train_csv, test_csv, config = task_files
        vocab, model, bad = tmp_path / "w.vocab", tmp_path / "m.swcn", tmp_path / target
        assert run(["vocab", "--input", train_csv, "--output", vocab]) == 0
        if command == "eval":
            assert run(["train", "--config", config, "--input", train_csv, "--word-vocab", vocab,
                        "--output", model, "--set", "epochs=1", "--set", "decay_epoch=1"]) == 0
            argv = ["--model", model, "--input", test_csv, "--table", bad]
        else:
            argv = ["--config", config, "--input", train_csv,
                    "--output", bad if flag == "--output" else tmp_path / "new.out"]
            if command != "vocab":
                argv += ["--word-vocab", vocab]
            if flag == "--metrics":
                argv += ["--metrics", bad]
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert run([command, *argv]) == 1
        captured = capsys.readouterr()
        assert f"error: cannot write {bad}" in captured.err
        assert "Traceback" not in captured.err and "epoch=" not in captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == before

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
        monkeypatch.setattr("sys.stdin", stdin_of("w0 w1\n"))
        assert run(["predict", "--model", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "nan.swcn" in captured.err

    @staticmethod
    def non_finite_W_containers(tmp_path, version, where, value):
        """A clean container and one whose base or tv W column 2 (word w2)
        holds ``value``: base region size 1, a bow-word tv of region size 2."""
        vocab = word_vocab(4)
        tv = RegionEmbedding(spec=RegionSpec(BOW_WORD, 2, 4), vocab=vocab,
                             W=np.random.default_rng(1).normal(size=(2, 4)).T.copy(),
                             b=np.zeros(2))
        template = ModelTemplate(base_vocab=vocab, n_classes=2, region_size=1,
                                 embed_dim=3, pooling_k=1, tv_embeddings=(tv,))
        model = init_model(template, TrainConfig(epochs=1, decay_epoch=1),
                           np.random.default_rng(0))
        paths = tmp_path / "clean.swcn", tmp_path / "nan.swcn"
        for path in paths:  # the value is set once the clean container is written
            if version == 1:
                path.write_bytes(v1_model_bytes(model))
            else:
                save_model(model, path)
            (model.base.W if where == "base" else tv.W)[2, 1] = value
        return paths

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["base", "tv"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_non_finite_W_is_two(self, tmp_path, capsys, monkeypatch, version, where, value):
        """W is checked where a document gathers it: the answers before the
        first document that reads the bad column are printed, and none after."""
        clean, path = self.non_finite_W_containers(tmp_path, version, where, value)
        monkeypatch.setattr("sys.stdin", stdin_of("w0 w1\nw3\n"))
        assert run(["predict", "--model", clean]) == 0
        answers = capsys.readouterr().out.split()
        monkeypatch.setattr("sys.stdin", stdin_of("w0 w1\nw3\nw1 w2\nw0\n"))
        assert run(["predict", "--model", path]) == 2
        captured = capsys.readouterr()
        assert captured.out.split() == answers
        view = "the base view" if where == "base" else "tv view 1"
        assert captured.err == (f"data error: {path}: stdin: line 3: "
                                f"non-finite value in {view}'s gathered weights\n")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["base", "tv"])
    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_non_finite_W_in_eval_and_bench_is_two(self, tmp_path, capsys, command, version,
                                                   where, value):
        clean, path = self.non_finite_W_containers(tmp_path, version, where, value)
        csv = tmp_path / "test.csv"
        write_csv(csv, [(1, "w0 w1"), (2, "w3"), (1, "w2 w2"), (2, "w0")])
        assert run(["eval", "--model", clean, "--input", csv]) == 0
        capsys.readouterr()
        assert run([command, "--model", path, "--input", csv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"data error: {path}: {csv}: document 3: non-finite value" in captured.err
        assert "Traceback" not in captured.err

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
        code = run(["train", "--config", config, "--input", train_csv,
                    "--word-vocab", vocab_path, "--output", tmp_path / "m.swcn",
                    "--set", "initial_lr=1e200", "--set", "batch_size=5"])
        assert code == 3
        assert "epoch" in capsys.readouterr().err

    def test_diverging_tv_train_is_three(self, task_files, capsys):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        out = tmp_path / "tv.swcn"
        code = run(["tv-train", "--config", config, "--input", train_csv,
                    "--word-vocab", vocab_path, "--output", out, "--set", "tv_lr=1e200"])
        assert code == 3
        assert not out.exists()
        assert "epoch" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["train", "--set", "initial_lr=1e200", "--set", "batch_size=40"],
         "non-finite loss at epoch 1, batch 2"),
        (["tv-train", "--set", "tv_lr=1e200"],
         "non-finite tv loss at epoch 1, batch 2"),
        (["select", "--set", "grid_region_sizes=3", "--set", "profile=sentiment",
          "--set", "grid_initial_lrs=1e200,1e300"],
         "every grid point diverged, the first: non-finite loss at epoch 2, batch 1"),
    ], ids=["train", "tv-train", "select"])
    def test_divergence_prints_only_the_numeric_failure(self, task_files, argv, message):
        # a child process, so that numpy's warnings would reach its stderr
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        env = dict(os.environ, PYTHONPATH=str(Path(swcnn.__file__).resolve().parents[1]))
        child = subprocess.run(
            [sys.executable, "-m", "swcnn", argv[0], "--config", str(config),
             "--input", str(train_csv), "--word-vocab", str(vocab_path),
             "--output", str(tmp_path / "out.swcn"), *argv[1:]],
            capture_output=True, text=True, env=env, timeout=120)
        assert child.returncode == 3
        assert child.stderr == f"numeric failure: {message}\n"
        assert not (tmp_path / "out.swcn").exists()

    def test_no_tv_examples_is_two_and_names_the_csv(self, task_files, capsys):
        tmp_path, train_csv, _, config = task_files
        vocab_path = tmp_path / "w.vocab"
        run(["vocab", "--config", config, "--input", train_csv, "--output", vocab_path])
        capsys.readouterr()
        # every document has 12 tokens: a 20-token region has no neighbours
        code = run(["tv-train", "--config", config, "--input", train_csv,
                    "--word-vocab", vocab_path, "--output", tmp_path / "tv.swcn",
                    "--set", "tv_region_size=20"])
        assert code == 2
        assert f"{train_csv}: no tv examples" in capsys.readouterr().err
