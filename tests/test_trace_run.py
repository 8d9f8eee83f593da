"""The benchmark's tracer still starts and sees the functions it times.

``benchmark/tracer.py`` rebinds module functions by name when it starts,
so renaming or bypassing one of them breaks traced benchmark runs; this
runs it on a tiny corpus for ``train``, ``predict`` and ``tv-train``, and on a
small ``bench``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import swcnn
from helpers import trigger_bigram_dataset, write_csv
from swcnn.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmark" / "tracer.py"


def traced(out_json, argv, stdin=b""):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(swcnn.__file__).resolve().parents[1])
    env["PERFBENCH_LAUNCH"] = repr(time.time())
    child = subprocess.run(
        [sys.executable, str(TRACER), str(out_json), *map(str, argv)],
        input=stdin, capture_output=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr.decode()
    record = json.loads(out_json.read_text(encoding="utf-8"))
    return record["sum"], record["mean"], child.stdout.decode()


def test_traced_train_and_predict_prepare_documents(tmp_path):
    data = trigger_bigram_dataset(60, doc_len=12, vocab_size=10, seed=0)
    train_csv = tmp_path / "train.csv"
    write_csv(train_csv, [(label + 1, " ".join(tokens)) for tokens, label in data])
    vocab, model = tmp_path / "w.vocab", tmp_path / "m.swcn"
    assert main(["vocab", "--input", str(train_csv), "--output", str(vocab)]) == 0
    settings = ["embed_dim=8", "epochs=2", "decay_epoch=2", "holdout=10"]
    argv = ["train", "--input", train_csv, "--word-vocab", vocab, "--output", model]
    for setting in settings:
        argv += ["--set", setting]
    sums, means, _ = traced(tmp_path / "train.json", argv)
    assert sums["model.prepare_s"] > 0 and sums["model.slots"] > 0
    assert sums["train.validate_s"] > 0
    # the optimizer step is traced, and W's gradient is still in place when it runs
    assert sums["train.optimizer_s"] > 0
    assert means["train.touched_col_frac"] and min(means["train.touched_col_frac"]) > 0

    lines = "".join(" ".join(tokens) + "\n" for tokens, _ in data[:5]).encode()
    sums, _, out = traced(tmp_path / "predict.json", ["predict", "--model", model], lines)
    assert len(out.split()) == 5
    assert sums["model.prepare_s"] > 0 and sums["model.slots"] > 0
    # the load is traced, and the whole container counted, though W is mapped
    assert sums["serialize.load_s"] > 0
    assert sums["serialize.bytes"] == model.stat().st_size


def test_traced_ngram_tv_train_encodes_and_makes_examples(tmp_path):
    data = trigger_bigram_dataset(40, doc_len=12, vocab_size=10, seed=2)
    train_csv = tmp_path / "train.csv"
    write_csv(train_csv, [(label + 1, " ".join(tokens)) for tokens, label in data])
    words, grams = tmp_path / "w.vocab", tmp_path / "g.vocab"
    assert main(["vocab", "--input", str(train_csv), "--output", str(words)]) == 0
    assert main(["vocab", "--input", str(train_csv), "--output", str(grams),
                 "--kind", "ngram123"]) == 0
    argv = ["tv-train", "--input", train_csv, "--word-vocab", words, "--input-vocab", grams,
            "--output", tmp_path / "tv.swcn"]
    for setting in ["tv_representation=bow-ngram123", "tv_region_size=3", "tv_dim=4",
                    "tv_epochs=1", "tv_negatives=3"]:
        argv += ["--set", setting]
    sums, means, _ = traced(tmp_path / "tv.json", argv)
    assert sums["textpipe.encode_s"] > 0 and sums["tv.examples"] > 0
    assert sums["tv.optimizer_s"] > 0
    assert means["tv.touched_row_frac"] and min(means["tv.touched_row_frac"]) > 0
    # the sweep and the scatter run through the model module's names
    for metric in ("model.embed_regions_s", "model.gathered_rows", "model.scatter_grad_s"):
        assert sums.get(metric, 0) > 0, metric


def test_traced_bench_times_the_model_forward(tmp_path):
    argv = ["bench"]
    for setting in ["bench_d=8", "bench_v_small=100", "bench_v_large=1000",
                    "bench_repetitions=3"]:
        argv += ["--set", setting]
    sums, _, out = traced(tmp_path / "bench.json", argv)
    assert "sparse_ratio=" in out
    record = json.loads((tmp_path / "bench.json").read_text(encoding="utf-8"))
    assert "evalbench.infer_vocab_ratio" in record["value"]
    # the bench runs the model's own forward, which the tracer wraps
    assert sums.get("model.forward_self_s", 0) > 0
