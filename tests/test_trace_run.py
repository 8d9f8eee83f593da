"""The benchmark's tracer still starts and sees document preparation.

``benchmark/tracer.py`` rebinds module functions by name when it starts,
so renaming or bypassing one of them breaks traced benchmark runs; this
runs it on a tiny corpus for ``train`` and ``predict``.
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
    return json.loads(out_json.read_text(encoding="utf-8"))["sum"], child.stdout.decode()


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
    sums, _ = traced(tmp_path / "train.json", argv)
    assert sums["model.prepare_s"] > 0 and sums["model.slots"] > 0
    assert sums["train.validate_s"] > 0

    lines = "".join(" ".join(tokens) + "\n" for tokens, _ in data[:5]).encode()
    sums, out = traced(tmp_path / "predict.json", ["predict", "--model", model], lines)
    assert len(out.split()) == 5
    assert sums["model.prepare_s"] > 0 and sums["model.slots"] > 0
