#!/usr/bin/env python3
"""Digests of the scripted pipeline's outputs, to compare two source trees bit for bit.

Runs the command line through one fixed pipeline on a seeded synthetic
corpus, one child process per command:

    vocab (word, ngram123)
    tv-train (bow-word, bow-ngram123)
    train --tv --tv --metrics at pooling_k=2
    eval --table, predict on the test texts, a 4-point select,
    params with two tv views

and prints one line ``<sha256>  <name>`` per command's standard output and
per file the pipeline writes.  Every ``seconds=`` value is stripped from
the standard outputs and the metrics file first, and the work directory
from the standard outputs, so two trees that train, answer and serialize
identically print identical lines.  Then ``params`` runs once per rejected
setting in ``REJECTED``, through a config file and through ``--set``; each
run prints one line ``<sha256>  <name>.rejected`` of its exit code and its
standard error, with the work directory stripped.

Usage:

    python3 scripts/pipeline_digest.py [--workload NAME] [--seed N] [--src DIR] [--work DIR]

``--workload tiny`` (the default) generates a few dozen short documents
and runs in seconds.  ``paper-wide`` and ``long-pooled`` use the inputs
``benchmark/run.py`` generates for that workload at ``--seed``; their
n-gram vocabulary is capped at the workload's n-gram cap, or at its word
cap where the benchmark runs no n-gram view.  ``--src`` is the source
directory whose ``swcnn`` runs (default: this checkout's ``src``), so the
same inputs can be run against another checkout.  ``--work`` keeps the
inputs and outputs in the given directory instead of a temporary one.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

import corpus  # noqa: E402

SECONDS = re.compile(rb"seconds=[0-9.]+")

TINY_CORPUS = dict(length=(6, 24), lexicon=80, n_classes=2, cues_per_class=2,
                   cues_per_doc=2, noise=0.05)
TINY_SIZES = dict(n_tv=20, n_train=60, n_rest=20, n_test=30)
TINY_CAPS = (60, 300)  # word, ngram123
TINY_CONFIG = {
    "embed_dim": 8,
    "region_size": 3,
    "epochs": 2,
    "decay_epoch": 2,
    "batch_size": 10,
    "initial_lr": 0.1,
    "init_std": 0.05,
    "holdout": 6,
    "tv_dim": 6,
    "tv_region_size": 3,
    "tv_epochs": 1,
    "tv_negatives": 5,
    "tv_batch_size": 20,
}


def tiny_inputs(seed: int, work: Path) -> tuple[dict, tuple[int, int]]:
    rng = np.random.default_rng([seed, 19])
    n = TINY_SIZES
    main = corpus.concat(*(corpus.generate(rng, size, **TINY_CORPUS)
                           for size in (n["n_tv"], n["n_train"] - n["n_tv"], n["n_rest"])))
    test = corpus.generate(rng, n["n_test"], **TINY_CORPUS)
    paths = {name: work / name for name in
             ("corpus.csv", "train.csv", "tv.csv", "test.csv", "test.txt", "run.conf")}
    corpus.write_csv(paths["corpus.csv"], main)
    corpus.write_csv(paths["train.csv"], main, n["n_train"])
    corpus.write_csv(paths["tv.csv"], main, n["n_tv"])
    corpus.write_csv(paths["test.csv"], test)
    corpus.write_lines(paths["test.txt"], test.texts)
    settings = TINY_CONFIG | {"seed": seed, "n_classes": TINY_CORPUS["n_classes"]}
    paths["run.conf"].write_text("".join(f"{k}={v}\n" for k, v in settings.items()),
                                 encoding="utf-8")
    return paths, TINY_CAPS


def workload_inputs(name: str, seed: int, work: Path) -> tuple[dict, tuple[int, int]]:
    import run as bench

    w = bench.WORKLOADS[name]
    inp = bench.make_inputs(w, seed, work)
    paths = {"corpus.csv": inp.corpus_csv, "train.csv": inp.train_csv, "tv.csv": inp.tv_csv,
             "test.csv": inp.test_csv, "test.txt": inp.test_txt, "run.conf": inp.config}
    return paths, (w.word_cap, w.ngram_cap or w.word_cap)


def pipeline(paths: dict, caps: tuple[int, int], work: Path):
    """The commands in order, as (name, argv, stdin path or None), and the files they write."""
    conf = ["--config", paths["run.conf"]]
    out = {name: work / name for name in (
        "word.vocab", "ngram.vocab", "tv-word.swcn", "tv-ngram.swcn", "model.swcn",
        "metrics.txt", "table.tsv", "selected.swcn")}
    commands = [
        ("vocab-word", ["vocab", *conf, "--input", paths["corpus.csv"],
                        "--output", out["word.vocab"], "--kind", "word", "--cap", caps[0]], None),
        ("vocab-ngram123", ["vocab", *conf, "--input", paths["corpus.csv"],
                            "--output", out["ngram.vocab"], "--kind", "ngram123",
                            "--cap", caps[1]], None),
        ("tv-train-bow-word", ["tv-train", *conf, "--set", "tv_representation=bow-word",
                               "--input", paths["tv.csv"], "--word-vocab", out["word.vocab"],
                               "--output", out["tv-word.swcn"]], None),
        ("tv-train-bow-ngram123", ["tv-train", *conf, "--set", "tv_representation=bow-ngram123",
                                   "--input", paths["tv.csv"], "--word-vocab", out["word.vocab"],
                                   "--input-vocab", out["ngram.vocab"],
                                   "--output", out["tv-ngram.swcn"]], None),
        ("train", ["train", *conf, "--set", "pooling_k=2", "--input", paths["train.csv"],
                   "--word-vocab", out["word.vocab"], "--tv", out["tv-word.swcn"],
                   "--tv", out["tv-ngram.swcn"], "--output", out["model.swcn"],
                   "--metrics", out["metrics.txt"]], None),
        ("eval", ["eval", *conf, "--model", out["model.swcn"], "--input", paths["test.csv"],
                  "--table", out["table.tsv"]], None),
        ("predict", ["predict", "--model", out["model.swcn"]], paths["test.txt"]),
        # one region size, pooling 1 and 10 (the topic profile), two rates
        ("select", ["select", *conf, "--set", "profile=topic", "--set", "grid_region_sizes=3",
                    "--set", "grid_initial_lrs=0.1,0.05", "--input", paths["train.csv"],
                    "--word-vocab", out["word.vocab"], "--output", out["selected.swcn"]], None),
        ("params", ["params", *conf, "--set", "tv_specs=bow:5,ngram:9"], None),
    ]
    return commands, out


# one setting per message form of the settings reader, each of which params rejects
REJECTED = {
    "bad-integer": "seed=many",
    "bad-number": "initial_lr=fast",
    "not-finite": "initial_lr=nan",
    "bad-bool": "small_data=maybe",
    "bad-integers": "grid_region_sizes=3,x",
    "bad-numbers": "grid_initial_lrs=0.1,y",
    "unknown-key": "mystery=1",
    "no-equals": "seed",
    "below-least": "embed_dim=0",
    "unknown-profile": "profile=news",
    "bad-tv-spec": "tv_specs=bow:5,cnn:3",
}


def rejected_runs(work: Path):
    """(name, argv) of each rejected setting, read from a config file and from --set."""
    for name, setting in REJECTED.items():
        conf = work / f"rejected-{name}.conf"
        conf.write_text(f"n_classes=2\n{setting}\n", encoding="utf-8")
        yield f"params-{name}-file", ["params", "--config", conf]
        yield f"params-{name}-set", ["params", "--set", "n_classes=2", "--set", setting]


def digest(data: bytes, strip: bool) -> str:
    return hashlib.sha256(SECONDS.sub(b"seconds=", data) if strip else data).hexdigest()


def stdout_digest(data: bytes, work: Path) -> str:
    return digest(data.replace(str(work).encode(), b"<work>"), strip=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="tiny", choices=["tiny", "paper-wide", "long-pooled"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--src", default=str(ROOT / "src"), help="source directory to run")
    parser.add_argument("--work", help="directory for inputs and outputs (default: temporary)")
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        work.mkdir(parents=True, exist_ok=True)
        if args.workload == "tiny":
            paths, caps = tiny_inputs(args.seed, work)
        else:
            paths, caps = workload_inputs(args.workload, args.seed, work)
        commands, outputs = pipeline(paths, caps, work)

        def swcnn(cmd, stdin=None):
            with open(stdin or os.devnull, "rb") as source:
                return subprocess.run([sys.executable, "-m", "swcnn", *map(str, cmd)],
                                      stdin=source, capture_output=True, env=env)

        for name, cmd, stdin in commands:
            child = swcnn(cmd, stdin)
            if child.returncode != 0:
                sys.stderr.write(child.stderr.decode("utf-8", "replace"))
                print(f"error: {name} exited {child.returncode}", file=sys.stderr)
                return 1
            print(f"{stdout_digest(child.stdout, work)}  {name}.stdout")
        for name, path in outputs.items():
            print(f"{digest(path.read_bytes(), strip=name == 'metrics.txt')}  {name}")
        for name, cmd in rejected_runs(work):
            child = swcnn(cmd)
            record = b"exit=%d\n" % child.returncode + child.stderr
            print(f"{stdout_digest(record, work)}  {name}.rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
