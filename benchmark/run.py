#!/usr/bin/env python3
"""End-to-end benchmark of the ``swcnn`` command line.

Run from the repository root:

    python3 benchmark/run.py --workload paper-wide --seed 1 --seconds 45 --trace 0

A run generates its corpora from ``--seed``, then repeats whole rounds
until the next round would end after ``--seconds`` (at least one round).
A round drives the CLI as a user would, one child process per command:
``vocab`` (the set-up, repeated), ``tv-train``, ``train``, ``params``,
``eval``, ``predict`` streaming the test file, ``predict`` cold starts on
one document, two ``train`` runs at vocabulary sizes 1K and 100K, ``bench``,
and two fault probes.  Every output is checked against the generator and
against closed forms, never against a stored copy of earlier output.

With ``--trace 1`` the run makes two rounds: one untraced, then one with
the pipeline's commands started under ``tracer.py``, and reports the
per-module metrics and the tracing overhead of each phase.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"

# One BLAS thread, in this process as in every child: the load comes from
# one process at a time and never asks for more threads than cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import corpus  # noqa: E402

# A child still running this long after the run started is killed, so that
# a hung command cannot keep the run from ending within three minutes.
RUN_DEADLINE_S = 165
SETUP_REPEATS = 3
STEP_RATIO_VOCABS = (1_000, 100_000)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_corpus: int  # documents `swcnn vocab` reads
    n_train: int  # leading corpus documents `swcnn train` reads
    n_tv: int  # leading corpus documents `swcnn tv-train` reads
    n_test: int
    length: tuple[int, int]
    lexicon: int
    n_classes: int
    cues_per_class: int
    cues_per_doc: int
    cold_starts: int
    tv_runs: int  # tv-train commands per round, for a median
    streams: int  # streaming predict commands per round, for a median
    word_cap: int
    ngram_cap: int  # 0: the tv embedding is bow-word over the word vocabulary
    config: dict

    @property
    def epochs(self) -> int:
        return int(self.config["epochs"])


LABEL_NOISE = 0.05
# Test-error allowance, in percentage points, over the noise rate for a
# model trained for a few epochs only.
LEARNING_ALLOWANCE = 4.0

COMMON = {
    "representation": "concat-one-hot",
    "region_size": 3,
    "embed_dim": 500,
    "tv_region_size": 5,
    "tv_epochs": 2,
    "init_std": 0.05,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-wide",
            why="paper dimensions: 30K words, 45M weights in W, fused bow tv; "
            "dense optimizer passes and the 434 MB container dominate",
            n_corpus=10_000,
            n_train=800,
            n_tv=20,
            n_test=3_000,
            length=(20, 60),
            lexicon=60_000,
            n_classes=4,
            cues_per_class=2,
            cues_per_doc=5,
            cold_starts=7,
            tv_runs=1,
            streams=2,
            word_cap=30_000,
            ngram_cap=0,
            config=COMMON
            | {
                "pooling_k": 1,
                "epochs": 3,
                "initial_lr": 0.5,
                "tv_dim": 300,
                "tv_representation": "bow-word",
            },
        ),
        Workload(
            name="long-pooled",
            why="long documents, a 2K-word vocabulary, pooling_k=10 and a fused "
            "n-gram tv: per-document work dominates",
            n_corpus=400,
            n_train=400,
            n_tv=30,
            n_test=600,
            length=(150, 300),
            lexicon=2_500,
            n_classes=2,
            cues_per_class=2,
            cues_per_doc=16,
            cold_starts=11,
            tv_runs=3,
            streams=3,
            word_cap=2_000,
            ngram_cap=5_000,
            config=COMMON
            | {
                "pooling_k": 10,
                "epochs": 3,
                "initial_lr": 0.1,
                "batch_size": 20,
                "tv_dim": 100,
                "tv_representation": "bow-ngram123",
            },
        ),
    )
}


@dataclass
class Child:
    code: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None


def child_env() -> dict:
    """The explicit environment of every child: nothing is inherited but
    PATH, so settings such as PYTHONUNBUFFERED cannot change behaviour."""
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    """Starts one child at a time and keeps the operation tally."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._seq = 0

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def run(self, args, stdin: bytes | None = None, traced: bool = False) -> Child:
        self.attempted += 1
        if self.expired():
            return Child(code=-1, seconds=math.nan, rss_mb=math.nan, stdout="",
                         stderr="not started: run deadline passed")
        self._seq += 1
        base = self.work / f"child{self._seq}"
        out_path, err_path = base.with_suffix(".out"), base.with_suffix(".err")
        trace_path = base.with_suffix(".trace.json")
        args = [str(a) for a in args]
        if traced:
            cmd = [sys.executable, str(TRACER), str(trace_path), *args]
        else:
            cmd = [sys.executable, "-m", "swcnn", *args]
        env = self.env
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            if traced:
                env = env | {"PERFBENCH_LAUNCH": repr(time.time())}
            started = time.perf_counter()
            proc = subprocess.Popen(
                cmd,
                cwd=self.work,
                env=env,
                stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
                stdout=out,
                stderr=err,
            )
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                if stdin is not None:
                    try:
                        proc.stdin.write(stdin)
                        proc.stdin.close()
                    except BrokenPipeError:
                        pass
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if traced and trace_path.exists():
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        print(f"{args[0]} exit={proc.returncode} {seconds:.3f}s rss={usage.ru_maxrss / 1024:.0f}MiB",
              file=sys.stderr)
        return Child(
            code=proc.returncode,
            seconds=seconds,
            rss_mb=usage.ru_maxrss * 1024 / 1e6,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            trace=trace,
        )

    def ok(self, what: str, child: Child) -> Child:
        """Count a command that must succeed; a failure makes the run incorrect."""
        if child.code != 0:
            self.failed += 1
            self.problems.append(f"{what}: exit {child.code}: {child.stderr.strip()[-300:]}")
        return child

    @staticmethod
    def flush(path: Path) -> None:
        """Write a child's output file to disk before the next timed command,
        so that its writeback does not run during that command."""
        if path.exists():
            with open(path, "rb") as stream:
                os.fsync(stream.fileno())

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


@dataclass
class Inputs:
    work: Path
    corpus_csv: Path
    train_csv: Path
    tv_csv: Path
    test_csv: Path
    test_txt: Path
    config: Path
    test_labels: list[int]
    expected_vocabs: dict  # kind -> expected entries
    step_csv: Path
    step_vocabs: dict  # vocabulary size -> path
    bad_csv: Path
    nan_model: Path


def make_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    rng = np.random.default_rng([seed, list(WORKLOADS).index(w.name)])

    def gen(n_docs):
        return corpus.generate(
            rng, n_docs, w.length, w.lexicon, w.n_classes, w.cues_per_class,
            w.cues_per_doc, LABEL_NOISE,
        )

    # tv and training documents are leading blocks of the vocabulary corpus,
    # each generated on its own so its word count does not depend on the seed
    main_corpus = corpus.concat(
        gen(w.n_tv), gen(w.n_train - w.n_tv), gen(w.n_corpus - w.n_train)
    )
    test = gen(w.n_test)
    paths = {name: work / name for name in (
        "corpus.csv", "train.csv", "tv.csv", "test.csv", "test.txt", "run.conf",
        "step.csv", "bad.csv", "nan.swcn")}
    corpus.write_csv(paths["corpus.csv"], main_corpus)
    corpus.write_csv(paths["train.csv"], main_corpus, w.n_train)
    corpus.write_csv(paths["tv.csv"], main_corpus, w.n_tv)
    corpus.write_csv(paths["test.csv"], test)
    corpus.write_lines(paths["test.txt"], test.texts)

    settings = dict(w.config)
    settings |= {
        "seed": seed,
        "n_classes": w.n_classes,
        "decay_epoch": w.epochs,
        "holdout": w.n_train // 10,
        "word_vocab_cap": w.word_cap,
        "tv_specs": f"ngram:{w.config['tv_region_size']}" if w.ngram_cap
        else f"bow:{w.config['tv_region_size']}",
    }
    if w.ngram_cap:
        settings["ngram_vocab_cap"] = w.ngram_cap
    paths["run.conf"].write_text(
        "".join(f"{k}={v}\n" for k, v in settings.items()), encoding="utf-8"
    )
    expected = {"word": corpus.expected_vocab(main_corpus.texts, "word", w.word_cap)}
    if w.ngram_cap:
        expected["ngram123"] = corpus.expected_vocab(main_corpus.texts, "ngram123", w.ngram_cap)

    # Training-step vocabulary independence: the same 1000 documents over
    # the first 1K words, trained with a 1K and a 100K vocabulary file.
    step_rng = np.random.default_rng([seed, 99])
    with open(paths["step.csv"], "w", encoding="utf-8") as out:
        for i in range(1_000):
            words = " ".join(f"s{j}" for j in step_rng.integers(0, 1_000, size=40))
            out.write(f'"{1 + i % 2}","{words}"\n')
    step_vocabs = {}
    for size in STEP_RATIO_VOCABS:
        step_vocabs[size] = work / f"step{size}.vocab"
        with open(step_vocabs[size], "w", encoding="utf-8") as out:
            out.write("kind=word\n")
            out.writelines(f"s{j}\t1\n" for j in range(size))

    paths["bad.csv"].write_bytes(b'"1","valid words"\n"2","caf\xe9 au lait"\n')
    corpus.write_nan_model(paths["nan.swcn"], ["w0", "w1", "w2"])
    return Inputs(
        work=work,
        corpus_csv=paths["corpus.csv"],
        train_csv=paths["train.csv"],
        tv_csv=paths["tv.csv"],
        test_csv=paths["test.csv"],
        test_txt=paths["test.txt"],
        config=paths["run.conf"],
        test_labels=test.labels,
        expected_vocabs=expected,
        step_csv=paths["step.csv"],
        step_vocabs=step_vocabs,
        bad_csv=paths["bad.csv"],
        nan_model=paths["nan.swcn"],
    )


def closed_forms(w: Workload, vocab_entries: dict):
    """(parameter count, container bytes) of the trained fused model."""
    c = w.config
    words = [t for t, _ in vocab_entries["word"]]
    tv_tokens = [t for t, _ in vocab_entries["ngram123" if w.ngram_cap else "word"]]
    d, p, k = c["embed_dim"], c["region_size"], c["pooling_k"]
    params = corpus.param_count(
        d, p, len(words), [(c["tv_dim"], len(tv_tokens))], w.n_classes, k
    )
    size = corpus.container_bytes(
        d, words, p * len(words), [(tv_tokens, c["tv_dim"], len(tv_tokens))], w.n_classes, k
    )
    return params, size


def _floats(text: str, key: str) -> list[float]:
    return [
        float(part.split("=", 1)[1])
        for line in text.splitlines()
        for part in line.split()
        if part.startswith(key + "=")
    ]


def _answers(text: str, n_classes: int) -> list[int] | None:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    try:
        answers = [int(line) for line in lines]
    except ValueError:
        return None
    if any(not 0 <= a < n_classes for a in answers):
        return None
    return answers


def run_round(w: Workload, inp: Inputs, r: Runner, traced: bool) -> dict:
    """One round of every operation; returns its samples and traces."""
    conf = ["--config", inp.config]
    s = {"setup": [], "traces": [], "cold": []}
    vocab_files = {"word": inp.work / "word.vocab"}
    if w.ngram_cap:
        vocab_files["ngram123"] = inp.work / "ngram.vocab"

    for repeat in range(SETUP_REPEATS):
        total = 0.0
        for kind, path in vocab_files.items():
            cap = w.word_cap if kind == "word" else w.ngram_cap
            child = r.ok(f"vocab {kind}", r.run(
                ["vocab", *conf, "--input", inp.corpus_csv, "--output", path,
                 "--kind", kind, "--cap", cap],
                traced=traced and repeat == 0,
            ))
            total += child.seconds
            s["traces"].append(child.trace)
        s["setup"].append(total)
    for kind, path in vocab_files.items():
        got_kind, entries = corpus.read_vocab(path) if path.exists() else ("", [])
        r.check(got_kind == kind and entries == inp.expected_vocabs[kind],
                f"vocab {kind}: file differs from the vocabulary recounted from the corpus")

    s["tv_runs"] = []

    def tv_op(tv_path):
        tv_args = ["tv-train", *conf, "--input", inp.tv_csv, "--word-vocab",
                   vocab_files["word"], "--output", tv_path]
        if w.ngram_cap:
            tv_args += ["--input-vocab", vocab_files["ngram123"]]
        child = r.ok("tv-train", r.run(tv_args, traced=traced))
        s["traces"].append(child.trace)
        s["tv_runs"].append(child)
        losses = _floats(child.stdout, "tv_loss")
        r.check(len(losses) == w.config["tv_epochs"] and all(map(math.isfinite, losses))
                and losses[-1] < losses[0], f"tv-train: losses {losses} not finite and falling")
        r.flush(tv_path)

    tv_path = inp.work / "tv.swcn"
    tv_op(tv_path)

    model_path = inp.work / "model.swcn"
    child = r.ok("train", r.run(
        ["train", *conf, "--input", inp.train_csv, "--word-vocab", vocab_files["word"],
         "--tv", tv_path, "--output", model_path], traced=traced))
    s["traces"].append(child.trace)
    s["train"] = child
    r.flush(model_path)
    losses = _floats(child.stdout, "train_loss")
    params, size = closed_forms(w, inp.expected_vocabs)
    r.check(len(losses) == w.epochs and all(map(math.isfinite, losses)),
            f"train: losses {losses} not all finite")
    r.check(_floats(child.stdout, "params") == [params],
            f"train: params line differs from the closed form {params}")
    s["model_bytes"] = model_path.stat().st_size if model_path.exists() else 0
    r.check(s["model_bytes"] == size,
            f"model container is {s['model_bytes']} bytes, layout gives {size}")

    stream_input = inp.test_txt.read_bytes()
    first_doc = stream_input[: stream_input.index(b"\n") + 1]
    s["streams"] = []
    out = {}

    def params_op():
        out["params"] = r.ok("params", r.run(["params", *conf])).stdout.strip()

    def eval_op():
        child = r.ok("eval", r.run(["eval", "--model", model_path, "--input", inp.test_csv],
                                   traced=traced))
        s["traces"].append(child.trace)
        s["eval"] = out["eval"] = child

    def stream_op():
        child = r.ok("predict stream", r.run(["predict", "--model", model_path],
                                             stdin=stream_input, traced=traced))
        s["traces"].append(child.trace)
        s["streams"].append(child)

    def cold_start():
        child = r.ok("predict cold start", r.run(["predict", "--model", model_path],
                                                 stdin=first_doc, traced=traced))
        s["traces"].append(child.trace)
        s["cold"].append(child)

    step_seconds = {}

    def step_op(size):
        metrics_path = inp.work / f"step{size}.txt"
        r.ok("train step ratio", r.run(
            ["train", "--input", inp.step_csv, "--word-vocab", inp.step_vocabs[size],
             "--output", inp.work / f"step{size}.swcn", "--metrics", metrics_path,
             "--set", "embed_dim=32", "--set", "epochs=3", "--set", "decay_epoch=3",
             "--set", "holdout=0"]))
        text = metrics_path.read_text(encoding="utf-8") if metrics_path.exists() else ""
        step_seconds[size] = statistics.median(_floats(text, "seconds") or [math.nan])

    def bench_op():
        child = r.ok("bench", r.run(
            ["bench", "--set", "bench_d=64", "--set", "bench_v_small=1000",
             "--set", "bench_v_large=10000", "--set", "bench_repetitions=30"], traced=traced))
        s["traces"].append(child.trace)

    # Fault probes: malformed input must end in exit 2 with a message that
    # names the file.  Both fail on the current program.
    def probe(what, args, stdin, named):
        child = r.run(args, stdin=stdin)
        if child.code != 2 or named not in child.stderr or "Traceback" in child.stderr:
            r.failed += 1
            print(f"probe failed: {what}: exit {child.code}", file=sys.stderr)

    others = [
        params_op,
        eval_op,
        lambda: step_op(STEP_RATIO_VOCABS[0]),
        lambda: step_op(STEP_RATIO_VOCABS[1]),
        bench_op,
        lambda: probe("eval on invalid UTF-8",
                      ["eval", "--model", inp.work / "step1000.swcn", "--input", inp.bad_csv],
                      None, inp.bad_csv.name),
        lambda: probe("predict on NaN weights", ["predict", "--model", inp.nan_model],
                      b"w0 w1\n", inp.nan_model.name),
    ]
    timed = []
    for i in range(max(w.streams, w.tv_runs - 1)):
        if i < w.streams:
            timed.append(stream_op)
        if i < w.tv_runs - 1:
            timed.append(lambda: tv_op(inp.work / "tv_repeat.swcn"))
    # The machine's speed shifts within seconds, so the repeated commands and
    # the cold starts are spread over the whole phase, not run back to back.
    ops = []
    for j, op in enumerate(timed):
        ops.append(op)
        ops.extend(others[j * len(others) // len(timed) : (j + 1) * len(others) // len(timed)])
    for i, op in enumerate(ops):
        op()
        k, n = w.cold_starts, len(ops)
        for _ in range(k * (i + 1) // n - k * i // n):
            cold_start()

    r.check(out["params"].replace(",", "") == str(params),
            f"params printed {out['params']!r}, closed form {params}")
    eval_out = out["eval"].stdout
    n_errors = _floats(eval_out, "n_errors")
    error = _floats(eval_out, "error_rate_percent")
    ceiling = corpus.error_ceiling_percent(LABEL_NOISE, w.n_test, LEARNING_ALLOWANCE)
    r.check(_floats(eval_out, "n_docs") == [w.n_test] and len(error) == 1
            and error[0] <= ceiling,
            f"eval: error {error} percent above the ceiling {ceiling:.2f} of a learnt rule")
    answers = None
    for child in s["streams"]:
        got = _answers(child.stdout, w.n_classes) or []
        r.check(len(got) == w.n_test, "predict: not one class in range per input line")
        wrong = sum(a != y for a, y in zip(got, inp.test_labels))
        r.check(n_errors == [wrong], f"predict: {wrong} wrong answers, eval counted {n_errors}")
        r.check(answers is None or got == answers, "predict: two streams disagree")
        answers = got
    for child in s["cold"]:
        r.check(_answers(child.stdout, w.n_classes) == answers[:1],
                "predict cold start: answer differs from the streamed one")
    s["step_ratio"] = step_seconds[STEP_RATIO_VOCABS[1]] / step_seconds[STEP_RATIO_VOCABS[0]]
    return s


def e2e_metrics(w: Workload, rounds: list[dict]) -> dict:
    med = statistics.median
    train_docs = w.n_train - w.n_train // 10

    def per_round(fn):
        return med([fn(s) for s in rounds])

    def start_of(s):
        return med(c.seconds for c in s["cold"])

    start = per_round(start_of)
    values = {
        "setup_s": (med([x for s in rounds for x in s["setup"]]), "s"),
        "tv_train_docs_per_s": (per_round(lambda s: med(
            w.n_tv * w.config["tv_epochs"] / c.seconds for c in s["tv_runs"])), "docs/s"),
        "tv_train_peak_rss_mb": (per_round(lambda s: max(c.rss_mb for c in s["tv_runs"])), "MB"),
        "train_docs_per_s": (per_round(
            lambda s: train_docs * w.epochs / s["train"].seconds), "docs/s"),
        "train_peak_rss_mb": (per_round(lambda s: s["train"].rss_mb), "MB"),
        "model_mb": (per_round(lambda s: s["model_bytes"] / 1e6), "MB"),
        "predict_start_s": (start, "s"),
        "predict_docs_per_s": (per_round(lambda s: med(
            w.n_test / (stream.seconds - start_of(s)) for stream in s["streams"])), "docs/s"),
        "predict_peak_rss_mb": (per_round(lambda s: max(c.rss_mb for c in s["streams"])), "MB"),
    }
    return values


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-module metrics of the traced round, plus tracing overhead."""
    sums: dict[str, float] = {}
    means: dict[str, list] = {}
    values: dict[str, float] = {}
    for trace in traced["traces"]:
        if not trace:
            continue
        for k, v in trace["sum"].items():
            sums[k] = sums.get(k, 0.0) + v
        for k, v in trace["mean"].items():
            means.setdefault(k, []).extend(v)
        values.update(trace["value"])
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name in sums:
            out[name] = sums[name]
        elif name in means:
            out[name] = statistics.fmean(means[name])
        elif name in values:
            out[name] = values[name]
        else:
            out[name] = 0.0
    out["train.step_vocab_ratio"] = traced["step_ratio"]
    startups = [c.trace["startup_s"] for c in traced["cold"] if c.trace]
    out["cli.startup_s"] = statistics.median(startups) if startups else 0.0

    def overhead(fn):
        return fn(traced) / fn(plain) - 1.0

    med = statistics.median
    out["trace.overhead_setup"] = traced["setup"][0] / plain["setup"][0] - 1.0
    for phase in ("train", "eval"):
        out[f"trace.overhead_{phase}"] = overhead(lambda s: s[phase].seconds)
    out["trace.overhead_tv_train"] = overhead(lambda s: med(c.seconds for c in s["tv_runs"]))
    out["trace.overhead_stream"] = overhead(lambda s: med(c.seconds for c in s["streams"]))
    out["trace.overhead_predict_start"] = overhead(lambda s: med(c.seconds for c in s["cold"]))
    return {name: (value, LAYER_METRICS[name]) for name, value in out.items()}


LAYER_METRICS = {
    "data.load_csv_s": "s",
    "textpipe.build_vocab_s": "s",
    "textpipe.tokenize_s": "s",
    "textpipe.encode_s": "s",
    "textpipe.region_vector_s": "s",
    "textpipe.region_vectors": "count",
    "model.prepare_s": "s",
    "model.slots": "count",
    "model.embed_regions_s": "s",
    "model.gathered_rows": "count",
    "model.max_pool_s": "s",
    "model.forward_self_s": "s",
    "model.backward_self_s": "s",
    "model.scatter_grad_s": "s",
    "kernels.softmax_xent_s": "s",
    "kernels.sparse_affine_s": "s",
    "kernels.sparse_affine_calls": "count",
    "train.init_s": "s",
    "train.optimizer_s": "s",
    "train.optimizer_mb": "MB",
    "train.loop_self_s": "s",
    "train.validate_s": "s",
    "train.touched_col_frac": "frac",
    "train.step_vocab_ratio": "ratio",
    "tv.make_examples_s": "s",
    "tv.examples": "count",
    "tv.negatives_s": "s",
    "tv.optimizer_s": "s",
    "tv.loop_self_s": "s",
    "tv.touched_row_frac": "frac",
    "serialize.save_s": "s",
    "serialize.load_s": "s",
    "serialize.bytes": "bytes",
    "evalbench.infer_vocab_ratio": "ratio",
    "evalbench.dense_control_ratio": "ratio",
    "cli.startup_s": "s",
    "trace.overhead_setup": "frac",
    "trace.overhead_tv_train": "frac",
    "trace.overhead_train": "frac",
    "trace.overhead_eval": "frac",
    "trace.overhead_stream": "frac",
    "trace.overhead_predict_start": "frac",
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "swcnn" / "cli.py").is_file():
        print(f"error: no swcnn sources under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    work = BENCH_DIR / "_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inp = make_inputs(w, args.seed, work)
        runner = Runner(work)
        rounds = []
        started = time.perf_counter()
        if args.trace:
            rounds = [run_round(w, inp, runner, traced=False),
                      run_round(w, inp, runner, traced=True)]
        else:
            while True:
                round_started = time.perf_counter()
                rounds.append(run_round(w, inp, runner, traced=False))
                now = time.perf_counter()
                if now - started + (now - round_started) > args.seconds or runner.expired():
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    if args.trace:
        metrics = layer_metrics(rounds[0], rounds[1])
    else:
        metrics = e2e_metrics(w, rounds)
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            runner.problems.append(f"{name} is not a finite number")
            metrics[name] = (0.0, unit)
    print("env " + json.dumps(environment()))
    print(f"rounds {len(rounds)} measured_s {time.perf_counter() - started:.1f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in runner.problems:
        print(f"check failed: {problem}")
    print(f"operations attempted={runner.attempted} failed={runner.failed}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
