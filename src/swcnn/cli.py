"""Command-line interface orchestrating the pipeline end to end.

Subcommands: vocab, tv-train, train, select, eval, predict, bench,
params.  Every subcommand reads an optional key=value config file of
hyperparameters plus repeatable ``--set key=value`` overrides.  Each
file is named by its flag alone; only ``vocab --cap`` overrides a config
key.  Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
failure; a closed standard output ends the process by SIGPIPE.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys
from contextlib import contextmanager

from swcnn import config as cfgmod
from swcnn.config import RunConfig, load_config
from swcnn.data import atomic_write, load_csv, load_vocab, n_classes_of, save_vocab, to_samples
from swcnn.errors import DataError, NonFiniteWeights, NumericError, UsageError
from swcnn.evalbench import (
    dense_control_ratio,
    evaluate,
    make_bench_pattern,
    time_inference,
    vocab_independence_bench,
)
from swcnn.model import count_parameters, parameter_count, predict, prepare_labeled
from swcnn.serialize import load_embedding, load_model, save_embedding, save_model
from swcnn.textpipe import NGRAM123, WORD, RegionSpec, build_vocab, tokenize
from swcnn.train import ModelTemplate, default_holdout, holdout_split, select_model, train
from swcnn.tv import train_tv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="swcnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="key=value config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        return p

    p = add("vocab", cmd_vocab, "build a capped frequency-ranked vocabulary from a CSV")
    p.add_argument("--input", help="training CSV")
    p.add_argument("--output", help="vocabulary file to write")
    p.add_argument("--kind", choices=[WORD, NGRAM123], default=WORD)
    p.add_argument("--cap", type=int, help="vocabulary size cap")

    p = add("tv-train", cmd_tv_train, "train a two-view region embedding")
    p.add_argument("--input", help="training CSV (labels are ignored)")
    p.add_argument("--word-vocab", dest="word_vocab", help="word vocabulary file")
    p.add_argument(
        "--input-vocab",
        dest="input_vocab",
        help="vocabulary of the embedding's own view (defaults to the word vocabulary)",
    )
    p.add_argument("--output", help="embedding container to write")

    for name, handler, help_text in (
        ("train", cmd_train, "train one model"),
        ("select", cmd_select, "grid-search region size, pooling and learning rate"),
    ):
        p = add(name, handler, help_text)
        p.add_argument("--input", help="training CSV")
        p.add_argument("--word-vocab", dest="word_vocab", help="word vocabulary file")
        p.add_argument(
            "--tv",
            action="append",
            default=[],
            help="two-view embedding container (repeatable)",
        )
        p.add_argument("--output", help="model container to write")
        p.add_argument("--metrics", help="metrics file to write")

    p = add("eval", cmd_eval, "error rate of a trained model on a labeled CSV")
    p.add_argument("--model", help="model container")
    p.add_argument("--input", help="test CSV")
    p.add_argument("--table", help="optional confusion-table TSV to write")

    p = add("predict", cmd_predict, "read one document per line on stdin, print class indices")
    p.add_argument("--model", help="model container")

    p = add("bench", cmd_bench, "inference timing and the vocabulary-independence measurement")
    p.add_argument("--model", help="model container (timing)")
    p.add_argument("--input", help="test CSV (timing)")

    add("params", cmd_params, "parameter count for the configured architecture")
    return parser


def _need(value, what):
    if not value:
        raise UsageError(f"missing {what}")
    return value


def _output(path):
    """An output file's path (or None), checked before any work is done."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path)))):
        raise UsageError(f"cannot write {path}: not a file in an existing directory")
    return path


def _load_word_vocab(path):
    vocab = load_vocab(path)
    if vocab.kind != WORD:
        raise DataError(f"{path}: expected a word vocabulary, found kind={vocab.kind}")
    return vocab


def cmd_vocab(args, cfg: RunConfig) -> int:
    out = _output(_need(args.output, "--output path"))
    cap = cfgmod.vocab_cap(cfg, args.kind) if args.cap is None else args.cap
    if cap < 1:
        raise UsageError(f"--cap must be >= 1, got {cap}")
    records = load_csv(_need(args.input, "--input CSV"))
    vocab = build_vocab([tokenize(r.text) for r in records], args.kind, cap)
    if not vocab.entries:
        # load_vocab rejects a vocabulary without entries
        raise DataError(f"{args.input}: no tokens to build a vocabulary from")
    save_vocab(vocab, out)
    print(f"vocab kind={vocab.kind} size={len(vocab)} path={out}")
    return 0


def cmd_tv_train(args, cfg: RunConfig) -> int:
    out = _output(_need(args.output, "--output path"))
    records = load_csv(_need(args.input, "--input CSV"))
    corpus = [tokenize(r.text) for r in records]
    word_vocab = _load_word_vocab(_need(args.word_vocab, "--word-vocab"))
    input_vocab = load_vocab(args.input_vocab) if args.input_vocab else word_vocab
    spec = RegionSpec(
        representation=cfg.tv_representation,
        region_size=cfg.tv_region_size,
        vocab_size=len(input_vocab),
    )
    if input_vocab.kind != spec.vocab_kind:
        if not args.input_vocab:
            raise UsageError(f"{spec.representation} embeddings need --input-vocab")
        raise DataError(
            f"{args.input_vocab}: {spec.representation} embeddings need a vocabulary "
            f"of kind {spec.vocab_kind}, found kind={input_vocab.kind}"
        )
    try:
        embedding, losses = train_tv(corpus, spec, input_vocab, word_vocab, cfg)
    except DataError as exc:
        raise DataError(f"{args.input}: {exc}") from exc
    save_embedding(embedding, out)
    for epoch, loss in enumerate(losses, start=1):
        print(f"epoch={epoch} tv_loss={loss:.6f}")
    print(f"embedding dim={embedding.dim} path={out}")
    return 0


def _training_inputs(args, cfg: RunConfig):
    """(train set, validation set, template): the one holdout split of train and select."""
    _output(_need(args.output, "--output path"))
    _output(args.metrics)
    records = load_csv(_need(args.input, "--input CSV"))
    n_classes = cfg.n_classes or n_classes_of(records)
    samples = to_samples(args.input, records, n_classes)
    word_vocab = _load_word_vocab(_need(args.word_vocab, "--word-vocab"))
    tvs = tuple(load_embedding(p) for p in args.tv)
    template = ModelTemplate(base_vocab=word_vocab, n_classes=n_classes, tv_embeddings=tvs)
    n_holdout = cfg.holdout if cfg.holdout >= 0 else default_holdout(len(samples))
    if n_holdout >= len(samples):
        raise UsageError(
            f"holdout {n_holdout} leaves no training records: {args.input} has {len(samples)}"
        )
    train_set, val_set = holdout_split(samples, n_holdout, cfg.seed)
    return train_set, val_set, template


def _write_lines(path, lines) -> None:
    atomic_write(path, lambda out: out.writelines(line + "\n" for line in lines))


def _metric_lines(metrics):
    lines = []
    for m in metrics:
        val = "nan" if m.val_error is None else f"{m.val_error:.4f}"
        lines.append(
            f"epoch={m.epoch} lr={m.lr:g} train_loss={m.train_loss:.6f} "
            f"val_error={val} seconds={m.seconds:.3f}"
        )
    return lines


def _save_trained(args, model, lines) -> int:
    save_model(model, args.output)
    for line in lines:
        print(line)
    if args.metrics:
        _write_lines(args.metrics, lines)
    print(f"model path={args.output} params={count_parameters(model)}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    train_set, val_set, template = _training_inputs(args, cfg)
    if not val_set:
        print("note: empty validation holdout, reporting training loss only")
    model, metrics = train(template, cfg, train_set, val_set)
    return _save_trained(args, model, _metric_lines(metrics))


def cmd_select(args, cfg: RunConfig) -> int:
    train_set, val_set, template = _training_inputs(args, cfg)
    if not val_set:
        print("note: empty validation holdout, selecting on training loss")
    best_model, report = select_model(template, cfg, train_set, val_set)
    lines = []
    for pt in report.points:
        point = (f"point region_size={pt.region_size} pooling_k={pt.pooling_k} "
                 f"initial_lr={pt.initial_lr:g}")
        if pt.diverged:
            lines.append(f"{point} diverged: {pt.diverged}")
            continue
        score = f"{pt.val_error:.4f}" if pt.val_error is not None else "nan"
        lines.append(f"{point} val_error={score} train_loss={pt.train_loss:.6f}")
    chosen = report.chosen
    lines.append(
        f"selected region_size={chosen.region_size} pooling_k={chosen.pooling_k} "
        f"initial_lr={chosen.initial_lr:g}"
    )
    return _save_trained(args, best_model, lines)


def _heap_temporaries() -> None:
    """Have glibc serve allocations up to 32 MB from its heap, not as fresh mappings.

    Answering documents one by one allocates R x d temporaries for each,
    and training and tv training allocate them per document or per batch.
    Above glibc's default 128 KB threshold each one is mapped, faulted in
    page by page and unmapped again; glibc raises the threshold only after
    a larger mapped block is freed.  These are the values its own rule
    sets after freeing a 32 MB block.  Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@contextmanager
def _test_set(args):
    """The --model container and the --input CSV's documents, prepared as read;
    a non-finite weight they read in the ``with`` body is a DataError naming both files."""
    model = load_model(_need(args.model, "--model path"))
    records = load_csv(_need(args.input, "--input CSV"))
    try:
        yield model, prepare_labeled(model, to_samples(args.input, records, model.n_classes))
    except NonFiniteWeights as exc:
        raise DataError(f"{args.model}: {args.input}: {exc}") from None


def cmd_eval(args, cfg: RunConfig) -> int:
    _output(args.table)
    with _test_set(args) as (model, docs):
        report = evaluate(model, docs)
    print(f"n_docs={report.n_docs}")
    print(f"n_errors={report.n_errors}")
    print(f"error_rate_percent={report.error_rate_percent:.4f}")
    if args.table:
        header = "true\\pred\t" + "\t".join(str(c) for c in range(model.n_classes))
        rows = [
            str(i) + "\t" + "\t".join(str(int(x)) for x in row)
            for i, row in enumerate(report.confusion)
        ]
        _write_lines(args.table, [header, *rows])
    return 0


def cmd_predict(args, cfg: RunConfig) -> int:
    model = load_model(_need(args.model, "--model path"))
    # read as bytes and decoded strictly, so the locale cannot change the answer
    for number, raw in enumerate(sys.stdin.buffer, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"stdin: line {number}: not valid UTF-8") from None
        try:
            answer = predict(model, tokenize(line.rstrip("\n")))
        except NonFiniteWeights as exc:
            raise DataError(f"{args.model}: stdin: line {number}: {exc}") from None
        # flushed per answer, so a client on a pipe need not close stdin first
        print(answer, flush=True)
    return 0


def cmd_bench(args, cfg: RunConfig) -> int:
    if args.model or args.input:
        with _test_set(args) as (model, docs):
            report = time_inference(model, list(docs), repetitions=3)
        print(
            f"timing n_docs={report.n_docs} total_seconds={report.total_seconds:.6f} "
            f"docs_per_second={report.docs_per_second:.1f}"
        )
    pattern = make_bench_pattern(seed=cfg.seed)
    sparse_ratio = vocab_independence_bench(
        cfg.bench_d,
        cfg.bench_p,
        pattern,
        cfg.bench_v_small,
        cfg.bench_v_large,
        repetitions=cfg.bench_repetitions,
        seed=cfg.seed,
    )
    dense_ratio = dense_control_ratio(
        cfg.bench_d,
        cfg.bench_p,
        make_bench_pattern(length=cfg.bench_p + 3, seed=cfg.seed),
        cfg.bench_v_small,
        cfg.bench_v_large,
        repetitions=5,
        seed=cfg.seed,
    )
    print(
        f"independence v_small={cfg.bench_v_small} v_large={cfg.bench_v_large} "
        f"sparse_ratio={sparse_ratio:.3f} dense_control_ratio={dense_ratio:.3f}"
    )
    return 0


def cmd_params(args, cfg: RunConfig) -> int:
    if cfg.n_classes < 1:
        raise UsageError("params needs n_classes in the config")
    base = cfgmod.capped_spec(cfg, cfg.representation, cfg.region_size)
    tv_shapes = [(cfg.tv_dim, spec.input_dim) for spec in cfgmod.parse_tv_specs(cfg)]
    total = parameter_count(cfg.embed_dim, base.input_dim, tv_shapes, cfg.n_classes, cfg.pooling_k)
    print(f"{total:,}")
    return 0


def main(argv=None) -> int:
    _heap_temporaries()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, load_config(args.config, args.set))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the shape it could not allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    # a closed stdout (`swcnn predict ... | head`) ends the process as it
    # ends a Unix filter: by SIGPIPE, with no BrokenPipeError traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
