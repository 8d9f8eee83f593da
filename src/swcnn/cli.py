"""Command-line interface orchestrating the pipeline end to end.

Subcommands: vocab, tv-train, train, select, eval, predict, bench,
params.  Every subcommand reads an optional key=value config file plus
repeatable ``--set key=value`` overrides; explicit flags beat config
values.  Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import sys

from swcnn import config as cfgmod
from swcnn import model as modelmod
from swcnn.config import RunConfig, apply_setting, parse_config, validate_config
from swcnn.data import atomic_write, load_csv, load_vocab, n_classes_of, save_vocab, to_samples
from swcnn.errors import DataError, NumericError, UsageError
from swcnn.evalbench import (
    dense_control_ratio,
    evaluate,
    make_bench_pattern,
    time_inference,
    vocab_independence_bench,
)
from swcnn.model import count_parameters, parameter_count, predict, prepare_labeled
from swcnn.serialize import load_embedding, load_model, save_embedding, save_model
from swcnn.textpipe import (
    BOW_NGRAM,
    BOW_WORD,
    NGRAM123,
    WORD,
    RegionSpec,
    build_vocab,
    tokenize,
)
from swcnn.train import ModelTemplate, default_holdout, holdout_split, select_model, train
from swcnn.tv import train_tv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="swcnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        return p

    p = add("vocab", "build a capped frequency-ranked vocabulary from a CSV")
    p.add_argument("--input", help="training CSV")
    p.add_argument("--output", help="vocabulary file to write")
    p.add_argument("--kind", choices=[WORD, NGRAM123], default=WORD)
    p.add_argument("--cap", type=int, help="vocabulary size cap")

    p = add("tv-train", "train a two-view region embedding")
    p.add_argument("--input", help="training CSV (labels are ignored)")
    p.add_argument("--word-vocab", dest="word_vocab", help="word vocabulary file")
    p.add_argument(
        "--input-vocab",
        dest="input_vocab",
        help="vocabulary of the embedding's own view (defaults to the word vocabulary)",
    )
    p.add_argument("--output", help="embedding container to write")

    for name in ("train", "select"):
        p = add(name, "train one model" if name == "train" else "grid-search region size, pooling and learning rate")
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

    p = add("eval", "error rate of a trained model on a labeled CSV")
    p.add_argument("--model", help="model container")
    p.add_argument("--input", help="test CSV")
    p.add_argument("--table", help="optional confusion-table TSV to write")

    p = add("predict", "read one document per line on stdin, print class indices")
    p.add_argument("--model", help="model container")

    p = add("bench", "inference timing and the vocabulary-independence measurement")
    p.add_argument("--model", help="model container (timing)")
    p.add_argument("--input", help="test CSV (timing)")

    add("params", "parameter count for the configured architecture")
    return parser


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        apply_setting(cfg, key.strip(), value)
    validate_config(cfg)
    return cfg


def _need(flag_value, cfg_value, what):
    value = flag_value or cfg_value
    if not value:
        raise UsageError(f"missing {what}")
    return value


def _load_word_vocab(path):
    vocab = load_vocab(path)
    if vocab.kind != WORD:
        raise DataError(f"{path}: expected a word vocabulary, found kind={vocab.kind}")
    return vocab


def cmd_vocab(args, cfg: RunConfig) -> int:
    records = load_csv(_need(args.input, cfg.train_csv, "--input CSV"))
    corpus = [tokenize(r.text) for r in records]
    cap = args.cap or (cfg.word_vocab_cap if args.kind == WORD else cfg.ngram_vocab_cap)
    vocab = build_vocab(corpus, args.kind, cap)
    out = _need(args.output, cfg.word_vocab, "--output path")
    save_vocab(vocab, out)
    print(f"vocab kind={vocab.kind} size={len(vocab)} path={out}")
    return 0


def cmd_tv_train(args, cfg: RunConfig) -> int:
    records = load_csv(_need(args.input, cfg.train_csv, "--input CSV"))
    corpus = [tokenize(r.text) for r in records]
    word_vocab = _load_word_vocab(_need(args.word_vocab, cfg.word_vocab, "--word-vocab"))
    input_vocab_path = args.input_vocab or cfg.tv_vocab
    if cfg.tv_representation == BOW_WORD:
        input_vocab = load_vocab(input_vocab_path) if input_vocab_path else word_vocab
        if input_vocab.kind != WORD:
            raise DataError("bow-word embeddings need a word vocabulary")
    else:
        if not input_vocab_path:
            raise UsageError("bow-ngram123 embeddings need --input-vocab")
        input_vocab = load_vocab(input_vocab_path)
        if input_vocab.kind != NGRAM123:
            raise DataError("bow-ngram123 embeddings need an ngram123 vocabulary")
    spec = RegionSpec(
        representation=cfg.tv_representation,
        region_size=cfg.tv_region_size,
        vocab_size=len(input_vocab),
    )
    embedding, losses = train_tv(
        corpus, spec, input_vocab, word_vocab, cfg.tv_dim, cfgmod.tv_config(cfg)
    )
    out = _need(args.output, cfg.tv_out, "--output path")
    save_embedding(embedding, out)
    for epoch, loss in enumerate(losses, start=1):
        print(f"epoch={epoch} tv_loss={loss:.6f}")
    print(f"embedding dim={embedding.dim} path={out}")
    return 0


def _training_inputs(args, cfg: RunConfig):
    records = load_csv(_need(args.input, cfg.train_csv, "--input CSV"))
    samples = to_samples(records)
    n_classes = cfg.n_classes or n_classes_of(records)
    word_vocab = _load_word_vocab(_need(args.word_vocab, cfg.word_vocab, "--word-vocab"))
    tv_paths = list(args.tv) or [p for p in cfg.embeddings.split(",") if p.strip()]
    tvs = tuple(load_embedding(p.strip()) for p in tv_paths)
    template = ModelTemplate(
        base_vocab=word_vocab,
        n_classes=n_classes,
        region_size=cfg.region_size,
        representation=cfg.representation,
        embed_dim=cfg.embed_dim,
        pooling_k=cfg.pooling_k,
        tv_embeddings=tvs,
    )
    n_holdout = cfg.holdout if cfg.holdout >= 0 else default_holdout(len(samples))
    return samples, template, n_holdout


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


def cmd_train(args, cfg: RunConfig) -> int:
    samples, template, n_holdout = _training_inputs(args, cfg)
    train_set, val_set = holdout_split(samples, n_holdout, cfg.seed)
    if not val_set:
        print("note: empty validation holdout, reporting training loss only")
    model, metrics = train(template, cfgmod.train_config(cfg), train_set, val_set)
    out = _need(args.output, cfg.model_path, "--output path")
    save_model(model, out)
    lines = _metric_lines(metrics)
    for line in lines:
        print(line)
    metrics_path = args.metrics or cfg.metrics_path
    if metrics_path:
        _write_lines(metrics_path, lines)
    print(f"model path={out} params={count_parameters(model)}")
    return 0


def cmd_select(args, cfg: RunConfig) -> int:
    samples, template, n_holdout = _training_inputs(args, cfg)
    best_model, report = select_model(
        cfgmod.selection_grid(cfg), template, cfgmod.train_config(cfg), samples, n_holdout
    )
    if not report.used_validation:
        print("note: empty validation holdout, selecting on training loss")
    lines = []
    for pt in report.points:
        score = f"{pt.val_error:.4f}" if pt.val_error is not None else "nan"
        lines.append(
            f"point region_size={pt.region_size} pooling_k={pt.pooling_k} "
            f"initial_lr={pt.initial_lr:g} val_error={score} train_loss={pt.train_loss:.6f}"
        )
    chosen = report.chosen
    lines.append(
        f"selected region_size={chosen.region_size} pooling_k={chosen.pooling_k} "
        f"initial_lr={chosen.initial_lr:g}"
    )
    out = _need(args.output, cfg.model_path, "--output path")
    save_model(best_model, out)
    for line in lines:
        print(line)
    metrics_path = args.metrics or cfg.metrics_path
    if metrics_path:
        _write_lines(metrics_path, lines)
    print(f"model path={out} params={count_parameters(best_model)}")
    return 0


def cmd_eval(args, cfg: RunConfig) -> int:
    model = load_model(_need(args.model, cfg.model_path, "--model path"))
    records = load_csv(_need(args.input, cfg.test_csv, "--input CSV"))
    report = evaluate(model, prepare_labeled(model, to_samples(records)))
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
    model = load_model(_need(args.model, cfg.model_path, "--model path"))
    views = model.views
    for line in sys.stdin:
        # called through the module, so benchmark/tracer.py times it as in train and eval
        doc = modelmod.prepare_document(views, tokenize(line.rstrip("\n")))
        # flushed per answer, so a client on a pipe need not close stdin first
        print(predict(model, doc), flush=True)
    return 0


def cmd_bench(args, cfg: RunConfig) -> int:
    if args.model or args.input:
        model = load_model(_need(args.model, cfg.model_path, "--model path"))
        records = load_csv(_need(args.input, cfg.test_csv, "--input CSV"))
        docs = list(prepare_labeled(model, to_samples(records)))
        report = time_inference(model, docs, repetitions=3)
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
    caps = {WORD: cfg.word_vocab_cap, NGRAM123: cfg.ngram_vocab_cap}
    base_vocab = caps[NGRAM123 if cfg.representation == BOW_NGRAM else WORD]
    base = RegionSpec(cfg.representation, cfg.region_size, base_vocab)
    tv_shapes = [(cfg.tv_dim, caps[kind]) for kind, _ in cfgmod.parse_tv_specs(cfg)]
    total = parameter_count(cfg.embed_dim, base.input_dim, tv_shapes, cfg.n_classes, cfg.pooling_k)
    print(f"{total:,}")
    return 0


_COMMANDS = {
    "vocab": cmd_vocab,
    "tv-train": cmd_tv_train,
    "train": cmd_train,
    "select": cmd_select,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "bench": cmd_bench,
    "params": cmd_params,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
