"""Run one ``swcnn`` subcommand with spans around the calls into its modules.

Usage: python3 tracer.py OUT.json ARG...   (ARG... as for ``python3 -m swcnn``)

The program is not edited.  Each traced function is replaced, in the
namespace where its caller looks the name up, by a wrapper that records a
span.  A span's self time is its duration minus the spans it encloses;
work the tracer itself does inside a span (counting touched columns, file
sizes) is subtracted from every enclosing span.  On exit the totals are
written to OUT.json:

    {"sum": {metric: number}, "mean": {metric: [samples]},
     "value": {metric: number}, "startup_s": seconds}

``startup_s`` is the time from the launch the parent recorded in the
environment variable PERFBENCH_LAUNCH (``time.time()`` just before it
started this process) to the call of ``cli.main``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from time import perf_counter

import swcnn.cli  # noqa: F401  (imports every module the commands use)

# swcnn/__init__.py re-exports the function ``train`` under its submodule's
# name, so ``import swcnn.train`` yields the function: go through sys.modules.
cli, data, textpipe, model, kernels, train, tv, evalbench = (
    sys.modules[f"swcnn.{name}"]
    for name in ("cli", "data", "textpipe", "model", "kernels", "train", "tv", "evalbench")
)


class Tracer:
    def __init__(self):
        self.sums = defaultdict(float)
        self.means = defaultdict(list)
        self.values = {}
        self.stack: list[float] = []  # per open span: time of its child spans
        self.overhead = 0.0  # tracer work done inside spans so far

    def wrap(self, namespace, attr, metric, self_time=False, after=None):
        """Replace ``namespace.attr`` by a wrapper timing every call.

        The span adds its duration to ``metric`` (its self time when
        ``self_time``); ``after(result, args)`` records counts and its cost
        is charged to the tracer, not to the enclosing spans.
        """
        fn = getattr(namespace, attr)

        def traced(*args, **kwargs):
            overhead0 = self.overhead
            self.stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - started - (self.overhead - overhead0)
                children = self.stack.pop()
                self.sums[metric] += duration - children if self_time else duration
                if self.stack:
                    self.stack[-1] += duration
            if after is not None:
                started = perf_counter()
                after(result, args)
                self.overhead += perf_counter() - started
            return result

        setattr(namespace, attr, traced)


def _file_bytes(tracer, path):
    tracer.sums["serialize.bytes"] += os.path.getsize(path)


def install(tracer: Tracer) -> None:
    w = tracer.wrap
    sums, means, values = tracer.sums, tracer.means, tracer.values

    w(cli, "load_csv", "data.load_csv_s")
    w(cli, "build_vocab", "textpipe.build_vocab_s")
    for ns in (cli, data):
        w(ns, "tokenize", "textpipe.tokenize_s")
    for ns in (model, tv):
        w(ns, "encode", "textpipe.encode_s")

    def count_regions(result, args):
        sums["textpipe.region_vectors"] += 1

    w(tv, "region_vector", "textpipe.region_vector_s", after=count_regions)

    def count_slots(result, args):
        sums["model.slots"] += sum(len(view.slots) for view in result.views)

    for ns in (model, train, evalbench):
        w(ns, "prepare_document", "model.prepare_s", after=count_slots)

    def count_rows(result, args):
        sums["model.gathered_rows"] += sum(len(rows) for rows, _ in args[1].slots)

    w(model, "embed_regions", "model.embed_regions_s", after=count_rows)
    w(model, "max_pool", "model.max_pool_s")
    for ns in (model, train, evalbench):
        w(ns, "forward", "model.forward_self_s", self_time=True)
    w(train, "backward", "model.backward_self_s", self_time=True)
    w(model, "_scatter_embedding_grad", "model.scatter_grad_s")
    w(train, "softmax_xent", "kernels.softmax_xent_s")

    def count_affine(result, args):
        sums["kernels.sparse_affine_calls"] += 1

    w(tv, "sparse_affine", "kernels.sparse_affine_s", after=count_affine)

    # sgd_momentum_step reads w, g and v, writes v twice and w once, and
    # makes one temporary lr*g: ten passes over each parameter's bytes.
    def train_step(result, args):
        params, grads = args[0], args[1]
        sums["train.optimizer_mb"] += 10 * sum(p.nbytes for p in params) / 1e6
        base = grads[0]
        means["train.touched_col_frac"].append(float(base.any(axis=0).mean()))

    def tv_step(result, args):
        head = args[1][2]  # (words, tv_dim) gradient of the prediction head
        means["tv.touched_row_frac"].append(float(head.any(axis=1).mean()))

    w(train, "sgd_momentum_step", "train.optimizer_s", after=train_step)
    w(tv, "sgd_momentum_step", "tv.optimizer_s", after=tv_step)
    w(train, "init_model", "train.init_s")
    w(cli, "train", "train.loop_self_s", self_time=True)
    w(train, "_error_percent", "train.validate_s")

    def count_examples(result, args):
        sums["tv.examples"] += len(result)

    w(tv, "make_tv_examples", "tv.make_examples_s", after=count_examples)
    w(tv, "sample_negatives", "tv.negatives_s")
    w(cli, "train_tv", "tv.loop_self_s", self_time=True)

    w(cli, "save_model", "serialize.save_s", after=lambda r, a: _file_bytes(tracer, a[1]))
    w(cli, "load_model", "serialize.load_s", after=lambda r, a: _file_bytes(tracer, a[0]))

    def keep(metric):
        def record(result, args):
            values[metric] = float(result)

        return record

    w(cli, "vocab_independence_bench", "evalbench.independence_s",
      after=keep("evalbench.infer_vocab_ratio"))
    w(cli, "dense_control_ratio", "evalbench.dense_control_s",
      after=keep("evalbench.dense_control_ratio"))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    startup = time.time() - float(os.environ["PERFBENCH_LAUNCH"])
    try:
        code = cli.main(argv)
    finally:
        record = {
            "sum": dict(tracer.sums),
            "mean": dict(tracer.means),
            "value": tracer.values,
            "startup_s": startup,
        }
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump(record, out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
