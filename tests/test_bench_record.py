"""scripts/bench_record.py: what it records of benchmark/run.py's output.

The outputs below were captured from ``benchmark/run.py --workload
long-pooled --seconds 1`` at seed 29301, which reads correct, and at seed
23, whose learning check fails; no benchmark runs here.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from bench_record import count_wins, parse_run, summarize  # noqa: E402

CORRECT = """\
env {"cores": 2, "blas": "scipy-openblas 0.3.31.188.0", "blas_threads": 1, "numpy": "2.4.6", "python": "3.11.7"}
rounds 1 measured_s 23.6
setup_s 0.684814 s
tv_train_docs_per_s 40.4331 docs/s
tv_train_peak_rss_mb 75.1903 MB
train_docs_per_s 204.53 docs/s
train_peak_rss_mb 127.775 MB
model_mb 28.6078 MB
predict_start_s 0.212541 s
predict_docs_per_s 403.791 docs/s
predict_peak_rss_mb 75.1903 MB
operations attempted=31 failed=0
{"correct": true, "attempted": 31, "failed": 0, "metrics": {"setup_s": {"value": 0.6848142899980303, "unit": "s"}, "tv_train_docs_per_s": {"value": 40.433101375695855, "unit": "docs/s"}, "tv_train_peak_rss_mb": {"value": 75.190272, "unit": "MB"}, "train_docs_per_s": {"value": 204.5301797437198, "unit": "docs/s"}, "train_peak_rss_mb": {"value": 127.77472, "unit": "MB"}, "model_mb": {"value": 28.607847, "unit": "MB"}, "predict_start_s": {"value": 0.21254149599553784, "unit": "s"}, "predict_docs_per_s": {"value": 403.79058356344393, "unit": "docs/s"}, "predict_peak_rss_mb": {"value": 75.190272, "unit": "MB"}}}
"""

INCORRECT = """\
env {"cores": 2, "blas": "scipy-openblas 0.3.31.188.0", "blas_threads": 1, "numpy": "2.4.6", "python": "3.11.7"}
rounds 1 measured_s 23.3
setup_s 0.620614 s
tv_train_docs_per_s 36.0058 docs/s
tv_train_peak_rss_mb 75.3623 MB
train_docs_per_s 210.711 docs/s
train_peak_rss_mb 128.434 MB
model_mb 28.608 MB
predict_start_s 0.204474 s
predict_docs_per_s 443.254 docs/s
predict_peak_rss_mb 75.3623 MB
check failed: eval: error [12.8333] percent above the ceiling 12.56 of a learnt rule
operations attempted=31 failed=0
{"correct": false, "attempted": 31, "failed": 0, "metrics": {"setup_s": {"value": 0.6206137349945493, "unit": "s"}, "tv_train_docs_per_s": {"value": 36.00575387786979, "unit": "docs/s"}, "tv_train_peak_rss_mb": {"value": 75.362304, "unit": "MB"}, "train_docs_per_s": {"value": 210.7113800211107, "unit": "docs/s"}, "train_peak_rss_mb": {"value": 128.434176, "unit": "MB"}, "model_mb": {"value": 28.607967, "unit": "MB"}, "predict_start_s": {"value": 0.20447377999516902, "unit": "s"}, "predict_docs_per_s": {"value": 443.2535711601351, "unit": "docs/s"}, "predict_peak_rss_mb": {"value": 75.362304, "unit": "MB"}}}
"""

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def last_json(output):
    return json.loads(output.splitlines()[-1])


def test_the_env_record_and_the_final_object_are_kept_as_printed():
    run = parse_run(CORRECT)
    assert run["env"] == json.loads(CORRECT.splitlines()[0][len("env "):])
    assert run["result"] == last_json(CORRECT)
    assert run["result"]["correct"] is True
    assert {m["name"] for m in END_TO_END} <= set(run["result"]["metrics"])


def test_an_incorrect_run_is_recorded_unchanged():
    run = parse_run(INCORRECT)
    assert run["result"] == last_json(INCORRECT)
    assert run["result"]["correct"] is False and run["result"]["failed"] == 0
    # kept in the summary: counted as a run, not as a correct one, and its
    # metrics enter the medians
    summary = summarize([{"seed": 23, "side": "parent", **run}])["parent"]
    assert (summary["runs"], summary["correct"], summary["failed"]) == (1, 0, 0)
    setup = run["result"]["metrics"]["setup_s"]["value"]
    assert summary["metrics"]["setup_s"] == {"median": setup, "q1": setup, "q3": setup, "n": 1}


def test_an_output_without_its_final_object_is_a_run_without_metrics():
    run = parse_run(CORRECT.rsplit("\n", 2)[0])  # cut before the final object
    assert run["result"] is None and run["env"] is not None
    summary = summarize([{"seed": 1, "side": "change", **run}])["change"]
    assert (summary["runs"], summary["correct"], summary["metrics"]) == (1, 0, {})


def test_medians_quartiles_and_wins_over_pairs():
    good, bad = parse_run(CORRECT), parse_run(INCORRECT)
    runs = [
        {"seed": 1, "side": "parent", **good}, {"seed": 1, "side": "change", **bad},
        {"seed": 2, "side": "change", **good}, {"seed": 2, "side": "parent", **bad},
        {"seed": 3, "side": "parent", **good}, {"seed": 3, "side": "change", **good},
    ]
    summary = summarize(runs)
    a = good["result"]["metrics"]["train_docs_per_s"]["value"]
    b = bad["result"]["metrics"]["train_docs_per_s"]["value"]
    low, high = sorted((a, b))
    # parent: a, b, a; change: b, a, a
    for side in ("parent", "change"):
        got = summary[side]["metrics"]["train_docs_per_s"]
        assert got["n"] == 3 and got["median"] == a
        assert got["q1"] == (low + a) / 2 and got["q3"] == (high + a) / 2
        assert summary[side]["correct"] == 2 and summary[side]["attempted"] == 93
    wins = count_wins(runs, END_TO_END)
    assert set(wins) == {m["name"] for m in END_TO_END}
    # seed 3 ties; of seeds 1 and 2 the change reads better in exactly one
    # wherever the two outputs differ
    for metric in END_TO_END:
        name = metric["name"]
        differ = (good["result"]["metrics"][name]["value"]
                  != bad["result"]["metrics"][name]["value"])
        assert wins[name] == (1 if differ else 0)
