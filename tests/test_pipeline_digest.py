"""scripts/pipeline_digest.py: the scripted pipeline gives the same digests twice."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pipeline_digest.py"
sys.path.insert(0, str(SCRIPT.parent))

from pipeline_digest import REJECTED  # noqa: E402

NAMES = [
    "vocab-word.stdout", "vocab-ngram123.stdout", "tv-train-bow-word.stdout",
    "tv-train-bow-ngram123.stdout", "train.stdout", "eval.stdout", "predict.stdout",
    "select.stdout", "params.stdout", "word.vocab", "ngram.vocab", "tv-word.swcn",
    "tv-ngram.swcn", "model.swcn", "metrics.txt", "table.tsv", "selected.swcn",
    *(f"params-{name}-{via}.rejected" for name in REJECTED for via in ("file", "set")),
]


def digests(work):
    child = subprocess.run([sys.executable, str(SCRIPT), "--seed", "5", "--work", str(work)],
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()


def test_two_runs_print_identical_digests(tmp_path):
    first = digests(tmp_path / "a")
    assert [line.split("  ", 1)[1] for line in first] == NAMES
    assert all(len(line.split("  ", 1)[0]) == 64 for line in first)
    assert digests(tmp_path / "b") == first
    # the metrics file holds seconds, which the digest strips
    assert "seconds=" in (tmp_path / "a" / "metrics.txt").read_text()
