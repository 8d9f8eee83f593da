"""Run configuration: one key=value file drives every CLI stage.

Lines are ``key=value``; blank lines and lines starting with ``#`` are
ignored.  Unknown keys are rejected, and numbers must be finite.  No key
names a file: every file a stage reads or writes is named by its CLI
flag.  Command-line ``--set key=value`` overrides take precedence over
the file.  The ``profile`` key encodes the pooling rule (sentiment tasks
fix k=1, topic tasks search {1, 10}); ``small_data=true`` switches the
epoch schedule from 30/24 to 100/80 unless ``epochs``/``decay_epoch``
are set explicitly (0 means "use the profile default").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from swcnn.data import read_lines
from swcnn.errors import UsageError
from swcnn.evalbench import BENCH_CODES
from swcnn.textpipe import BOW_NGRAM, BOW_WORD, CONCAT, NGRAM123, WORD, RegionSpec
from swcnn.train import SelectionGrid, TrainConfig
from swcnn.tv import TvTrainConfig

PROFILES = ("topic", "sentiment")


@dataclass
class RunConfig:
    seed: int = 1
    profile: str = "topic"
    small_data: bool = False
    n_classes: int = 0  # 0 = infer from the training labels

    word_vocab_cap: int = 30_000
    ngram_vocab_cap: int = 200_000

    embed_dim: int = 500
    representation: str = CONCAT
    region_size: int = 3
    pooling_k: int = 1

    initial_lr: float = 0.1
    epochs: int = 0
    decay_epoch: int = 0
    decay_factor: float = 0.1
    momentum: float = 0.9
    batch_size: int = 100
    init_std: float = 0.01
    dropout: float = 0.5
    top_l2: float = 0.0001
    holdout: int = -1  # -1 = auto: 10000 if >100K records else 10%

    grid_region_sizes: tuple[int, ...] = (3, 5)
    grid_initial_lrs: tuple[float, ...] = (0.25, 0.1, 0.05, 0.01)

    tv_dim: int = 300
    tv_epochs: int = 10
    tv_lr: float = 0.1
    tv_negatives: int = 50
    tv_batch_size: int = 100
    tv_region_size: int = 5
    tv_representation: str = BOW_WORD
    tv_specs: str = ""  # for `params`: e.g. "bow:5,bow:9,ngram:5,ngram:9"

    bench_v_small: int = 1_000
    bench_v_large: int = 100_000
    bench_d: int = 500
    bench_p: int = 3
    bench_repetitions: int = 100


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _coerce(field, raw: str):
    # field types arrive as strings under `from __future__ import annotations`
    name = field.name
    text = raw.strip()
    hint = field.type
    if hint in ("int",):
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"config key {name} expects an integer, got {raw!r}") from None
    if hint in ("float",):
        try:
            value = float(text)
        except ValueError:
            raise UsageError(f"config key {name} expects a number, got {raw!r}") from None
        _require_finite(name, raw, [value])
        return value
    if hint in ("bool",):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {name} expects true/false, got {raw!r}")
    if hint.startswith("tuple[int"):
        try:
            return tuple(int(part) for part in text.split(",") if part.strip())
        except ValueError:
            raise UsageError(f"config key {name} expects comma-separated integers") from None
    if hint.startswith("tuple[float"):
        try:
            values = tuple(float(part) for part in text.split(",") if part.strip())
        except ValueError:
            raise UsageError(f"config key {name} expects comma-separated numbers") from None
        _require_finite(name, raw, values)
        return values
    return text


def _require_finite(name: str, raw: str, values) -> None:
    # a NaN or infinite rate trains to completion and writes weights that
    # load_model then rejects
    if not all(map(math.isfinite, values)):
        raise UsageError(f"invalid configuration: {name} must be finite, got {raw!r}")


def apply_setting(cfg: RunConfig, key: str, raw: str) -> None:
    if key not in _FIELDS:
        raise UsageError(f"unknown config key {key!r}")
    setattr(cfg, key, _coerce(_FIELDS[key], raw))


def parse_config(path) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(read_lines(path, "config"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}: line {lineno}: expected key=value")
        try:
            apply_setting(cfg, key.strip(), value)
        except UsageError as exc:
            raise UsageError(f"{path}: line {lineno}: {exc}") from None
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Reject a configuration that a stage would refuse, before any stage runs.

    The range rules live in the objects the stages build from the
    configuration, so they are checked by building those objects here.
    Vocabulary sizes are not known yet and do not enter the region specs.
    """
    if cfg.profile not in PROFILES:
        raise UsageError(f"profile must be one of {PROFILES}, got {cfg.profile!r}")
    if cfg.tv_representation not in (BOW_WORD, BOW_NGRAM):
        raise UsageError(
            f"tv_representation must be {BOW_WORD} or {BOW_NGRAM}, got {cfg.tv_representation!r}"
        )
    for key in ("seed", "n_classes"):
        if getattr(cfg, key) < 0:
            raise UsageError(f"invalid configuration: {key} must be >= 0")
    for key in ("embed_dim", "pooling_k", "tv_dim", "word_vocab_cap", "ngram_vocab_cap",
                "bench_d", "bench_p", "bench_repetitions"):
        if getattr(cfg, key) < 1:
            raise UsageError(f"invalid configuration: {key} must be >= 1")
    for key in ("bench_v_small", "bench_v_large"):
        if getattr(cfg, key) < BENCH_CODES:
            raise UsageError(f"invalid configuration: {key} must be >= {BENCH_CODES}, "
                             "the bench pattern's distinct codes")
    try:
        train_config(cfg)
        tv_config(cfg)
        selection_grid(cfg)
        RegionSpec(cfg.tv_representation, cfg.tv_region_size, vocab_size=1)
        for region_size in (cfg.region_size, *cfg.grid_region_sizes):
            base = RegionSpec(cfg.representation, region_size, vocab_size=1)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from None
    if base.vocab_kind != WORD:
        raise UsageError(
            f"invalid configuration: representation {cfg.representation} reads a "
            f"{base.vocab_kind} vocabulary, but the base view reads the word vocabulary"
        )


def resolved_epochs(cfg: RunConfig) -> int:
    return cfg.epochs or (100 if cfg.small_data else 30)


def resolved_decay_epoch(cfg: RunConfig) -> int:
    return cfg.decay_epoch or (80 if cfg.small_data else 24)


def train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        initial_lr=cfg.initial_lr,
        epochs=resolved_epochs(cfg),
        decay_epoch=resolved_decay_epoch(cfg),
        decay_factor=cfg.decay_factor,
        momentum=cfg.momentum,
        batch_size=cfg.batch_size,
        init_std=cfg.init_std,
        dropout=cfg.dropout,
        top_l2=cfg.top_l2,
        seed=cfg.seed,
    )


def selection_grid(cfg: RunConfig) -> SelectionGrid:
    pooling_ks = (1,) if cfg.profile == "sentiment" else (1, 10)
    return SelectionGrid(
        region_sizes=cfg.grid_region_sizes,
        pooling_ks=pooling_ks,
        initial_lrs=cfg.grid_initial_lrs,
    )


def tv_config(cfg: RunConfig) -> TvTrainConfig:
    return TvTrainConfig(
        seed=cfg.seed,
        epochs=cfg.tv_epochs,
        lr=cfg.tv_lr,
        negatives=cfg.tv_negatives,
        momentum=cfg.momentum,
        batch_size=cfg.tv_batch_size,
        init_std=cfg.init_std,
    )


def capped_spec(cfg: RunConfig, representation: str, region_size: int) -> RegionSpec:
    """A view whose vocabulary is as large as its kind's configured cap."""
    spec = RegionSpec(representation, region_size, vocab_size=1)
    return replace(spec, vocab_size=vocab_cap(cfg, spec.vocab_kind))


def vocab_cap(cfg: RunConfig, kind: str) -> int:
    """The configured size cap of a vocabulary kind."""
    return cfg.ngram_vocab_cap if kind == NGRAM123 else cfg.word_vocab_cap


def parse_tv_specs(cfg: RunConfig) -> list[RegionSpec]:
    """The tv views named by the tv_specs key, at their vocabulary caps."""
    out = []
    if not cfg.tv_specs:
        return out
    for part in cfg.tv_specs.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, size = part.partition(":")
        representation = {"bow": BOW_WORD, "ngram": BOW_NGRAM}.get(name.strip())
        if representation is None or not sep:
            raise UsageError(
                f"tv_specs entries look like bow:5 or ngram:9, got {part!r}"
            )
        try:
            out.append(capped_spec(cfg, representation, int(size)))
        except ValueError:
            raise UsageError(f"bad region size in tv_specs entry {part!r}") from None
    return out
