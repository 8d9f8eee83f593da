"""Shallow word-level CNN text categorizer.

A from-scratch implementation built around sparse region embeddings:
documents are swept with a fixed-size text region, each region is mapped
to a dense feature vector by an affine map over a sparse one-hot/bow
representation, region vectors are max-pooled into a document vector, and
a linear layer produces class scores.  Optional "two-view" (tv) region
embeddings, pre-trained to predict adjacent regions, can be fused into
the base model as extra frozen inputs.
"""

from swcnn.textpipe import (
    OOV,
    RegionSpec,
    Vocabulary,
    build_vocab,
    encode,
    tokenize,
)
from swcnn.model import (
    RegionEmbedding,
    ShallowModel,
    TvEmbedding,
    count_parameters,
    forward,
    backward,
    predict,
)
# the function ``train`` is not re-exported: ``swcnn.train`` is its module
from swcnn.train import TrainConfig, SelectionGrid, ModelTemplate, select_model
from swcnn.tv import TvTrainConfig, train_tv
from swcnn.evalbench import evaluate, time_inference, vocab_independence_bench

__all__ = [
    "OOV",
    "RegionSpec",
    "Vocabulary",
    "build_vocab",
    "encode",
    "tokenize",
    "RegionEmbedding",
    "ShallowModel",
    "TvEmbedding",
    "count_parameters",
    "forward",
    "backward",
    "predict",
    "TrainConfig",
    "SelectionGrid",
    "ModelTemplate",
    "select_model",
    "TvTrainConfig",
    "train_tv",
    "evaluate",
    "time_inference",
    "vocab_independence_bench",
]
