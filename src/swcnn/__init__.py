"""Shallow word-level CNN text categorizer.

A from-scratch implementation built around sparse region embeddings:
documents are swept with a fixed-size text region, each region is mapped
to a dense feature vector by an affine map over a sparse one-hot/bow
representation, region vectors are max-pooled into a document vector, and
a linear layer produces class scores.  Optional "two-view" (tv) region
embeddings, pre-trained to predict adjacent regions, can be fused into
the base model as extra frozen inputs.

Names are imported from their modules; the package re-exports none.
"""
