import math

import numpy as np
import pytest

from swcnn.kernels import softmax_xent, sparse_affine
from swcnn.textpipe import SparseRegionVector


def sparse_vec(dim, pairs):
    idx = np.array([i for i, _ in pairs], dtype=np.int64)
    val = np.array([v for _, v in pairs], dtype=np.float64)
    return SparseRegionVector(dim=dim, indices=idx, values=val)


def dense_oracle(W, b, x):
    xd = np.zeros(x.dim)
    xd[x.indices] = x.values
    return W @ xd + b


def random_sparse(rng, dim, max_nnz):
    nnz = int(rng.integers(0, max_nnz + 1))
    idx = np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64)
    vals = rng.uniform(0.5, 3.0, size=nnz)
    return SparseRegionVector(dim=dim, indices=idx, values=vals)


class TestSparseAffine:
    def test_zero_weights(self):
        x = sparse_vec(3, [(1, 2.0)])
        out = sparse_affine(np.zeros((2, 3)), np.zeros(2), x)
        assert np.array_equal(out, np.zeros(2))

    def test_two_nonzeros(self):
        W = np.array([[1.0, 2, 3, 4], [5, 6, 7, 8]])
        b = np.array([0.5, -0.5])
        out = sparse_affine(W, b, sparse_vec(4, [(0, 1.0), (3, 1.0)]))
        assert np.allclose(out, [5.5, 12.5])

    def test_scaled_column(self):
        W = np.array([[1.0, 2, 3, 4], [5, 6, 7, 8]])
        b = np.array([0.5, -0.5])
        out = sparse_affine(W, b, sparse_vec(4, [(1, 2.0)]))
        assert np.allclose(out, [4.5, 11.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sparse_affine(np.zeros((2, 3)), np.zeros(2), sparse_vec(4, [(0, 1.0)]))
        with pytest.raises(ValueError):
            sparse_affine(np.zeros((2, 3)), np.zeros(3), sparse_vec(3, [(0, 1.0)]))

    def test_matches_dense_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            d = int(rng.integers(1, 8))
            n = int(rng.integers(1, 65))
            W = rng.normal(size=(d, n))
            b = rng.normal(size=d)
            x = random_sparse(rng, n, min(n, 6))
            got = sparse_affine(W, b, x)
            assert np.allclose(got, dense_oracle(W, b, x), rtol=1e-6, atol=1e-9)


class TestSoftmaxXent:
    def test_symmetric_two_class(self):
        loss, probs, _ = softmax_xent(np.zeros(2), 0)
        assert np.allclose(probs, [0.5, 0.5])
        assert math.isclose(loss, math.log(2))

    def test_uniform_logits_give_log_c(self):
        for c in (2, 3, 7):
            loss, _, _ = softmax_xent(np.full(c, 1.7), 0)
            assert math.isclose(loss, math.log(c))

    def test_direct_evaluation(self):
        loss, probs, _ = softmax_xent(np.array([math.log(2), 0.0]), 0)
        assert np.allclose(probs, [2 / 3, 1 / 3])
        assert math.isclose(loss, math.log(1.5))

    def test_probs_normalized_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            logits = rng.normal(scale=30, size=int(rng.integers(2, 9)))
            _, probs, _ = softmax_xent(logits, 0)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all((probs >= 0) & (probs <= 1))

    def test_extreme_logits_stay_finite(self):
        loss, probs, grad = softmax_xent(np.array([1e4, 0.0]), 1)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        step = 1e-5
        for _ in range(30):
            logits = rng.normal(size=4)
            true = int(rng.integers(4))
            _, _, grad = softmax_xent(logits, true)
            for i in range(4):
                bumped = logits.copy()
                bumped[i] += step
                up, _, _ = softmax_xent(bumped, true)
                bumped[i] -= 2 * step
                down, _, _ = softmax_xent(bumped, true)
                numeric = (up - down) / (2 * step)
                assert abs(numeric - grad[i]) <= 1e-4 * max(1.0, abs(numeric))

    def test_bad_class(self):
        with pytest.raises(ValueError):
            softmax_xent(np.zeros(2), 2)
