"""Baseline engine tests under the uniform estimator protocol."""

import numpy as np
import pytest

from repro.baselines import ExactScan, RTree, TreeAgg, UniformAnswerEstimator, VerdictLite
from repro.data import load_dataset
from repro.queries import QueryFunction, WorkloadGenerator


@pytest.fixture(scope="module")
def problem():
    ds = load_dataset("synthetic", n=500, seed=0)
    qf = QueryFunction.axis_range(ds, aggregate="AVG")
    Q = WorkloadGenerator(qf, seed=1).sample(30)
    return qf, Q, qf(Q)


def test_exact_scan_is_ground_truth(problem):
    qf, Q, y = problem
    est = ExactScan().fit(qf, Q, y)
    np.testing.assert_allclose(est.predict(Q), y)
    # The sorted index: X transposed, int64 argsort and sorted keys per
    # attribute, plus the measure copy.
    n, d = qf.dataset.X.shape
    assert est.num_bytes() == (3 * d + 1) * n * 8


def test_rtree_box_query_matches_linear_scan():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 1.0, size=(400, 3))
    tree = RTree(pts, leaf_capacity=16)
    lo = np.array([0.2, 0.1, 0.3])
    hi = np.array([0.7, 0.9, 0.8])
    got = np.sort(tree.query_box(lo, hi))
    want = np.where(np.all((pts >= lo) & (pts < hi), axis=1))[0]
    np.testing.assert_array_equal(got, want)


def test_tree_agg_full_sample_is_exact(problem):
    qf, Q, y = problem
    est = TreeAgg(sample_size=1.0, seed=0).fit(qf, Q, y)
    np.testing.assert_allclose(est.predict(Q), y, rtol=1e-9, atol=1e-9)


def test_tree_agg_subsample_approximates(problem):
    qf, Q, y = problem
    est = TreeAgg(sample_size=0.5, seed=0).fit(qf, Q, y)
    pred = est.predict(Q)
    assert pred.shape == y.shape
    assert np.all(np.isfinite(pred))


def test_verdict_rejects_unsupported_aggregate(problem):
    qf, _, _ = problem
    verdict = VerdictLite(sample_size=0.5, seed=0)
    assert verdict.supports(qf)  # AVG
    assert not verdict.supports(qf.with_aggregate("MEDIAN"))


def test_uniform_estimator_predicts_training_mean(problem):
    qf, Q, y = problem
    est = UniformAnswerEstimator().fit(qf, Q, y)
    np.testing.assert_allclose(est.predict(Q), np.full(Q.shape[0], y.mean()))
    assert est.predict_one(Q[0]) == pytest.approx(y.mean())
    assert est.num_bytes() == 8
