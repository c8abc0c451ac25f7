"""Exact-executor tests: the sorted-index engine must match a naive loop
and the former blocked-gemm evaluator, kept here as a reference oracle."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.queries import AxisRangePredicate, QueryFunction, WorkloadGenerator
from repro.queries.aggregates import get_aggregate
from repro.queries.executor import ExactEngine


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.0, 10.0, size=(500, 3))
    ds = Dataset(raw, ["a", "b", "m"], measure="m", name="toy")
    qf = QueryFunction.axis_range(ds, aggregate="AVG")
    Q = WorkloadGenerator(qf, seed=1).sample(40)
    return ds, qf, Q


def _naive(ds, qf, Q, agg_name):
    """Reference implementation: per-query boolean mask over the rows."""
    agg = get_aggregate(agg_name)
    lo, hi = qf.predicate.batch_bounds(Q)
    out = []
    for k in range(Q.shape[0]):
        mask = np.all((ds.X >= lo[k]) & (ds.X < hi[k]), axis=1)
        out.append(agg(ds.column("m")[mask]))
    return np.array(out)


@pytest.mark.parametrize("agg", ["COUNT", "SUM", "AVG", "STD", "MEDIAN"])
def test_vectorized_matches_naive_loop(setup, agg):
    ds, qf, Q = setup
    got = qf.with_aggregate(agg)(Q)
    np.testing.assert_allclose(got, _naive(ds, qf, Q, agg), rtol=1e-10, atol=1e-10)


def test_empty_range_answers_zero(setup):
    ds, qf, _ = setup
    # A box outside the data domain matches nothing.
    q = np.array([0.999, 0.999, 0.999, 0.0005, 0.0005, 0.0005])
    for agg in ("COUNT", "SUM", "AVG", "MEDIAN"):
        assert qf.with_aggregate(agg).answer_one(q) == 0.0


def test_avg_equals_sum_over_count(setup):
    ds, qf, Q = setup
    counts = qf.with_aggregate("COUNT")(Q)
    sums = qf.with_aggregate("SUM")(Q)
    avgs = qf.with_aggregate("AVG")(Q)
    nonempty = counts > 0
    np.testing.assert_allclose(avgs[nonempty], sums[nonempty] / counts[nonempty])


def test_selectivity_in_unit_interval(setup):
    _, qf, Q = setup
    sel = qf.selectivity(Q)
    assert np.all(sel >= 0.0) and np.all(sel <= 1.0)


# ---------------------------------------------------------------- edge cases


def _random_bounds(rng, m, d):
    lo = rng.uniform(0.0, 0.7, size=(m, d))
    hi = lo + rng.uniform(0.05, 0.3, size=(m, d))
    return lo, np.minimum(hi, 1.0)


#: Aggregates the oracle answers from per-query (count, sum, sum of squares).
MOMENT_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "STD", "VAR"})


def moment_aggregate_batch(agg_name, counts, sums, sumsqs):
    """The former executor's moment formula: VAR/STD as E[x^2] - E[x]^2.
    Empty queries yield 0 for every aggregate."""
    nonempty = counts > 0
    safe_counts = np.where(nonempty, counts, 1.0)
    if agg_name == "COUNT":
        return counts.copy()
    if agg_name == "SUM":
        return np.where(nonempty, sums, 0.0)
    mean = sums / safe_counts
    if agg_name == "AVG":
        return np.where(nonempty, mean, 0.0)
    var = np.maximum(sumsqs / safe_counts - mean * mean, 0.0)
    return np.where(nonempty, var if agg_name == "VAR" else np.sqrt(var), 0.0)


def _blocked_gemm_oracle(X, measure, lo, hi, aggregate, block_cells=8_000_000):
    """The executor's former axis-range path, kept as a reference oracle.

    Per block of queries it builds the ``(queries, rows)`` bool match matrix
    one attribute at a time, then answers the moment aggregates with one
    gemm against a ``(rows, 3)`` matrix of (1, x, x^2) and everything else
    with a per-row mask.
    """
    n, d = X.shape
    m = lo.shape[0]
    out = np.empty(m, dtype=np.float64)
    q_block = max(1, block_cells // max(1, n))
    moments = np.stack([np.ones(n), measure, measure * measure], axis=1)
    for start in range(0, m, q_block):
        stop = min(m, start + q_block)
        mask = np.ones((stop - start, n), dtype=bool)
        for j in range(d):
            mask &= X[:, j] >= lo[start:stop, j, None]
            mask &= X[:, j] < hi[start:stop, j, None]
        if aggregate.name in MOMENT_AGGREGATES:
            agg = mask.astype(np.float64) @ moments
            out[start:stop] = moment_aggregate_batch(
                aggregate.name, agg[:, 0], agg[:, 1], agg[:, 2]
            )
        else:
            for i in range(stop - start):
                out[start + i] = aggregate(measure[mask[i]])
    return out


@pytest.fixture(scope="module")
def wide():
    """4-D data with a workload of mixed selectivity (some empty boxes)."""
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, size=(3000, 4))
    measure = rng.normal(5.0, 2.0, size=3000)
    lo, hi = _random_bounds(rng, 300, 4)
    return X, measure, lo, hi


@pytest.mark.parametrize("extra", [0, 1])
def test_blocked_path_at_exact_block_boundary(extra):
    """Query counts landing exactly on (and one past) a block boundary.

    A batch of ``k * q_block`` queries gives full blocks with no remainder;
    the ``+1`` case adds a one-query trailing block. Answering the batch in
    such blocks must match the whole-batch answers bit-for-bit, and the
    blocked-gemm oracle run with exactly that block size must agree too.
    """
    rng = np.random.default_rng(7)
    n, d, q_block = 40, 3, 5
    X = rng.uniform(0.0, 1.0, size=(n, d))
    measure = rng.uniform(0.0, 10.0, size=n)
    m = 3 * q_block + extra
    lo, hi = _random_bounds(rng, m, d)
    agg = get_aggregate("AVG")

    engine = ExactEngine(X, measure)
    whole = engine.answer_bounds(lo, hi, agg)
    blocked = np.concatenate(
        [
            engine.answer_bounds(lo[s : s + q_block], hi[s : s + q_block], agg)
            for s in range(0, m, q_block)
        ]
    )
    np.testing.assert_array_equal(blocked, whole)
    oracle = _blocked_gemm_oracle(X, measure, lo, hi, agg, block_cells=q_block * n)
    np.testing.assert_allclose(whole, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("agg", ["COUNT", "SUM", "AVG", "STD", "VAR"])
def test_sorted_index_matches_blocked_gemm_oracle(wide, agg):
    X, measure, lo, hi = wide
    aggregate = get_aggregate(agg)
    got = ExactEngine(X, measure).answer_bounds(lo, hi, aggregate)
    # Small blocks so the oracle itself crosses block boundaries.
    expected = _blocked_gemm_oracle(X, measure, lo, hi, aggregate, block_cells=64 * 3000)
    # The oracle takes STD/VAR as E[x^2] - E[x]^2, which cancels when a box's
    # spread is small against its mean (one box here has std 0.035 around a
    # mean near 5); the engine takes two passes. Those two compare at 1e-12
    # of the batch's largest answer instead.
    atol = 1e-12 * np.max(np.abs(expected)) if agg in ("STD", "VAR") else 0.0
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=atol)
    if agg == "COUNT":
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("agg", ["COUNT", "SUM", "AVG", "STD", "MEDIAN"])
def test_answers_do_not_depend_on_batch_composition(wide, agg):
    """An answer is a function of its own query alone: the same queries
    answered permuted, split into arbitrary chunks, or one at a time through
    ``answer_one`` give bitwise-equal answers."""
    X, measure, lo, hi = wide
    engine = ExactEngine(X, measure)
    pred = AxisRangePredicate(4, (0, 1, 2, 3))
    Q = np.hstack([lo, hi - lo])
    whole = engine.answer(pred, Q, agg)
    np.testing.assert_array_equal(whole, engine.answer_bounds(lo, hi, agg))

    perm = np.random.default_rng(9).permutation(Q.shape[0])
    permuted = np.empty_like(whole)
    permuted[perm] = engine.answer(pred, Q[perm], agg)
    np.testing.assert_array_equal(permuted, whole)

    cuts = [0, 1, 2, 37, 38, 150, 299, Q.shape[0]]
    chunked = np.concatenate([engine.answer(pred, Q[a:b], agg) for a, b in zip(cuts, cuts[1:])])
    np.testing.assert_array_equal(chunked, whole)

    one_at_a_time = np.array([engine.answer_one(pred, q, agg) for q in Q])
    np.testing.assert_array_equal(one_at_a_time, whole)


@pytest.mark.parametrize("agg", ["AVG", "STD", "VAR"])
def test_zero_match_moment_aggregates_do_not_warn(agg):
    """Empty selections must yield 0.0 with no divide/invalid warnings.

    The suite runs with ``filterwarnings = error``, so a NaN-producing
    division inside the moment path would fail this test outright.
    """
    from repro.queries.executor import evaluate_axis_range_batch
    from repro.queries.aggregates import get_aggregate

    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 1.0, size=(60, 2))
    measure = rng.uniform(0.0, 5.0, size=60)
    # Boxes entirely outside the data domain: zero matches for every query.
    lo = np.full((8, 2), 2.0)
    hi = np.full((8, 2), 3.0)
    out = evaluate_axis_range_batch(X, measure, lo, hi, get_aggregate(agg))
    np.testing.assert_array_equal(out, np.zeros(8))
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("agg", ["COUNT", "SUM", "AVG", "STD", "MEDIAN"])
def test_one_dimensional_data(agg):
    """d=1 data through both the moment and the order-statistic aggregates."""
    from repro.queries.executor import evaluate_axis_range_batch
    from repro.queries.aggregates import get_aggregate

    rng = np.random.default_rng(13)
    X = rng.uniform(0.0, 1.0, size=(200, 1))
    measure = rng.uniform(0.0, 10.0, size=200)
    lo, hi = _random_bounds(rng, 25, 1)
    got = evaluate_axis_range_batch(X, measure, lo, hi, get_aggregate(agg))

    reference = get_aggregate(agg)
    expected = []
    for k in range(25):
        mask = ((X >= lo[k]) & (X < hi[k])).all(axis=1)
        expected.append(reference(measure[mask]))
    np.testing.assert_allclose(got, np.array(expected), rtol=1e-12, atol=1e-12)


def test_one_dimensional_end_to_end_dataset():
    """A 1-attribute dataset (measure == the only column) evaluates cleanly."""
    rng = np.random.default_rng(17)
    raw = rng.uniform(0.0, 10.0, size=(150, 1))
    ds = Dataset(raw, ["m"], measure="m", name="one-d")
    qf = QueryFunction.axis_range(ds, aggregate="AVG")
    Q = WorkloadGenerator(qf, seed=3).sample(20)
    got = qf(Q)
    np.testing.assert_allclose(got, _naive(ds, qf, Q, "AVG"), rtol=1e-10, atol=1e-10)


# ------------------------------------------------- sorted-index edge cases

#: Aggregates the naive loop computes the same way from the same rows in the
#: same ascending order, so the two must agree bitwise (STD/VAR included:
#: both take numpy's two passes).
_EQUAL_AGGS = ("COUNT", "SUM", "AVG", "STD", "VAR", "MEDIAN", "P90", "MIN", "MAX")


def _naive_bounds(X, measure, lo, hi, agg):
    """Per-query boolean mask over the rows, for explicit bounds."""
    reference = get_aggregate(agg)
    return np.array(
        [reference(measure[np.all((X >= lo[k]) & (X < hi[k]), axis=1)]) for k in range(len(lo))]
    )


def _check_against_naive(X, measure, lo, hi):
    engine = ExactEngine(X, measure)
    for agg in _EQUAL_AGGS:
        got = engine.answer_bounds(lo, hi, agg)
        expected = _naive_bounds(X, measure, lo, hi, agg)
        np.testing.assert_array_equal(got, expected, err_msg=agg)


def test_box_includes_rows_on_lo_and_excludes_rows_on_hi():
    grid = np.arange(9) / 8.0
    X = np.array([(a, b) for a in grid for b in grid])
    measure = np.random.default_rng(21).uniform(0.0, 10.0, size=X.shape[0])
    lo = np.array([[0.25, 0.25], [0.0, 0.5], [0.125, 0.0], [0.5, 0.5]])
    hi = np.array([[0.75, 0.75], [1.0, 0.625], [0.25, 1.0], [0.5, 1.0]])
    counts = ExactEngine(X, measure).answer_bounds(lo, hi, "COUNT")
    # Per attribute, grid values in [lo, hi): lo itself counts, hi does not
    # (so the row at 1.0 is outside even a [0, 1) bound).
    np.testing.assert_array_equal(counts, [4 * 4, 8 * 1, 1 * 8, 0])
    _check_against_naive(X, measure, lo, hi)


def test_row_at_one_is_outside_an_inactive_bound():
    """Min-max normalized data puts one row at exactly 1.0; an inactive
    attribute's [0, 1) bound must still exclude it, even though that slab
    holds every row but one."""
    rng = np.random.default_rng(22)
    X = rng.uniform(0.0, 1.0, size=(300, 2))
    X[:, 0] = (X[:, 0] - X[:, 0].min()) / (X[:, 0].max() - X[:, 0].min())
    top = int(np.argmax(X[:, 0]))
    measure = rng.uniform(0.0, 10.0, size=300)
    lo = np.array([[0.0, X[top, 1] - 0.05]])
    hi = np.array([[1.0, X[top, 1] + 0.05]])
    _check_against_naive(X, measure, lo, hi)


def test_many_rows_sharing_a_coordinate():
    rng = np.random.default_rng(23)
    n = 1500
    X = np.column_stack([
        rng.integers(0, 3, size=n) / 4.0,  # three values, ~500 rows each
        np.full(n, 0.5),  # every row on one value
        rng.uniform(0.0, 1.0, size=n),
    ])
    measure = rng.uniform(-5.0, 5.0, size=n)
    lo = np.array([[0.25, 0.5, 0.0], [0.0, 0.0, 0.2], [0.25, 0.25, 0.1], [0.3, 0.5, 0.0],
                   [0.0, 0.5, 0.0], [0.5, 0.0, 0.4]])
    hi = np.array([[0.5, 0.75, 1.0], [0.25, 0.5, 0.9], [0.5, 0.5, 0.6], [0.5, 1.0, 1.0],
                   [1.0, 0.5000001, 1.0], [0.75, 1.0, 0.8]])
    _check_against_naive(X, measure, lo, hi)


@pytest.mark.parametrize("agg", ["COUNT", "SUM", "AVG", "STD", "MEDIAN", "MAX"])
def test_zero_rows_and_zero_queries(agg):
    rng = np.random.default_rng(25)
    lo, hi = _random_bounds(rng, 6, 3)
    empty_data = ExactEngine(np.empty((0, 3)), np.empty(0))
    np.testing.assert_array_equal(empty_data.answer_bounds(lo, hi, agg), np.zeros(6))
    engine = ExactEngine(rng.uniform(size=(50, 3)), rng.uniform(size=50))
    none = engine.answer_bounds(np.empty((0, 3)), np.empty((0, 3)), agg)
    assert none.shape == (0,) and none.dtype == np.float64
    pred = AxisRangePredicate(3, (0, 1, 2))
    assert engine.answer(pred, np.empty((0, 6)), agg).shape == (0,)


def test_thirteen_dimensional_batch_mostly_empty():
    """The tpcds shape: every one of 13 attributes active, so almost every
    box is empty; empty AVG/STD answers are 0 and raise no warning (the
    suite turns warnings into errors)."""
    rng = np.random.default_rng(27)
    d = 13
    X = rng.uniform(0.0, 1.0, size=(4000, d))
    measure = rng.uniform(0.0, 100.0, size=4000)
    lo, hi = _random_bounds(rng, 200, d)
    # A few wide boxes so the batch also holds non-empty answers.
    lo[:5], hi[:5] = 0.0, 1.0
    lo[:5, :2] = rng.uniform(0.0, 0.5, size=(5, 2))
    counts = ExactEngine(X, measure).answer_bounds(lo, hi, "COUNT")
    assert np.mean(counts == 0) > 0.9 and np.all(counts[:5] > 0)
    _check_against_naive(X, measure, lo, hi)
    for agg in ("AVG", "STD"):
        out = ExactEngine(X, measure).answer_bounds(lo, hi, agg)
        np.testing.assert_array_equal(out[counts == 0], 0.0)


def test_order_statistics_go_through_the_index(monkeypatch):
    """MEDIAN, a percentile, MIN and MAX answer from the sorted index, not
    the generic per-query predicate fallback."""
    from repro.queries import executor

    def fallback(*args, **kwargs):
        raise AssertionError("axis ranges must not take the predicate fallback")

    monkeypatch.setattr(executor, "evaluate_predicate_batch", fallback)
    rng = np.random.default_rng(29)
    X = rng.uniform(0.0, 1.0, size=(800, 3))
    measure = rng.normal(0.0, 3.0, size=800)
    lo, hi = _random_bounds(rng, 60, 3)
    pred = AxisRangePredicate(3, (0, 1, 2))
    Q = np.hstack([lo, hi - lo])
    engine = ExactEngine(X, measure)
    for agg in ("MEDIAN", "P90", "MIN", "MAX"):
        np.testing.assert_array_equal(
            engine.answer(pred, Q, agg), _naive_bounds(X, measure, *pred.batch_bounds(Q), agg)
        )


def test_rows_appended_outside_every_box_leave_answers_bitwise_unchanged():
    rng = np.random.default_rng(31)
    X = rng.uniform(0.0, 0.9, size=(2000, 3))
    measure = rng.uniform(0.0, 10.0, size=2000)
    lo, hi = _random_bounds(rng, 150, 3)
    hi = np.minimum(hi, 0.95)
    # Each new row lies past every box's hi on one random attribute.
    extra = rng.uniform(0.0, 1.0, size=(300, 3))
    extra[np.arange(300), rng.integers(0, 3, size=300)] = rng.uniform(0.95, 1.0, size=300)
    grown_X = np.vstack([X, extra])
    grown_measure = np.concatenate([measure, rng.uniform(-1e6, 1e6, size=300)])
    before, after = ExactEngine(X, measure), ExactEngine(grown_X, grown_measure)
    for agg in ("COUNT", "SUM", "AVG", "STD", "VAR", "MEDIAN", "MAX"):
        np.testing.assert_array_equal(
            after.answer_bounds(lo, hi, agg), before.answer_bounds(lo, hi, agg), err_msg=agg
        )


def test_var_and_std_do_not_cancel_on_a_large_mean_tiny_spread_box():
    """A box whose values sit near 1e6 with a spread of ~3e-3: E[x^2] - E[x]^2
    loses every digit there, the two-pass answer matches an exact-sum
    two-pass reference."""
    import math

    rng = np.random.default_rng(41)
    X = rng.uniform(0.0, 1.0, size=(3000, 2))
    measure = 1e6 + rng.uniform(0.0, 1e-2, size=3000)
    lo = np.array([[0.1, 0.2], [0.0, 0.0], [0.5, 0.05]])
    hi = np.array([[0.6, 0.9], [1.0, 1.0], [0.6, 0.25]])
    engine = ExactEngine(X, measure)
    for k in range(lo.shape[0]):
        values = measure[np.all((X >= lo[k]) & (X < hi[k]), axis=1)].tolist()
        assert len(values) > 20
        mean = math.fsum(values) / len(values)
        var = math.fsum((v - mean) ** 2 for v in values) / len(values)
        got_var = engine.answer_bounds(lo[k : k + 1], hi[k : k + 1], "VAR")[0]
        got_std = engine.answer_bounds(lo[k : k + 1], hi[k : k + 1], "STD")[0]
        assert got_var == pytest.approx(var, rel=1e-12, abs=0.0)
        assert got_std == pytest.approx(math.sqrt(var), rel=1e-12, abs=0.0)
        # The moment formula on the same rows is off by orders of magnitude.
        n, total = len(values), math.fsum(values)
        squares = float(np.dot(values, values))
        moment = moment_aggregate_batch("VAR", np.array([n]), np.array([total]), np.array([squares]))
        assert abs(moment[0] - var) > 0.5 * var


def _index_arrays(engine):
    return (engine._XT, engine._order, engine._keys, engine.measure)


def test_extend_is_bitwise_equal_to_a_fresh_engine():
    """Appended rows merged into the sort orders give the same index, byte
    for byte, as sorting the grown data afresh, heavy key ties included."""
    rng = np.random.default_rng(43)
    X = rng.integers(0, 8, size=(400, 3)) / 8.0  # many equal keys
    measure = rng.uniform(-5.0, 5.0, size=400)
    cuts = [0, 1, 150, 150, 151, 320, 400]  # empty, one-row and bulk appends
    engine = ExactEngine(X[:1], measure[:1])
    for a, b in zip(cuts[1:], cuts[2:]):
        before = [arr.copy() for arr in _index_arrays(engine)]
        grown = engine.extend(X[a:b], measure[a:b])
        for arr, was in zip(_index_arrays(engine), before):
            np.testing.assert_array_equal(arr, was)  # the old engine is untouched
        engine = grown
        fresh = ExactEngine(X[:b], measure[:b])
        for got, want in zip(_index_arrays(engine), _index_arrays(fresh)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert engine.num_bytes() == fresh.num_bytes()
    lo, hi = _random_bounds(rng, 80, 3)
    for agg in ("COUNT", "AVG", "STD", "MEDIAN"):
        np.testing.assert_array_equal(
            engine.answer_bounds(lo, hi, agg), fresh.answer_bounds(lo, hi, agg), err_msg=agg
        )
    with pytest.raises(ValueError, match="columns"):
        engine.extend(np.zeros((2, 2)), np.zeros(2))


def test_num_bytes_counts_the_whole_index():
    X = np.random.default_rng(47).uniform(size=(250, 4))
    engine = ExactEngine(X, X[:, 0])
    assert engine.num_bytes() == (3 * 4 + 1) * 250 * 8


@pytest.mark.parametrize("order", ["C", "F"])
def test_engine_owns_its_snapshot(order):
    """Mutating the caller's arrays after construction cannot desync the
    index, whatever the caller's memory layout."""
    rng = np.random.default_rng(33)
    X = np.asarray(rng.uniform(0.0, 1.0, size=(500, 3)), order=order)
    measure = rng.uniform(0.0, 10.0, size=500)
    lo, hi = _random_bounds(rng, 40, 3)
    engine = ExactEngine(X, measure)
    before = {agg: engine.answer_bounds(lo, hi, agg) for agg in ("COUNT", "AVG", "MEDIAN")}
    X[:] = rng.uniform(0.0, 1.0, size=X.shape)
    measure *= -3.0
    for agg, expected in before.items():
        np.testing.assert_array_equal(engine.answer_bounds(lo, hi, agg), expected)
    assert not engine.X.flags.writeable and not engine.measure.flags.writeable


def test_exact_scan_and_query_function_reuse_the_construction_index(setup, monkeypatch):
    """Only constructing a query function builds an index: calls, single
    answers, ``with_aggregate`` and the exact baseline all reuse it."""
    from repro.baselines.exact import ExactScan
    from repro.queries import executor

    ds, _, Q = setup
    qf = QueryFunction.axis_range(ds, aggregate="AVG")
    built = []
    original = executor.ExactEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(executor.ExactEngine, "__init__", counting_init)
    qf(Q)
    qf.answer_one(Q[0])
    qf.selectivity(Q)
    qf.with_aggregate("MEDIAN")(Q)
    scan = ExactScan().fit(qf)
    scan.predict(Q)
    scan.predict_one(Q[0])
    assert built == []
