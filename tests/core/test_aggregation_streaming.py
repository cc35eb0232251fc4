"""Streaming aggregation against an independent Eq. 21 oracle, bit for bit.

:class:`repro.core.aggregation.StreamingAggregator` is the repo's one
aggregation kernel: it consumes importance messages into a running-sum
accumulator instead of stacking an ``(n, R)`` matrix, and
``aggregate_importance_sets`` is a validated wrapper over it.  Comparing
the two would be a tautology, so the reference here is :func:`eq21` — a
float64 running sum written in this file straight from the equation,
sharing no code with ``src/``.  A seeded fuzz sweep hammers the contract
across random member counts, weight matrices, subsets and arrival orders.
"""

import numpy as np
import pytest

from repro.core.aggregation import (
    StreamingAggregator,
    aggregate_importance_sets,
    aggregation_weights,
)


def eq21(sets, weights, rows=None, cols=None):
    """``Q'_n = Σ_i ŵ_{n,i} Q_i`` for each ``n`` in ``rows``, by hand.

    ``sets`` is indexed by cluster member.  ``cols`` lists the members
    present, in arrival order: each weight row is masked to them and
    renormalised (uniform when it has no mass there), and the sum runs
    in that order.  ``cols=None`` is the full round — every member, in
    index order, weights as given.
    """
    weights = np.asarray(weights, dtype=np.float64)
    rows = range(weights.shape[0]) if rows is None else rows
    order = list(range(weights.shape[1])) if cols is None else [int(c) for c in cols]
    out = []
    for n in rows:
        w = np.array([weights[n, c] for c in order])
        if cols is not None:
            mass = w.sum()
            w = w / mass if mass > 0.0 else np.full(len(order), 1.0 / len(order))
        acc = np.zeros(np.size(sets[order[0]]), dtype=np.float64)
        for weight, c in zip(w, order):
            acc = acc + weight * np.asarray(sets[c], dtype=np.float64)
        out.append(acc)
    return out


def _stream(sets, weights, rows=None, cols=None):
    agg = StreamingAggregator(weights, rows=rows, cols=cols)
    for c in range(len(sets)) if cols is None else cols:
        agg.consume(c, sets[c])
    return agg.finalize()


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def _random_instance(rng, n=None, length=None):
    n = n or int(rng.integers(1, 9))
    length = length or int(rng.integers(1, 33))
    sets = [rng.standard_normal(length) * rng.uniform(0.1, 10) for _ in range(n)]
    raw = rng.uniform(0.01, 1.0, size=(n, n))
    weights = raw / raw.sum(axis=1, keepdims=True)
    return sets, weights


class TestFullRound:
    def test_matches_batch_bitwise(self):
        """The stream and its batch wrapper both equal the oracle."""
        rng = np.random.default_rng(0)
        sets, weights = _random_instance(rng, n=6, length=24)
        expected = eq21(sets, weights)
        _assert_bitwise(_stream(sets, weights), expected)
        _assert_bitwise(aggregate_importance_sets(sets, weights), expected)

    def test_average_weights_path(self):
        """The edge's uniform weight construction, not just random rows."""
        rng = np.random.default_rng(1)
        sets, _ = _random_instance(rng, n=5, length=16)
        weights = aggregation_weights("average", 5)
        _assert_bitwise(_stream(sets, weights), eq21(sets, weights))

    def test_singleton_stream(self):
        agg = StreamingAggregator(np.array([[1.0]]))
        agg.consume(0, np.array([3.0, 1.0, 4.0]))
        np.testing.assert_array_equal(agg.finalize()[0], [3.0, 1.0, 4.0])

    def test_float32_uploads_are_widened(self):
        """Wire-format float32 sets are accumulated in float64."""
        rng = np.random.default_rng(2)
        sets32 = [
            rng.standard_normal(8).astype(np.float32) for _ in range(4)
        ]
        weights = np.full((4, 4), 0.25)
        got = _stream(sets32, weights)
        assert all(g.dtype == np.float64 for g in got)
        _assert_bitwise(got, eq21(sets32, weights))


class TestSubsetRound:
    def test_matches_oracle_bitwise(self):
        rng = np.random.default_rng(3)
        sets, weights = _random_instance(rng, n=7, length=12)
        cols = [5, 0, 3]  # arrival order, deliberately not sorted
        rows = [1, 4, 6]
        _assert_bitwise(
            _stream(sets, weights, rows=rows, cols=cols),
            eq21(sets, weights, rows=rows, cols=cols),
        )

    def test_presliced_rows_equal_square_plus_rows(self):
        """The O(rows·n) form a million-device edge passes."""
        rng = np.random.default_rng(4)
        sets, weights = _random_instance(rng, n=6, length=10)
        cols = [2, 4, 1]
        rows = [0, 3]
        via_block = _stream(sets, weights[np.asarray(rows)], cols=cols)
        _assert_bitwise(via_block, _stream(sets, weights, rows=rows, cols=cols))
        _assert_bitwise(via_block, eq21(sets, weights, rows=rows, cols=cols))

    def test_zero_weight_row_falls_back_to_uniform(self):
        """A row with no mass on present members averages them."""
        weights = np.array(
            [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]
        )
        sets = [np.array([1.0]), np.array([2.0]), np.array([4.0])]
        cols = [1, 2]
        got = _stream(sets, weights, rows=[0, 1, 2], cols=cols)
        _assert_bitwise(got, eq21(sets, weights, rows=[0, 1, 2], cols=cols))
        np.testing.assert_array_equal(got[0], [3.0])  # (2 + 4) / 2
        np.testing.assert_array_equal(got[2], [4.0])


class TestContract:
    def test_out_of_order_consume_raises(self):
        agg = StreamingAggregator(np.full((2, 2), 0.5), cols=[0, 1])
        with pytest.raises(ValueError, match="out-of-order"):
            agg.consume(1, np.ones(4))

    def test_overconsume_raises(self):
        agg = StreamingAggregator(np.array([[1.0]]))
        agg.consume(0, np.ones(2))
        with pytest.raises(ValueError, match="complete"):
            agg.consume(0, np.ones(2))

    def test_incomplete_finalize_raises(self):
        agg = StreamingAggregator(np.full((2, 2), 0.5))
        agg.consume(0, np.ones(3))
        with pytest.raises(ValueError, match="incomplete"):
            agg.finalize()

    def test_empty_cols_raises(self):
        with pytest.raises(ValueError, match="empty round"):
            StreamingAggregator(np.full((2, 2), 0.5), cols=[])

    def test_length_mismatch_raises(self):
        agg = StreamingAggregator(np.full((2, 2), 0.5))
        agg.consume(0, np.ones(3))
        with pytest.raises(ValueError, match="length"):
            agg.consume(1, np.ones(5))

    def test_non_stochastic_square_raises(self):
        with pytest.raises(ValueError, match="sum to 1"):
            StreamingAggregator(np.ones((3, 3)))

    def test_rows_with_presliced_block_raises(self):
        with pytest.raises(ValueError, match="square"):
            StreamingAggregator(np.full((1, 3), 1 / 3), rows=[0])


class TestSeededFuzz:
    """Randomized equivalence sweep — the property-based layer for Eq. 21."""

    def test_full_round_fuzz(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            sets, weights = _random_instance(rng)
            _assert_bitwise(_stream(sets, weights), eq21(sets, weights))

    def test_subset_round_fuzz(self):
        rng = np.random.default_rng(5678)
        for _ in range(25):
            sets, weights = _random_instance(rng)
            n = len(sets)
            k = int(rng.integers(1, n + 1))
            cols = list(rng.permutation(n)[:k])  # random arrival order
            r = int(rng.integers(1, n + 1))
            rows = sorted(int(x) for x in rng.permutation(n)[:r])
            got = _stream(sets, weights, rows=rows, cols=cols)
            _assert_bitwise(got, eq21(sets, weights, rows=rows, cols=cols))
            # Every output stays a convex combination of what arrived:
            # within the envelope of the present members' values.
            present = np.stack([np.asarray(sets[c], dtype=np.float64) for c in cols])
            for g in got:
                assert np.all(g <= present.max(axis=0) + 1e-12)
                assert np.all(g >= present.min(axis=0) - 1e-12)
