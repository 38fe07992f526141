"""Property-based tests on the mathematical utilities underpinning the
learners: entropy, gain, pessimistic-error bounds, the probit, silhouette
bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.classifiers._tree import entropy, info_gain, split_info
from repro.ml.classifiers.j48 import _probit, added_errors

counts = st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1,
                  max_size=6).map(lambda v: np.array(v))


@given(counts)
@settings(max_examples=60, deadline=None)
def test_entropy_bounds(c):
    h = entropy(c)
    assert 0.0 <= h <= math.log2(len(c)) + 1e-9


@given(counts)
@settings(max_examples=40, deadline=None)
def test_entropy_of_pure_distribution_is_zero(c):
    pure = np.zeros_like(c)
    if pure.size:
        pure[0] = max(float(c.sum()), 1.0)
    assert entropy(pure) == pytest.approx(0.0)


def _table(branches):
    """Stack ragged count vectors into one 2-D (branch, class) table."""
    width = max(b.size for b in branches)
    return np.vstack([np.pad(b, (0, width - b.size)) for b in branches])


@given(st.lists(counts, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_info_gain_nonnegative_for_true_partitions(branches):
    """Gain of any partition of a parent into branches is >= 0."""
    table = _table(branches)
    gain = info_gain(table.sum(axis=0), table)
    assert gain >= -1e-9


@given(st.lists(counts, min_size=2, max_size=6), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_info_gain_of_stacked_splits_equals_one_by_one(branches, cut):
    """Two splits stacked in one table score exactly as they do alone."""
    table = _table(branches)
    cut = min(cut, len(table) - 1)
    parent = table.sum(axis=0)
    assert info_gain(parent, table, (0, cut)).tolist() == [
        info_gain(parent, table[:cut])[0], info_gain(parent, table[cut:])[0]]


@given(st.lists(counts, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_split_info_nonnegative(branches):
    assert split_info(_table(branches)) >= 0.0


@given(st.floats(0.001, 0.999))
@settings(max_examples=60, deadline=None)
def test_probit_inverts_symmetrically(p):
    assert _probit(p) == pytest.approx(-_probit(1 - p), abs=1e-6)


@given(st.floats(0.001, 0.998), st.floats(0.0005, 0.0009))
@settings(max_examples=40, deadline=None)
def test_probit_monotone(p, eps):
    assert _probit(p + eps) >= _probit(p)


@given(st.floats(1.0, 1000.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_added_errors_nonnegative(n, frac):
    e = frac * n
    assert added_errors(n, e, 0.25) >= -1e-9


@given(st.floats(2.0, 500.0), st.floats(0.0, 0.5))
@settings(max_examples=40, deadline=None)
def test_added_errors_monotone_in_confidence(n, frac):
    e = frac * n
    assert added_errors(n, e, 0.05) >= added_errors(n, e, 0.45) - 1e-9


@given(st.integers(2, 40), st.integers(2, 4), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_silhouette_always_bounded(n, k, seed):
    from repro.data import Attribute, Dataset
    from repro.ml.cluster_eval import silhouette
    rng = np.random.default_rng(seed)
    ds = Dataset("r", [Attribute.numeric("x"), Attribute.numeric("y")])
    for _ in range(n):
        ds.add_row([float(rng.normal()), float(rng.normal())])
    labels = [int(v) for v in rng.integers(0, k, n)]
    assert -1.0 - 1e-9 <= silhouette(ds, labels) <= 1.0 + 1e-9


@given(st.integers(2, 60), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_auc_bounded_property(n, seed):
    from repro.data import synthetic
    from repro.ml.classifiers import NaiveBayes
    from repro.ml.evaluation import auc
    ds = synthetic.numeric_two_class(n=max(n, 10), seed=seed)
    clf = NaiveBayes().fit(ds)
    value = auc(clf, ds)
    assert 0.0 - 1e-9 <= value <= 1.0 + 1e-9
