"""The array-kernel J48 grows the tree the scalar loops grew, bit for bit.

``_j48_reference.ReferenceJ48`` is the per-row implementation the kernel
replaced; every comparison here is ``==`` on attribute, threshold and
class counts, never ``approx``.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Attribute, Dataset
from repro.ml.classifiers import J48
from repro.ml.classifiers._tree import entropy, entropy_rows

from tests.ml._j48_reference import ReferenceJ48, same_tree

OPTIONS = st.fixed_dictionaries({
    "min_obj": st.sampled_from([1, 2, 5]),
    "use_gain_ratio": st.booleans(),
    "unpruned": st.booleans(),
})


@st.composite
def mixed_datasets(draw):
    """Nominal and numeric columns, missing cells, non-unit weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(4, 60))
    n_classes = draw(st.integers(2, 9))
    kinds = draw(st.lists(st.integers(0, 13), min_size=1, max_size=6))
    attrs, columns = [], []
    for j, n_values in enumerate(kinds):
        if n_values == 0:  # numeric, drawn from few values so ties occur
            attrs.append(Attribute.numeric(f"a{j}"))
            columns.append(rng.choice(rng.normal(size=8), size=n_rows))
        else:
            attrs.append(Attribute.nominal(
                f"a{j}", [f"v{v}" for v in range(n_values)]))
            columns.append(rng.integers(0, n_values, n_rows).astype(float))
    attrs.append(Attribute.nominal(
        "class", [f"c{c}" for c in range(n_classes)]))
    columns.append(rng.integers(0, n_classes, n_rows).astype(float))
    matrix = np.column_stack(columns)
    missing_rate = draw(st.sampled_from([0.0, 0.1, 0.4]))
    matrix[rng.random(matrix.shape) < missing_rate] = np.nan
    weights = draw(st.sampled_from(["unit", "fractional", "some-zero"]))
    w = np.ones(n_rows)
    if weights != "unit":
        w = rng.random(n_rows) * 3
    if weights == "some-zero":
        w[rng.random(n_rows) < 0.3] = 0.0
    dataset = Dataset("parity", attrs)
    dataset._bulk_extend(matrix, w)
    dataset.set_class("class")
    return dataset


def fitted_pair(dataset, options):
    return J48(**options).fit(dataset), ReferenceJ48(**options).fit(dataset)


@settings(max_examples=300, deadline=None)
@given(mixed_datasets(), OPTIONS)
def test_kernel_tree_equals_scalar_oracle(dataset, options):
    if np.isnan(dataset.class_values()).all():
        return
    kernel, oracle = fitted_pair(dataset, options)
    assert same_tree(kernel.root, oracle.root)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12))
def test_entropy_rows_equals_entropy_per_row(seed, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    table = rng.random((n_rows, n_cols)) * rng.choice([1e-3, 1.0, 1e3])
    table[rng.random(table.shape) < 0.4] = 0.0
    assert entropy_rows(table).tolist() == [entropy(row) for row in table]


@pytest.mark.parametrize("seed", [100, 7])
def test_case_study_pool_trees_unchanged(breast_cancer, seed):
    """The 96 datasets the ledger's ``case_study`` workload enacts: slot 0
    is the paper's, the rest bootstrap resamples drawn from (seed, slot)."""
    size = breast_cancer.num_instances
    for slot in range(96):
        dataset = breast_cancer if slot == 0 else breast_cancer.subset(
            np.random.default_rng([seed, slot]).integers(0, size, size=size))
        dataset.set_class("Class")
        kernel, oracle = fitted_pair(dataset, {})
        assert same_tree(kernel.root, oracle.root), slot
        assert kernel.model_text() == oracle.model_text(), slot


def test_figure4_tree_matches_golden_text(breast_cancer):
    """ROADMAP aim 3's golden Figure-4 tree: ``model_text()`` of the paper's
    dataset, byte for byte as the scalar implementation printed it."""
    golden = Path(__file__).with_name("golden_figure4_tree.txt")
    assert J48().fit(breast_cancer).model_text() \
        == golden.read_text(encoding="utf-8")
