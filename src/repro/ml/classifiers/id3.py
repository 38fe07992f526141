"""ID3 — Quinlan's original information-gain tree over nominal attributes.

Listed here because the paper's related work places C4.5's ancestor among the
"first-generation" tools; it also gives the Classifier Web Service a second
tree learner whose behaviour differs visibly from J48 (no pruning, no numeric
or missing-value support).
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset
from repro.data.instance import Instance
from repro.errors import DataError
from repro.ml.base import CLASSIFIERS, Classifier
from repro.ml.classifiers._tree import (TreeNode, cell_codes, contingency,
                                        graph_to_dot, info_gain, render_text,
                                        tree_graph)


@CLASSIFIERS.register("Id3", "tree", "nominal-only")
class Id3(Classifier):
    """Unpruned information-gain decision tree (nominal attributes only)."""

    def __init__(self, **options):
        super().__init__(**options)
        self.root: TreeNode | None = None

    def _fit(self, dataset: Dataset) -> None:
        for idx, attr in enumerate(dataset.attributes):
            if idx != dataset.class_index and not attr.is_nominal:
                raise DataError(
                    f"Id3 handles nominal attributes only; "
                    f"{attr.name!r} is {attr.kind}")
        matrix = dataset.to_matrix()
        if np.isnan(matrix).any():
            raise DataError("Id3 cannot handle missing values "
                            "(use the ReplaceMissing filter first)")
        self._matrix = matrix
        self._y = dataset.class_values().astype(int)
        self._w = dataset.weights()
        self._n_classes = dataset.num_classes
        self._attrs = dataset.attributes
        self._others = [i for i in range(len(self._attrs))
                        if i != dataset.class_index]
        self._codes, self._starts = cell_codes(
            matrix[:, self._others],
            [self._attrs[i].num_values for i in self._others],
            self._y, self._n_classes)
        rows = np.arange(matrix.shape[0])
        counts = np.bincount(self._y, weights=self._w,
                             minlength=self._n_classes)
        self.root = self._build(rows, frozenset({dataset.class_index}),
                                counts)
        del self._matrix, self._y, self._w, self._codes

    def _build(self, rows: np.ndarray, used: frozenset[int],
               counts: np.ndarray) -> TreeNode:
        node = TreeNode(class_counts=counts)
        if np.count_nonzero(counts) <= 1 or len(used) >= len(self._attrs):
            return node
        codes = self._codes[rows]
        table = contingency(codes.ravel(),
                            np.repeat(self._w[rows], codes.shape[1]),
                            self._starts[-1], self._n_classes)
        gains = info_gain(counts, table, self._starts[:-1])
        best_gain, best = 0.0, None
        for j, gain in enumerate(gains):
            if self._others[j] not in used and gain > best_gain + 1e-12:
                best_gain, best = gain, j
        if best is None:
            return node
        best_idx = self._others[best]
        attr = self._attrs[best_idx]
        node.attribute = best_idx
        node.branch_values = list(attr.values)
        child_used = used | {best_idx}
        column = self._matrix[rows, best_idx]
        for v in range(attr.num_values):
            sub = rows[column == v]
            if sub.size == 0:
                node.children.append(TreeNode(class_counts=counts.copy()))
            else:  # the table row already holds this child's class counts
                node.children.append(self._build(
                    sub, child_used, table[self._starts[best] + v].copy()))
        return node

    def _distribution(self, instance: Instance) -> np.ndarray:
        assert self.root is not None
        node = self.root
        while not node.is_leaf:
            value = instance.value(node.attribute)
            if math.isnan(value):
                raise DataError("Id3 cannot classify a missing value")
            node = node.children[int(value)]
        total = node.total_weight
        if total <= 0:
            k = self.header.num_classes
            return np.full(k, 1.0 / k)
        return node.class_counts / total

    def model_text(self) -> str:
        if self.root is None:
            return "(not fitted)"
        return "Id3\n---\n" + render_text(self.root, self.header)

    def to_graph(self) -> dict:
        """The model as a node/edge graph dict (visualiser payload)."""
        assert self.root is not None
        return tree_graph(self.root, self.header)

    def to_dot(self) -> str:
        """The model as Graphviz dot text."""
        return graph_to_dot(self.to_graph(), "Id3")
