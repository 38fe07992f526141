"""Scalar J48 induction, kept as the test oracle.

``_fit`` … ``_prune`` below are the per-row-loop implementation that
``repro.ml.classifiers.j48`` shipped before induction moved onto array
kernels, moved here verbatim (with the list-of-arrays ``split_entropy`` /
``info_gain`` / ``split_info`` they called).  The kernel must grow the same
tree node for node; ``test_j48_kernel_parity`` compares the two and
``benchmarks/test_bench_fig4_tree.py`` times one against the other.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import DataError
from repro.ml.classifiers._tree import TreeNode, entropy
from repro.ml.classifiers.j48 import J48, added_errors

_EPS = 1e-9


def split_entropy(branch_counts: list[np.ndarray]) -> float:
    """Weighted average entropy after a split."""
    total = sum(float(c.sum()) for c in branch_counts)
    if total <= 0:
        return 0.0
    return sum(float(c.sum()) / total * entropy(c) for c in branch_counts)


def info_gain(parent_counts: np.ndarray,
              branch_counts: list[np.ndarray]) -> float:
    """Information gain of a split."""
    return entropy(parent_counts) - split_entropy(branch_counts)


def split_info(branch_counts: list[np.ndarray]) -> float:
    """Intrinsic information of the partition (gain-ratio denominator)."""
    sizes = np.array([float(c.sum()) for c in branch_counts])
    return entropy(sizes)


class ReferenceJ48(J48):
    """:class:`J48` with the scalar induction and pruning loops."""

    # ------------------------------------------------------------------ fit
    def _fit(self, dataset: Dataset) -> None:
        matrix = dataset.to_matrix()
        y = dataset.class_values()
        weights = dataset.weights()
        keep = ~np.isnan(y)
        if not keep.any():
            raise DataError("all training instances have a missing class")
        self._matrix = matrix[keep]
        self._y = y[keep].astype(int)
        self._weights = weights[keep].astype(float)
        self._n_classes = dataset.num_classes
        self._attrs = dataset.attributes
        self._class_index = dataset.class_index
        rows = np.arange(self._matrix.shape[0])
        used = frozenset({self._class_index})
        self.root = self._build(rows, self._weights[rows].copy(), used)
        if not self.opt("unpruned"):
            self._prune(self.root)
        # free training buffers; the tree is self-contained
        del self._matrix, self._y, self._weights

    def _counts(self, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        counts = np.zeros(self._n_classes)
        np.add.at(counts, self._y[rows], w)
        return counts

    def _build(self, rows: np.ndarray, w: np.ndarray,
               used: frozenset[int]) -> TreeNode:
        counts = self._counts(rows, w)
        node = TreeNode(class_counts=counts)
        total = counts.sum()
        min_obj = self.opt("min_obj")
        if (total < 2 * min_obj
                or np.count_nonzero(counts) <= 1
                or len(used) >= len(self._attrs)):
            return node
        best = self._select_split(rows, w, counts, used)
        if best is None:
            return node
        attr_idx, threshold, branches = best
        node.attribute = attr_idx
        node.threshold = threshold
        if threshold is None:
            node.branch_values = list(self._attrs[attr_idx].values)
        child_used = used | ({attr_idx}
                             if self._attrs[attr_idx].is_nominal
                             else set())
        for branch_rows, branch_w in branches:
            if branch_rows.size == 0 or branch_w.sum() < _EPS:
                child = TreeNode(class_counts=counts.copy())
            else:
                child = self._build(branch_rows, branch_w, child_used)
            node.children.append(child)
        return node

    # ------------------------------------------------------------ splitting
    def _select_split(self, rows: np.ndarray, w: np.ndarray,
                      counts: np.ndarray, used: frozenset[int]):
        """Return ``(attr_idx, threshold, branches)`` of the best split.

        *branches* is a list of ``(row_indices, weights)`` covering present
        rows plus fractionally-weighted missing rows.
        """
        candidates = []
        for attr_idx, attr in enumerate(self._attrs):
            if attr_idx in used or attr.is_string:
                continue
            if attr.is_nominal:
                cand = self._nominal_candidate(attr_idx, rows, w, counts)
            else:
                cand = self._numeric_candidate(attr_idx, rows, w, counts)
            if cand is not None:
                candidates.append(cand)
        if not candidates:
            return None
        gains = [c[0] for c in candidates]
        avg_gain = sum(gains) / len(gains)
        eligible = [c for c in candidates if c[0] >= avg_gain - _EPS]
        if self.opt("use_gain_ratio"):
            best = max(eligible, key=lambda c: c[1])
        else:
            best = max(eligible, key=lambda c: c[0])
        _, _, attr_idx, threshold = best
        return (attr_idx, threshold,
                self._partition(attr_idx, threshold, rows, w))

    def _nominal_candidate(self, attr_idx: int, rows: np.ndarray,
                           w: np.ndarray, counts: np.ndarray):
        col = self._matrix[rows, attr_idx]
        present = ~np.isnan(col)
        present_w = w[present]
        total_w = w.sum()
        present_total = present_w.sum()
        if present_total < _EPS:
            return None
        n_values = self._attrs[attr_idx].num_values
        branch_counts = [np.zeros(self._n_classes) for _ in range(n_values)]
        vals = col[present].astype(int)
        ys = self._y[rows][present]
        for v, y, weight in zip(vals, ys, present_w):
            branch_counts[v][y] += weight
        sizes = [float(c.sum()) for c in branch_counts]
        nonempty = sum(1 for s in sizes if s >= self.opt("min_obj"))
        if nonempty < 2:
            return None
        present_counts = np.zeros(self._n_classes)
        np.add.at(present_counts, ys, present_w)
        gain = info_gain(present_counts, branch_counts)
        # C4.5 scales gain by the fraction of instances with a known value
        gain *= present_total / total_w
        if gain < _EPS:
            return None
        si = split_info(branch_counts)
        ratio = gain / si if si > _EPS else 0.0
        return (gain, ratio, attr_idx, None)

    def _numeric_candidate(self, attr_idx: int, rows: np.ndarray,
                           w: np.ndarray, counts: np.ndarray):
        col = self._matrix[rows, attr_idx]
        present = ~np.isnan(col)
        total_w = w.sum()
        values = col[present]
        ys = self._y[rows][present]
        ws = w[present]
        present_total = ws.sum()
        if present_total < _EPS or values.size < 2 * self.opt("min_obj"):
            return None
        order = np.argsort(values, kind="stable")
        values, ys, ws = values[order], ys[order], ws[order]
        distinct = np.unique(values)
        if distinct.size < 2:
            return None
        present_counts = np.zeros(self._n_classes)
        np.add.at(present_counts, ys, ws)
        base_entropy = entropy(present_counts)
        below = np.zeros(self._n_classes)
        best_gain, best_threshold, best_ratio = -1.0, None, 0.0
        min_obj = self.opt("min_obj")
        i = 0
        n = values.size
        while i < n - 1:
            below[ys[i]] += ws[i]
            if values[i + 1] <= values[i] + _EPS:
                i += 1
                continue
            left_total = below.sum()
            right = present_counts - below
            right_total = right.sum()
            if left_total < min_obj or right_total < min_obj:
                i += 1
                continue
            avg = (left_total * entropy(below)
                   + right_total * entropy(right)) / present_total
            gain = base_entropy - avg
            if gain > best_gain:
                best_gain = gain
                best_threshold = (values[i] + values[i + 1]) / 2.0
                si = entropy(np.array([left_total, right_total]))
                best_ratio = gain / si if si > _EPS else 0.0
            i += 1
        if best_threshold is None:
            return None
        # C4.5 release-8 correction: charge for choosing among thresholds
        best_gain -= math.log2(max(distinct.size - 1, 1)) / present_total
        best_gain *= present_total / total_w
        if best_gain < _EPS:
            return None
        return (best_gain, best_ratio, attr_idx, float(best_threshold))

    def _partition(self, attr_idx: int, threshold: float | None,
                   rows: np.ndarray, w: np.ndarray):
        """Split rows into branches, fanning missing rows out fractionally."""
        col = self._matrix[rows, attr_idx]
        missing = np.isnan(col)
        present = ~missing
        if threshold is None:
            n_branches = self._attrs[attr_idx].num_values
            masks = [present & (col == v) for v in range(n_branches)]
        else:
            masks = [present & (col <= threshold),
                     present & (col > threshold)]
        branch_w_present = [w[m].sum() for m in masks]
        present_total = sum(branch_w_present)
        branches = []
        miss_rows = rows[missing]
        miss_w = w[missing]
        for mask, wp in zip(masks, branch_w_present):
            r = rows[mask]
            ws = w[mask]
            if present_total > _EPS and miss_rows.size:
                frac = wp / present_total
                if frac > _EPS:
                    r = np.concatenate([r, miss_rows])
                    ws = np.concatenate([ws, miss_w * frac])
            branches.append((r, ws))
        return branches

    # -------------------------------------------------------------- pruning
    def _prune(self, node: TreeNode) -> float:
        """Post-order pessimistic pruning; returns the estimated subtree
        error after pruning."""
        cf = self.opt("confidence")
        if node.is_leaf:
            return node.errors() + added_errors(node.total_weight,
                                                node.errors(), cf)
        subtree_est = sum(self._prune(child) for child in node.children)
        leaf_est = node.errors() + added_errors(node.total_weight,
                                                node.errors(), cf)
        if leaf_est <= subtree_est + 0.1:
            node.make_leaf()
            return leaf_est
        return subtree_est


def same_tree(a: TreeNode, b: TreeNode) -> bool:
    """Node-for-node equality: attribute, threshold and class counts
    compared with ``==`` (no tolerance)."""
    return (a.attribute == b.attribute and a.threshold == b.threshold
            and a.branch_values == b.branch_values
            and a.class_counts.tolist() == b.class_counts.tolist()
            and len(a.children) == len(b.children)
            and all(same_tree(x, y)
                    for x, y in zip(a.children, b.children)))
