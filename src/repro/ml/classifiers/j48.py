"""J48 — a C4.5 release-8 style decision-tree learner.

This is the algorithm at the centre of the paper: the dedicated J48 Web
Service exposes ``classify`` (textual tree) and ``classify graph`` (plot-ready
tree), and the case study classifies the breast-cancer dataset with it,
yielding a tree rooted at ``node-caps`` (Figure 4).

Faithful C4.5 behaviours implemented here:

* gain-ratio attribute selection restricted to attributes whose information
  gain is at least the average positive gain;
* binary splits on numeric attributes with the per-attribute
  ``log2(distinct-1)/n`` gain correction;
* fractional instance weighting for missing split values, both during
  training (instances fan out across branches) and prediction;
* minimum-instances-per-branch constraint (``min_obj``, C4.5's ``-m``);
* pessimistic error-based pruning by subtree replacement using the
  confidence-factor upper bound (``confidence``, C4.5's ``-c``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset
from repro.data.instance import Instance
from repro.errors import DataError
from repro.ml.base import CLASSIFIERS, Classifier
from repro.ml.classifiers._tree import (TreeNode, cell_codes, contingency,
                                        distribute, distribute_many, entropy,
                                        entropy_rows, graph_to_dot,
                                        render_text, split_entropy,
                                        split_info, tree_graph)
from repro.ml.options import BOOL, FLOAT, INT, OptionSpec

_EPS = 1e-9


def _probit(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Avoids a SciPy dependency in the core library; accurate to ~1e-9, far
    beyond what pessimistic pruning needs.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probit needs p in (0,1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                * q + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q
                                + d[3]) * q + 1)
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                 * q + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q
                                 + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4])
            * r + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r
                                 + b[3]) * r + b[4]) * r + 1)


def added_errors(n: float, e: float, cf: float) -> float:
    """WEKA ``Stats.addErrs``: pessimistic extra errors for a leaf with *n*
    instances and *e* observed errors at confidence factor *cf*."""
    if cf > 0.5:
        raise DataError("confidence factor must be <= 0.5")
    if n <= 0:
        return 0.0
    if e < 1:
        base = n * (1 - cf ** (1.0 / n))
        if e <= 0:
            return base
        return base + e * (added_errors(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = _probit(1 - cf)
    f = (e + 0.5) / n
    r = (f + z * z / (2 * n)
         + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) \
        / (1 + z * z / n)
    return r * n - e


@CLASSIFIERS.register("J48", "tree", "c4.5", "pruning", "missing-values")
class J48(Classifier):
    """C4.5 decision-tree classifier (WEKA J48 analogue)."""

    OPTIONS = (
        OptionSpec("confidence", FLOAT, 0.25,
                   "Pruning confidence factor (C4.5 -c); smaller prunes "
                   "more aggressively.", minimum=1e-4, maximum=0.5),
        OptionSpec("min_obj", INT, 2,
                   "Minimum instances per branch (C4.5 -m).", minimum=1),
        OptionSpec("unpruned", BOOL, False,
                   "Build the full tree without pessimistic pruning."),
        OptionSpec("use_gain_ratio", BOOL, True,
                   "Select splits by gain ratio (True, C4.5) or raw "
                   "information gain (False, ID3-style)."),
    )

    def __init__(self, **options):
        super().__init__(**options)
        self.root: TreeNode | None = None

    # ------------------------------------------------------------------ fit
    def _fit(self, dataset: Dataset) -> None:
        y = dataset.class_values()
        keep = ~np.isnan(y)
        if not keep.any():
            raise DataError("all training instances have a missing class")
        self._matrix = dataset.to_matrix()[keep]
        self._y = y[keep].astype(int)
        weights = dataset.weights()[keep].astype(float)
        self._n_classes = dataset.num_classes
        self._attrs = dataset.attributes
        others = [i for i in range(len(self._attrs))
                  if i != dataset.class_index]
        self._numeric = [i for i in others if self._attrs[i].is_numeric]
        # a nominal attribute with fewer than two values cannot split
        self._nominal = [i for i in others if self._attrs[i].is_nominal
                         and self._attrs[i].num_values > 1]
        block = self._matrix[:, self._nominal]
        self._codes, self._starts = cell_codes(
            block, [self._attrs[i].num_values for i in self._nominal],
            self._y, self._n_classes)
        self._holes = np.flatnonzero(np.isnan(block).any(axis=0)).tolist()
        rows = np.arange(self._matrix.shape[0])
        self.root = self._build(rows, weights,
                                frozenset({dataset.class_index}),
                                self._counts(rows, weights))
        if not self.opt("unpruned"):
            self._prune(self.root)
        # free training buffers; the tree is self-contained
        del self._matrix, self._y, self._codes

    def _counts(self, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.bincount(self._y[rows], weights=w,
                           minlength=self._n_classes)

    def _build(self, rows: np.ndarray, w: np.ndarray,
               used: frozenset[int], counts: np.ndarray) -> TreeNode:
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
        attr_idx, threshold, child_counts = best
        node.attribute = attr_idx
        node.threshold = threshold
        if threshold is None:
            node.branch_values = list(self._attrs[attr_idx].values)
            used = used | {attr_idx}
        branches = self._partition(attr_idx, threshold, rows, w)
        for branch, (branch_rows, branch_w) in enumerate(branches):
            if branch_rows.size == 0 or branch_w.sum() < _EPS:
                child = TreeNode(class_counts=counts.copy())
            else:
                child = self._build(
                    branch_rows, branch_w, used,
                    self._counts(branch_rows, branch_w)
                    if child_counts is None else child_counts[branch].copy())
            node.children.append(child)
        return node

    # ------------------------------------------------------------ splitting
    def _select_split(self, rows: np.ndarray, w: np.ndarray,
                      counts: np.ndarray, used: frozenset[int]):
        """Return ``(attr_idx, threshold, child_counts)`` of the best split;
        *child_counts* is the children's class counts, one row per branch,
        when the contingency table already holds them (a nominal split with
        no missing cell), else ``None``.  A candidate is ``(gain, ratio,
        attr_idx, threshold, table rows, no missing cell)``."""
        total_w = w.sum()
        candidates = self._nominal_candidates(rows, w, total_w, counts, used)
        for attr_idx in self._numeric:
            cand = self._numeric_candidate(attr_idx, rows, w, total_w)
            if cand is not None:
                candidates.append(cand)
        if not candidates:
            return None
        candidates.sort(key=lambda c: c[2])  # ties go to the first attribute
        gains = [c[0] for c in candidates]
        avg_gain = sum(gains) / len(gains)
        eligible = [c for c in candidates if c[0] >= avg_gain - _EPS]
        if self.opt("use_gain_ratio"):
            best = max(eligible, key=self._gain_ratio)
        else:
            best = max(eligible, key=lambda c: c[0])
        return best[2], best[3], best[4] if best[5] else None

    @staticmethod
    def _gain_ratio(candidate: tuple) -> float:
        gain, ratio, _, _, table, _ = candidate
        if ratio is None:  # nominal: split info only for the finalists
            si = split_info(table)
            ratio = gain / si if si > _EPS else 0.0
        return ratio

    def _nominal_candidates(self, rows: np.ndarray, w: np.ndarray,
                            total_w: float, counts: np.ndarray,
                            used: frozenset[int]) -> list[tuple]:
        """Score every nominal attribute from one contingency table."""
        if not self._nominal:
            return []
        codes = self._codes[rows]
        present = codes >= 0
        table = contingency(
            codes[present], np.repeat(w, codes.shape[1])[present.ravel()],
            self._starts[-1], self._n_classes)
        starts = self._starts[:-1]
        # C4.5 scores an attribute on the rows where its value is known ...
        present_total = np.full(len(starts), total_w)
        base_entropy = np.full(len(starts), entropy(counts))
        complete = [True] * len(starts)
        for j in self._holes:
            known = present[:, j]
            complete[j] = bool(known.all())
            if not complete[j]:
                present_total[j] = w[known].sum()
                base_entropy[j] = entropy(self._counts(rows[known], w[known]))
        branches = np.add.reduceat(
            (table.sum(axis=1) >= self.opt("min_obj")).astype(int), starts)
        # ... and scales gain by the fraction of instances that have one
        gain = ((base_entropy - split_entropy(table, starts))
                * (present_total / total_w))
        return [(gain[j], None, self._nominal[j], None,
                 table[self._starts[j]:self._starts[j + 1]], complete[j])
                for j in np.flatnonzero((present_total >= _EPS)
                                        & (branches >= 2) & (gain >= _EPS))
                if self._nominal[j] not in used]

    def _numeric_candidate(self, attr_idx: int, rows: np.ndarray,
                           w: np.ndarray, total_w: float):
        """Best binary threshold: every boundary of the sorted column is
        scored at once from per-class running sums."""
        col = self._matrix[rows, attr_idx]
        present = ~np.isnan(col)
        values, ys, ws = col[present], self._y[rows][present], w[present]
        present_total = ws.sum()
        min_obj = self.opt("min_obj")
        if present_total < _EPS or values.size < 2 * min_obj:
            return None
        order = np.argsort(values, kind="stable")
        values, ys, ws = values[order], ys[order], ws[order]
        distinct = 1 + np.count_nonzero(values[1:] != values[:-1])
        # below[i] = class counts of sorted rows 0..i, added in that order
        below = np.zeros((values.size, self._n_classes))
        below[np.arange(values.size), ys] = ws
        np.cumsum(below, axis=0, out=below)
        present_counts = below[-1]
        cuts = np.flatnonzero(values[1:] > values[:-1] + _EPS)
        left = below[cuts]
        right = present_counts - left
        left_total, right_total = left.sum(axis=1), right.sum(axis=1)
        ok = (left_total >= min_obj) & (right_total >= min_obj)
        if not ok.any():
            return None
        cuts, sizes = cuts[ok], (left_total[ok], right_total[ok])
        gains = entropy(present_counts) - (
            sizes[0] * entropy_rows(left[ok])
            + sizes[1] * entropy_rows(right[ok])) / present_total
        i = int(np.argmax(gains))  # the first of equal maxima
        threshold = (values[cuts[i]] + values[cuts[i] + 1]) / 2.0
        si = entropy(np.array([sizes[0][i], sizes[1][i]]))
        ratio = gains[i] / si if si > _EPS else 0.0
        # C4.5 release-8 correction: charge for choosing among thresholds
        gain = gains[i] - math.log2(max(distinct - 1, 1)) / present_total
        gain *= present_total / total_w
        if gain < _EPS:
            return None
        return (gain, ratio, attr_idx, float(threshold), None, False)

    def _partition(self, attr_idx: int, threshold: float | None,
                   rows: np.ndarray, w: np.ndarray):
        """Split rows into branches, fanning missing rows out fractionally."""
        col = self._matrix[rows, attr_idx]
        present = ~np.isnan(col)
        n_branches = 2 if threshold is not None \
            else self._attrs[attr_idx].num_values
        branch = (col[present] if threshold is None
                  else col[present] > threshold).astype(int)
        order = np.argsort(branch, kind="stable")
        ends = np.cumsum(np.bincount(branch, minlength=n_branches)).tolist()
        rows_in, w_in = rows[present][order], w[present][order]
        branches = [(rows_in[s:e], w_in[s:e])
                    for s, e in zip([0] + ends, ends)]
        miss_rows, miss_w = rows[~present], w[~present]
        if miss_rows.size:
            branch_w_present = [ws.sum() for _, ws in branches]
            present_total = sum(branch_w_present)
            for b, wp in enumerate(branch_w_present):
                if present_total > _EPS and wp / present_total > _EPS:
                    branches[b] = (
                        np.concatenate([branches[b][0], miss_rows]),
                        np.concatenate([branches[b][1],
                                        miss_w * (wp / present_total)]))
        return branches

    # -------------------------------------------------------------- pruning
    def _prune(self, node: TreeNode) -> float:
        """Post-order pessimistic pruning; returns the estimated subtree
        error after pruning."""
        total = node.total_weight
        errors = total - float(node.class_counts.max())
        leaf_est = errors + added_errors(total, errors,
                                         self.opt("confidence"))
        if node.is_leaf:
            return leaf_est
        subtree_est = sum(self._prune(child) for child in node.children)
        if leaf_est <= subtree_est + 0.1:
            node.make_leaf()
            return leaf_est
        return subtree_est

    # ----------------------------------------------------------- prediction
    def _distribution(self, instance: Instance) -> np.ndarray:
        assert self.root is not None
        return distribute(self.root, instance, self.header.num_classes)

    def _distribution_many(self, matrix: np.ndarray) -> np.ndarray:
        assert self.root is not None
        return distribute_many(self.root, matrix,
                               self.header.num_classes)

    # ------------------------------------------------------------- reporting
    def model_text(self) -> str:
        if self.root is None:
            return "(not fitted)"
        kind = "unpruned" if self.opt("unpruned") else "pruned"
        return (f"J48 {kind} tree\n------------------\n"
                + render_text(self.root, self.header))

    def to_graph(self) -> dict:
        """Node/edge payload for the ``classifyGraph`` operation."""
        assert self.root is not None
        return tree_graph(self.root, self.header)

    def to_dot(self) -> str:
        """Graphviz dot text for the TreeVisualizer tool."""
        return graph_to_dot(self.to_graph(), "J48")

    @property
    def root_attribute(self) -> str:
        """Name of the attribute at the tree root (Figure 4 check)."""
        assert self.root is not None
        if self.root.is_leaf:
            raise DataError("tree is a single leaf")
        return self.header.attribute(self.root.attribute).name
