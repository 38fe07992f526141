"""Shared decision-tree machinery for the tree-based classifiers (ID3, J48,
DecisionStump, RandomTree).

The node structure doubles as the *graph* the paper's ``classifyGraph``
operation ships to the TreeVisualizer tool: :func:`tree_graph` flattens a tree
into nodes + labelled edges, and :func:`render_text` prints WEKA's
pipe-indented layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.instance import Instance


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a count vector."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    # guard against subnormal counts underflowing to exactly 0 in the
    # division above (0 * log2(0) would be NaN)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def entropy_rows(table: np.ndarray) -> np.ndarray:
    """:func:`entropy` of every row of a 2-D count table, bit for bit.

    Zero cells stay in place: a running sum (``cumsum``) passes over them
    unchanged, and ``ndarray.sum`` is that same left-to-right sum while a
    row has under eight positive cells.  Wider rows go through ``entropy``.
    """
    totals = table.sum(axis=1)
    p = table / np.where(totals > 0, totals, 1.0)[:, None]
    positive = p > 0
    terms = p * np.log2(p, out=np.zeros_like(p), where=positive)
    out = np.where(totals > 0, -np.cumsum(terms, axis=1)[:, -1], 0.0)
    if table.shape[1] >= 8:
        for row in np.flatnonzero(positive.sum(axis=1) >= 8):
            out[row] = entropy(table[row])
    return out


def cell_codes(block: np.ndarray, n_values: Sequence[int],
               classes: np.ndarray, n_classes: int
               ) -> tuple[np.ndarray, list[int]]:
    """Offset-code a block of nominal columns for :func:`contingency`.

    Column ``j`` owns one table row (*cell*) per value, from ``starts[j]``
    on; an observation's code is ``cell * n_classes + class``, or -1 where
    the value is missing.  Returns ``(codes, starts)``, ``starts[-1]``
    being the cell count.
    """
    starts = [0, *np.cumsum(n_values, dtype=int).tolist()]
    cells = np.nan_to_num(block).astype(int) + starts[:-1]
    return np.where(np.isnan(block), -1,
                    cells * n_classes + classes[:, None]), starts


def contingency(codes: np.ndarray, weights: np.ndarray, n_cells: int,
                n_classes: int) -> np.ndarray:
    """Weighted ``(cell, class)`` contingency table, the one counting
    primitive of the tree and rule learners: one pass counts any number of
    attributes, and ``bincount`` adds the weights in input order, so each
    count equals a ``table[cell, class] += weight`` loop to the last bit."""
    return np.bincount(codes, weights=weights,
                       minlength=n_cells * n_classes
                       ).reshape(n_cells, n_classes)


def split_entropy(table: np.ndarray,
                  starts: Sequence[int] = (0,)) -> np.ndarray:
    """Weighted average entropy after each split of a stacked table: rows
    ``starts[i]:starts[i + 1]`` are the branches of split ``i`` (one
    attribute's values); one result per split."""
    blocks = list(zip(starts, (*starts[1:], len(table))))
    sizes = table.sum(axis=1)
    size_list = sizes.tolist()
    totals = [sum(size_list[s:e]) or 1.0 for s, e in blocks]
    per_row = np.repeat(totals, [e - s for s, e in blocks])
    weighted = (sizes / per_row * entropy_rows(table)).tolist()
    return np.array([sum(weighted[s:e]) for s, e in blocks])


def info_gain(parent_counts: np.ndarray, table: np.ndarray,
              starts: Sequence[int] = (0,)) -> np.ndarray:
    """Information gain of each split of a stacked table."""
    return entropy(parent_counts) - split_entropy(table, starts)


def split_info(table: np.ndarray) -> float:
    """Intrinsic information of one split's partition (the gain-ratio
    denominator); *table* holds that split's branches only."""
    return entropy(table.sum(axis=1))


@dataclass
class TreeNode:
    """One decision-tree node.

    A leaf holds only ``class_counts``.  An internal node holds the split
    attribute index plus either per-value children (nominal) or a numeric
    ``threshold`` with exactly two children (``<=`` then ``>``).
    """

    class_counts: np.ndarray
    attribute: int = -1
    threshold: float | None = None
    children: list["TreeNode"] = field(default_factory=list)
    branch_values: list[str] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def total_weight(self) -> float:
        return float(self.class_counts.sum())

    @property
    def majority_class(self) -> int:
        return int(np.argmax(self.class_counts))

    def errors(self) -> float:
        """Training errors if this node were a leaf."""
        return self.total_weight - float(self.class_counts.max())

    def subtree_errors(self) -> float:
        """Training errors of the full subtree."""
        if self.is_leaf:
            return self.errors()
        return sum(child.subtree_errors() for child in self.children)

    def num_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return sum(child.num_leaves() for child in self.children)

    def size(self) -> int:
        """Total node count (WEKA's 'Size of the tree')."""
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def make_leaf(self) -> None:
        """Collapse this subtree into a leaf (pruning primitive)."""
        self.children = []
        self.branch_values = []
        self.attribute = -1
        self.threshold = None

    def walk(self) -> Iterator["TreeNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def distribute(node: TreeNode, instance: Instance,
               n_classes: int) -> np.ndarray:
    """C4.5 prediction: missing split values fan out over all branches
    weighted by training mass."""
    if node.is_leaf:
        total = node.total_weight
        if total <= 0:
            return np.full(n_classes, 1.0 / n_classes)
        return node.class_counts / total
    value = instance.value(node.attribute)
    if math.isnan(value):
        weights = np.array([max(c.total_weight, 0.0)
                            for c in node.children])
        if weights.sum() <= 0:
            weights = np.ones(len(node.children))
        weights = weights / weights.sum()
        out = np.zeros(n_classes)
        for w, child in zip(weights, node.children):
            out += w * distribute(child, instance, n_classes)
        return out
    if node.threshold is not None:
        child = node.children[0] if value <= node.threshold \
            else node.children[1]
        return distribute(child, instance, n_classes)
    idx = int(value)
    if not 0 <= idx < len(node.children):
        total = node.total_weight
        if total <= 0:
            return np.full(n_classes, 1.0 / n_classes)
        return node.class_counts / total
    return distribute(node.children[idx], instance, n_classes)


def _node_distribution(node: TreeNode, n_classes: int) -> np.ndarray:
    total = node.total_weight
    if total <= 0:
        return np.full(n_classes, 1.0 / n_classes)
    return node.class_counts / total


def _distributions_for(node: TreeNode, matrix: np.ndarray,
                       rows: np.ndarray, n_classes: int) -> np.ndarray:
    """Batched descent: distributions for ``matrix[rows]`` under *node*.

    Each tree node partitions its row subset with one vectorised mask
    instead of the scalar path's per-row Python descent; semantics match
    :func:`distribute` cell for cell (missing values fan out over the
    children weighted by training mass, out-of-table nominal indices
    stop at the node's own distribution).
    """
    res = np.empty((rows.size, n_classes))
    if node.is_leaf:
        res[:] = _node_distribution(node, n_classes)
        return res
    vals = matrix[rows, node.attribute]
    miss = np.isnan(vals)
    if miss.any():
        weights = np.array([max(c.total_weight, 0.0)
                            for c in node.children])
        if weights.sum() <= 0:
            weights = np.ones(len(node.children))
        weights = weights / weights.sum()
        acc = np.zeros((int(miss.sum()), n_classes))
        for w, child in zip(weights, node.children):
            acc += w * _distributions_for(child, matrix, rows[miss],
                                          n_classes)
        res[miss] = acc
    present = ~miss
    if present.any():
        pvals = vals[present]
        prows = rows[present]
        sub = np.empty((prows.size, n_classes))
        if node.threshold is not None:
            left = pvals <= node.threshold
            if left.any():
                sub[left] = _distributions_for(
                    node.children[0], matrix, prows[left], n_classes)
            if not left.all():
                sub[~left] = _distributions_for(
                    node.children[1], matrix, prows[~left], n_classes)
        else:
            idx = pvals.astype(int)
            known = (idx >= 0) & (idx < len(node.children))
            if not known.all():
                sub[~known] = _node_distribution(node, n_classes)
            for j, child in enumerate(node.children):
                branch = known & (idx == j)
                if branch.any():
                    sub[branch] = _distributions_for(
                        child, matrix, prows[branch], n_classes)
        res[present] = sub
    return res


def distribute_many(node: TreeNode, matrix: np.ndarray,
                    n_classes: int) -> np.ndarray:
    """Vectorised :func:`distribute` over every row of *matrix*."""
    mat = np.asarray(matrix, dtype=float)
    rows = np.arange(mat.shape[0], dtype=np.intp)
    return _distributions_for(node, mat, rows, n_classes)


def _branch_label(node: TreeNode, branch: int, header: Dataset) -> str:
    attr = header.attribute(node.attribute)
    if node.threshold is not None:
        op = "<=" if branch == 0 else ">"
        return f"{attr.name} {op} {node.threshold:g}"
    return f"{attr.name} = {node.branch_values[branch]}"


def render_text(node: TreeNode, header: Dataset) -> str:
    """WEKA J48-style pipe-indented rendering."""
    class_values = header.class_attribute.values
    lines: list[str] = []

    def leaf_suffix(leaf: TreeNode) -> str:
        label = class_values[leaf.majority_class]
        total = leaf.total_weight
        wrong = leaf.errors()
        if wrong > 0:
            return f": {label} ({total:g}/{wrong:g})"
        return f": {label} ({total:g})"

    def rec(n: TreeNode, depth: int) -> None:
        for branch, child in enumerate(n.children):
            prefix = "|   " * depth
            label = _branch_label(n, branch, header)
            if child.is_leaf:
                lines.append(prefix + label + leaf_suffix(child))
            else:
                lines.append(prefix + label)
                rec(child, depth + 1)

    if node.is_leaf:
        lines.append(leaf_suffix(node)[2:])
    else:
        rec(node, 0)
    lines.append("")
    lines.append(f"Number of Leaves  : {node.num_leaves()}")
    lines.append(f"Size of the tree  : {node.size()}")
    return "\n".join(lines)


def tree_graph(node: TreeNode, header: Dataset) -> dict:
    """Flatten a tree into the node/edge payload of ``classifyGraph``."""
    class_values = header.class_attribute.values
    nodes: list[dict] = []
    edges: list[dict] = []

    def rec(n: TreeNode) -> int:
        nid = len(nodes)
        if n.is_leaf:
            label = (f"{class_values[n.majority_class]} "
                     f"({n.total_weight:g}/{n.errors():g})")
            nodes.append({"id": nid, "label": label, "leaf": True})
        else:
            attr = header.attribute(n.attribute)
            nodes.append({"id": nid, "label": attr.name, "leaf": False})
        for branch, child in enumerate(n.children):
            if n.threshold is not None:
                edge_label = ("<= " if branch == 0 else "> ") + \
                    f"{n.threshold:g}"
            else:
                edge_label = n.branch_values[branch]
            cid = rec(child)
            edges.append({"source": nid, "target": cid,
                          "label": edge_label})
        return nid

    rec(node)
    return {"nodes": nodes, "edges": edges}


def graph_to_dot(graph: dict, title: str = "tree") -> str:
    """Render a tree graph dict as Graphviz dot text (visualiser input)."""
    lines = [f'digraph "{title}" {{']
    for n in graph["nodes"]:
        shape = "box" if n["leaf"] else "ellipse"
        lines.append(f'  n{n["id"]} [label="{n["label"]}", shape={shape}];')
    for e in graph["edges"]:
        lines.append(f'  n{e["source"]} -> n{e["target"]} '
                     f'[label="{e["label"]}"];')
    lines.append("}")
    return "\n".join(lines)
