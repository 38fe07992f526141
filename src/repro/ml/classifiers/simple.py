"""Baseline classifiers: ZeroR, OneR and DecisionStump.

These are the first-generation single-algorithm tools the paper's related-work
section describes, and they serve as the floor for every evaluation: any
service-composed pipeline should beat ZeroR.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset
from repro.data.instance import Instance
from repro.errors import DataError
from repro.ml.base import CLASSIFIERS, Classifier
from repro.ml.classifiers._tree import contingency, entropy
from repro.ml.options import INT, OptionSpec


@CLASSIFIERS.register("ZeroR", "baseline", "rules")
class ZeroR(Classifier):
    """Predict the majority class, always."""

    def _fit(self, dataset: Dataset) -> None:
        counts = dataset.class_counts()
        if counts.sum() == 0:
            raise DataError("no labelled instances")
        self._dist = counts / counts.sum()

    def _distribution(self, instance: Instance) -> np.ndarray:
        return self._dist.copy()

    def _distribution_many(self, rows: np.ndarray) -> np.ndarray:
        return np.tile(self._dist, (rows.shape[0], 1))

    def model_text(self) -> str:
        label = self.header.class_attribute.values[int(np.argmax(self._dist))]
        return f"ZeroR predicts class value: {label}"


@CLASSIFIERS.register("OneR", "baseline", "rules")
class OneR(Classifier):
    """Holte's 1R: one rule on the single most predictive attribute.

    Numeric attributes are bucketed greedily with a minimum bucket size
    (option ``min_bucket``, Holte's SMALL parameter).
    """

    OPTIONS = (
        OptionSpec("min_bucket", INT, 6,
                   "Minimum instances per numeric bucket.", minimum=1),
    )

    def _fit(self, dataset: Dataset) -> None:
        best_correct = -1.0
        best = None
        y = dataset.class_values()
        weights = dataset.weights()
        n_classes = dataset.num_classes
        for idx, attr in enumerate(dataset.attributes):
            if idx == dataset.class_index or attr.is_string:
                continue
            col = dataset.column(idx)
            if attr.is_nominal:
                rule = self._nominal_rule(col, y, weights, attr.num_values,
                                          n_classes)
            else:
                rule = self._numeric_rule(col, y, weights, n_classes)
            if rule is None:
                continue
            correct, mapping = rule
            if correct > best_correct:
                best_correct = correct
                best = (idx, mapping)
        if best is None:
            raise DataError("OneR found no usable attribute")
        self._attr, self._mapping = best
        counts = dataset.class_counts()
        self._default = int(np.argmax(counts))
        self._n_classes = n_classes

    def _nominal_rule(self, col, y, w, n_values, n_classes):
        known = ~(np.isnan(col) | np.isnan(y))
        codes = col[known].astype(int) * n_classes + y[known].astype(int)
        table = contingency(codes, w[known], n_values, n_classes)
        mapping = ("nominal", table.argmax(axis=1))
        return float(table.max(axis=1).sum()), mapping

    def _numeric_rule(self, col, y, w, n_classes):
        present = ~(np.isnan(col) | np.isnan(y))
        if present.sum() < 2:
            return None
        values = col[present]
        classes = y[present].astype(int)
        ws = w[present]
        order = np.argsort(values, kind="stable")
        values, classes, ws = values[order], classes[order], ws[order]
        min_bucket = self.opt("min_bucket")
        cuts: list[float] = []
        preds: list[int] = []
        counts = np.zeros(n_classes)
        size = 0.0
        correct = 0.0
        i = 0
        n = len(values)
        while i < n:
            counts[classes[i]] += ws[i]
            size += ws[i]
            boundary = (i == n - 1) or (values[i + 1] > values[i])
            # close the bucket once it holds min_bucket of the majority class
            if boundary and counts.max() >= min_bucket and i < n - 1:
                cuts.append((values[i] + values[i + 1]) / 2.0)
                preds.append(int(np.argmax(counts)))
                correct += float(counts.max())
                counts = np.zeros(n_classes)
                size = 0.0
            i += 1
        preds.append(int(np.argmax(counts)) if size else 0)
        correct += float(counts.max()) if size else 0.0
        return correct, ("numeric", (np.array(cuts), np.array(preds)))

    def _distribution(self, instance: Instance) -> np.ndarray:
        kind, payload = self._mapping
        value = instance.value(self._attr)
        out = np.zeros(self._n_classes)
        if math.isnan(value):
            out[self._default] = 1.0
            return out
        if kind == "nominal":
            out[int(payload[int(value)])] = 1.0
        else:
            cuts, preds = payload
            bucket = int(np.searchsorted(cuts, value, side="right"))
            out[int(preds[bucket])] = 1.0
        return out

    def model_text(self) -> str:
        attr = self.header.attribute(self._attr)
        kind, payload = self._mapping
        lines = [f"{attr.name}:"]
        class_values = self.header.class_attribute.values
        if kind == "nominal":
            for value, cls in zip(attr.values, payload):
                lines.append(f"    {value} -> {class_values[int(cls)]}")
        else:
            cuts, preds = payload
            lo = "-inf"
            for cut, cls in zip(cuts, preds[:-1]):
                lines.append(f"    ({lo}, {cut:g}] -> "
                             f"{class_values[int(cls)]}")
                lo = f"{cut:g}"
            lines.append(f"    ({lo}, +inf) -> "
                         f"{class_values[int(preds[-1])]}")
        return "\n".join(lines)


@CLASSIFIERS.register("DecisionStump", "tree", "baseline")
class DecisionStump(Classifier):
    """A one-split decision tree chosen by information gain.

    Missing values form a third branch, matching WEKA's stump.
    """

    def _fit(self, dataset: Dataset) -> None:
        y = dataset.class_values()
        w = dataset.weights()
        n_classes = dataset.num_classes
        parent = dataset.class_counts()
        best_gain, best = -1.0, None
        for idx, attr in enumerate(dataset.attributes):
            if idx == dataset.class_index or attr.is_string:
                continue
            col = dataset.column(idx)
            present = ~(np.isnan(col) | np.isnan(y))
            if attr.is_nominal:
                for v in range(attr.num_values):
                    split = self._binary_counts(
                        col, y, w, present, col == v, n_classes)
                    gain = entropy(parent) - self._avg_entropy(split)
                    if gain > best_gain:
                        best_gain, best = gain, (idx, float(v), "eq", split)
            else:
                values = np.unique(col[present])
                for lo, hi in zip(values[:-1], values[1:]):
                    thr = (lo + hi) / 2.0
                    split = self._binary_counts(
                        col, y, w, present, col <= thr, n_classes)
                    gain = entropy(parent) - self._avg_entropy(split)
                    if gain > best_gain:
                        best_gain, best = gain, (idx, thr, "le", split)
        if best is None:
            raise DataError("DecisionStump found no usable split")
        self._attr, self._value, self._op, counts = best
        self._branch_dists = []
        for c in counts:
            total = c.sum()
            self._branch_dists.append(
                c / total if total > 0 else parent / parent.sum())

    @staticmethod
    def _binary_counts(col, y, w, present, mask, n_classes):
        in_counts = np.zeros(n_classes)
        out_counts = np.zeros(n_classes)
        miss_counts = np.zeros(n_classes)
        for i in range(len(col)):
            if math.isnan(y[i]):
                continue
            cls = int(y[i])
            if not present[i] or math.isnan(col[i]):
                miss_counts[cls] += w[i]
            elif mask[i]:
                in_counts[cls] += w[i]
            else:
                out_counts[cls] += w[i]
        return [in_counts, out_counts, miss_counts]

    @staticmethod
    def _avg_entropy(branch_counts) -> float:
        total = sum(float(c.sum()) for c in branch_counts)
        if total <= 0:
            return 0.0
        return sum(float(c.sum()) / total * entropy(c)
                   for c in branch_counts)

    def _distribution(self, instance: Instance) -> np.ndarray:
        value = instance.value(self._attr)
        if math.isnan(value):
            return self._branch_dists[2].copy()
        if self._op == "eq":
            hit = value == self._value
        else:
            hit = value <= self._value
        return self._branch_dists[0 if hit else 1].copy()

    def model_text(self) -> str:
        attr = self.header.attribute(self._attr)
        class_values = self.header.class_attribute.values
        if self._op == "eq":
            cond = f"{attr.name} = {attr.values[int(self._value)]}"
        else:
            cond = f"{attr.name} <= {self._value:g}"
        names = [class_values[int(np.argmax(d))] for d in self._branch_dists]
        return (f"Decision Stump\n\n{cond} : {names[0]}\n"
                f"not ({cond}) : {names[1]}\n"
                f"{attr.name} is missing : {names[2]}")
