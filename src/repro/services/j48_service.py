"""The dedicated J48 Web Service (§4.1).

    "For example a J48 Web Service that implements a decision tree classifier
    based on the C4.5 algorithm.  The J48 service has two key options:
    (1) classify and (2) classify graph.  ...  The result of invoking the
    classify operation is a textual output specifying the classification
    decision tree.  The classify graph option is similar ... but the result
    is a graphical representation of the decision tree."

This per-algorithm service also demonstrates the §4.5 state problem: its
implementation object caches the last trained model (``self._last_model``),
which is exactly the state the naive Axis lifecycle serialised to disk after
every call.  Deploy it with ``lifecycle="serialize"`` vs ``"harness"`` to
reproduce the paper's performance comparison (the PERF-4.5 bench).
"""

from __future__ import annotations

from repro.data import arff, cache, dataio
from repro.ml import evaluation
from repro.ml.classifiers import J48
from repro.services.classifier_service import _note_batch
from repro.ws.service import operation


class J48Service:
    """C4.5 decision-tree service with stateful model caching."""

    def __init__(self) -> None:
        self._last_model: J48 | None = None
        self._last_key: tuple | None = None

    def _fit(self, dataset: str, attribute: str,
             options: dict | None) -> J48:
        # by content, not hash(): equal hashes do not make equal documents
        key = (cache.text_digest(dataset), attribute,
               tuple(sorted((options or {}).items())))
        if self._last_model is not None and key == self._last_key:
            return self._last_model  # interactive sessions hit this cache
        ds = dataio.parse_dataset(dataset)
        ds.set_class(attribute)
        model = J48(**(options or {}))
        model.fit(ds)
        self._last_model = model
        self._last_key = key
        return model

    @operation
    def classify(self, dataset: str, attribute: str,
                 options: dict = None) -> str:
        """Apply J48 to an ARFF dataset; returns the textual decision
        tree."""
        return self._fit(dataset, attribute, options).to_text()

    @operation
    def classifyGraph(self, dataset: str, attribute: str,  # noqa: N802
                      options: dict = None) -> dict:
        """Apply J48; returns the decision tree as a plottable node/edge
        graph."""
        model = self._fit(dataset, attribute, options)
        return {"root_attribute": model.root_attribute
                if model.root and not model.root.is_leaf else None,
                "graph": model.to_graph()}

    @operation
    def classifyDot(self, dataset: str, attribute: str,  # noqa: N802
                    options: dict = None) -> str:
        """Apply J48; returns the tree as Graphviz dot text."""
        return self._fit(dataset, attribute, options).to_dot()

    # -- bulk scoring (batched; rides the _last_model cache) ----------------
    @operation
    def classifyBatch(self, dataset: str, attribute: str,  # noqa: N802
                      rows: list = None, train: str = None,
                      options: dict = None) -> dict:
        """Score many rows of *dataset* with one J48 model (trained on
        *train* when given, else on *dataset*); see the general
        Classifier service's ``classifyBatch`` for the result shape."""
        model = self._fit(train if train else dataset, attribute, options)
        test_ds = dataio.parse_dataset(dataset)
        test_ds.set_class(attribute)
        out = evaluation.bulk_score(model, test_ds, rows)
        _note_batch("J48", len(rows) if rows is not None
                    else test_ds.num_instances)
        return out

    @operation
    def distributionBatch(self, dataset: str, attribute: str,  # noqa: N802
                          rows: list = None, train: str = None,
                          options: dict = None) -> dict:
        """Per-class probability vectors for many rows in one pass."""
        out = self.classifyBatch(dataset, attribute, rows=rows,
                                 train=train, options=options)
        return {"distributions": out["distributions"],
                "errors": out["errors"], "scored": out["scored"]}
