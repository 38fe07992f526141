"""FIG-4 — regenerate the paper's Figure 4: the C4.5 decision tree for the
breast-cancer dataset with ``node-caps`` at the root.

The paper's figure is qualitative (a tree drawing); the reproduction
contract is (a) the root split is node-caps, (b) deg-malig appears directly
beneath it, (c) the tree renders textually and graphically.  The bench times
a full J48 fit.

PERF-J48 gates: induction runs on array kernels, and the per-row scalar
implementation it replaced survives as the test oracle
(``tests/ml/_j48_reference.py``).  Both are timed on the same data in the
same process and the *ratio* is gated, which machine speed cancels out of:
the Figure-4 fit must be at least 2x the oracle's speed, and a 2 000 x 8
numeric frame — one threshold scan per boundary in the oracle, one cumsum
per attribute in the kernel — at least 10x.

Run: PYTHONPATH=src python -m pytest benchmarks/test_bench_fig4_tree.py
     --benchmark-json=BENCH_fig4_tree.json
"""

import time

from repro.data import synthetic
from repro.ml.classifiers import J48
from repro.ml import evaluation
from repro.viz import treeviz
from tests.ml._j48_reference import ReferenceJ48, same_tree


def _oracle_ratio(benchmark, dataset, oracle_rounds: int) -> float:
    """Time the kernel (as the benchmark) and the scalar oracle (best of
    *oracle_rounds*) on *dataset*; returns oracle time / kernel time."""
    kernel = benchmark(lambda: J48().fit(dataset))
    kernel_s = benchmark.stats["min"]
    oracle_s = float("inf")
    for _ in range(oracle_rounds):
        start = time.perf_counter()
        oracle = ReferenceJ48().fit(dataset)
        oracle_s = min(oracle_s, time.perf_counter() - start)
    assert same_tree(kernel.root, oracle.root)
    ratio = oracle_s / kernel_s
    print(f"\nPERF-J48 {dataset.relation}: kernel {kernel_s * 1e3:.2f} ms, "
          f"oracle {oracle_s * 1e3:.2f} ms, ratio {ratio:.1f}x")
    benchmark.extra_info.update(kernel_ms=round(kernel_s * 1e3, 3),
                                oracle_ms=round(oracle_s * 1e3, 3),
                                ratio=round(ratio, 2))
    return ratio


def test_bench_fig4_j48_tree(benchmark, breast_cancer):
    model = benchmark(lambda: J48().fit(breast_cancer))

    assert model.root_attribute == "node-caps"
    below = breast_cancer.attribute(
        model.root.children[0].attribute).name
    assert below == "deg-malig"

    cv = evaluation.cross_validate(lambda: J48(), breast_cancer, k=10)
    print("\n=== FIG-4: regenerated decision tree ===")
    print(model.model_text())
    print(f"10-fold CV accuracy: {cv.accuracy:.3f}  kappa: {cv.kappa:.3f}")
    print("\n--- tree graph (text layout) ---")
    print(treeviz.tree_text(model.to_graph()))
    benchmark.extra_info["root"] = model.root_attribute
    benchmark.extra_info["leaves"] = model.root.num_leaves()
    benchmark.extra_info["cv_accuracy"] = round(cv.accuracy, 4)


def test_bench_fig4_kernel_at_least_2x_scalar_oracle(benchmark,
                                                     breast_cancer):
    assert _oracle_ratio(benchmark, breast_cancer, 5) >= 2.0


def test_bench_numeric_frame_kernel_at_least_10x_scalar_oracle(benchmark):
    frame = synthetic.numeric_two_class(2000, 8, seed=7)
    assert _oracle_ratio(benchmark, frame, 1) >= 10.0
