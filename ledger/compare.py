"""Compare two ledgers: ``python3 ledger/compare.py A.json B.json``.

A is the base, B the candidate; each is a ``ledger.json`` holding one
or more runs per workload.  One row per (end-to-end metric, workload):
both medians, the ratio B/A with its base, the bound from
``BENCHMARK.json`` and a verdict —

* ``ok``          B's median is no worse than A's by more than the bound;
* ``regressed``   it is;
* ``unresolved``  the run-to-run spread (quartile distance over median,
  the wider of the two sides; the ``spread`` column) exceeds the bound
  and the two sets of runs overlap, so the difference cannot be told
  from noise.

Exit status is non-zero on any regression, or any rise in
``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics the ledger records beside the contract's uniform set.  Only
#: ``noop_call`` has the samples a 99th percentile needs; peak memory
#: of the bulk workloads spreads ~17 % run to run (allocator arenas in
#: the worker's threads), too wide for the contract's spread test.
EXTRA_BOUNDS = {"latency_p99_ms": ("ms", "lower", 0.10),
                "peak_rss_mb": ("MB", "lower", 0.10)}


def _spread(runs: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    if len(runs) < 2:
        return 0.0
    quartiles = statistics.quantiles(runs, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(runs)


def judge(base: list[float], cand: list[float], better: str,
          bound: float) -> tuple[str, float, float]:
    """``(verdict, share by which the candidate's median is worse,
    the wider side's spread)``."""
    a, b = statistics.median(base), statistics.median(cand)
    worse = (b - a) / a if better == "lower" else (a - b) / a
    spread = max(_spread(base), _spread(cand))
    overlap = min(base) <= max(cand) and min(cand) <= max(base)
    if spread > bound and overlap:
        return "unresolved", worse, spread
    return ("regressed" if worse > bound else "ok"), worse, spread


def rows(a: dict, b: dict, contract: dict) -> list[dict]:
    """One comparison row per (metric, workload) present in both."""
    specs = [(m["name"], m["unit"], m["better"], m["bound"])
             for m in contract["end_to_end"]]
    specs += [(name, *spec) for name, spec in EXTRA_BOUNDS.items()]
    out = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for name, unit, better, bound in specs:
            if name in wa["end_to_end"]:
                base = wa["end_to_end"][name]["runs"]
                cand = wb["end_to_end"][name]["runs"]
            elif name in wa["extra"] and name in wb["extra"]:
                base, cand = wa["extra"][name], wb["extra"][name]
            else:
                continue
            verdict, worse, spread = judge(base, cand, better, bound)
            out.append({"workload": workload, "metric": name, "unit": unit,
                        "base": statistics.median(base),
                        "candidate": statistics.median(cand),
                        "bound": bound, "worse_by": worse,
                        "spread": spread, "verdict": verdict})
        failed_a = max(wa["extra"]["failed_share"])
        failed_b = max(wb["extra"]["failed_share"])
        out.append({"workload": workload, "metric": "failed_share",
                    "unit": "ratio", "base": failed_a,
                    "candidate": failed_b, "bound": 0.0,
                    "worse_by": failed_b - failed_a, "spread": 0.0,
                    "verdict": "regressed" if failed_b > failed_a
                    else "ok"})
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = rows(a, b, contract)
    print(f"base A = {argv[0]} ({a['runs']} run(s), seed {a['seed']}, "
          f"commit {a['fingerprint']['commit'][:12]})")
    print(f"cand B = {argv[1]} ({b['runs']} run(s), seed {b['seed']}, "
          f"commit {b['fingerprint']['commit'][:12]})")
    if a["fingerprint"]["boot_id"] != b["fingerprint"]["boot_id"]:
        print("warning: different machines or boots; absolute numbers "
              "only compare within one")
    print(f"{'workload':12s} {'metric':24s} {'A (base)':>14s} "
          f"{'B':>14s} {'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for row in table:
        ratio = f"{row['candidate'] / row['base']:7.3f}" if row["base"] \
            else f"{'-':>7s}"
        print(f"{row['workload']:12s} {row['metric']:24s} "
              f"{row['base']:14.4f} {row['candidate']:14.4f} {ratio} "
              f"{row['spread']:7.3f} {row['bound']:6.2f}  "
              f"{row['verdict']}  [{row['unit']}]")
    bad = [r for r in table if r["verdict"] == "regressed"]
    unresolved = sum(r["verdict"] == "unresolved" for r in table)
    print(f"{len(table)} rows: {len(bad)} regressed, "
          f"{unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
