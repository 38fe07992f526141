"""The performance ledger: this repository's benchmark.

Four named, seeded, closed-loop workloads drive the SOAP stack from
outside; an untraced pass yields the end-to-end metrics and a separate
traced pass peels the same request through successively deeper public
entry points to give each layer its own row.  ``BENCHMARK.json`` at the
repository root is the contract (names, units, bounds); ``README.md``
in this directory is the artifact appendix.

Run ``python3 ledger/run.py --seed 1 --out .ledger_out`` from the
repository root for one complete ledger.
"""
