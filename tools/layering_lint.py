#!/usr/bin/env python
"""Layering lint: the byte movers must stay free of cross-cutting imports.

The handler-chain refactor moved every cross-cutting concern (tracing,
metrics, circuit breaking, chaos injection) out of the transports and
into :mod:`repro.ws.pipeline` chain steps.  This script keeps it that
way: it parses the named modules with :mod:`ast` and fails if any of
them imports a forbidden layer — at module level, inside a function, or
via ``from x import y``.

Run from the repo root (CI does)::

    python tools/layering_lint.py

Exit status 0 = clean, 1 = violations (listed on stderr).
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: module path (or package prefix ending in "/": every module in it,
#: so a new one is covered the day it is added) → import prefixes it
#: must not touch.  The movers (`transport`, `httpd`) may not observe,
#: break circuits, or inject chaos — those concerns live in chain steps
#: only; the client keeps a narrow obs exception for its WSDL-fetch
#: cache counters.
RULES: dict[str, tuple[str, ...]] = {
    # HTTP/1.1 is written once, in repro.ws.http11: the stdlib's client,
    # server and socketserver stay out of the package (tests keep
    # http.client as the independent interop client and reference)
    "src/repro/": ("http.client", "http.server", "socketserver"),
    "src/repro/ws/transport.py": ("repro.obs", "repro.ws.breaker",
                                  "repro.chaos", "repro.ws.scatter",
                                  "repro.ws.admission", "repro.ws.mesh"),
    "src/repro/ws/httpd.py": ("repro.ws.breaker", "repro.chaos",
                              "repro.ws.scatter", "repro.ws.admission",
                              "repro.ws.mesh"),
    "src/repro/ws/client.py": ("repro.ws.breaker", "repro.chaos"),
    # the shared-memory segment store is a pure same-host byte pool:
    # it maps and verifies segments, nothing else.  Counters for its
    # hits/misses are emitted by the payload layer above it, and it
    # may never dial a transport or reach into the mesh.
    "src/repro/ws/shm.py": ("repro.obs", "repro.chaos",
                            "repro.ws.breaker", "repro.ws.mesh",
                            "repro.ws.transport",
                            "repro.ws.admission"),
    "src/repro/ws/container.py": ("repro.ws.breaker", "repro.chaos"),
    # scatter-gather is batching *policy*: it may meter itself via obs
    # but never injects faults (chaos lives in the transport chains)
    "src/repro/ws/scatter.py": ("repro.chaos",),
    # admission is pure traffic policy: buckets, queue, tickets.  It
    # decides, it never moves bytes — no transports, no servers, no
    # clients, no chaos.  That keeps it attachable to every serving
    # plane (threaded httpd, asyncio aserve, in-process) unchanged.
    "src/repro/ws/admission.py": ("repro.ws.transport",
                                  "repro.ws.httpd", "repro.ws.aserve",
                                  "repro.ws.client", "repro.chaos"),
    # the async front door sheds *before* decoding and below any
    # client-side resilience: breakers and chaos stay out of it
    "src/repro/ws/aserve.py": ("repro.chaos", "repro.ws.breaker"),
    # the binary codec is a pure data-plane leaf: bytes in, typed
    # column blocks out.  It may not observe, inject faults, break
    # circuits, shed load — or talk to the wire at all.
    "src/repro/data/codec.py": ("repro.obs", "repro.chaos",
                                "repro.ws.breaker",
                                "repro.ws.admission", "repro.ws"),
    "src/repro/data/dataio.py": ("repro.obs", "repro.chaos",
                                 "repro.ws.breaker",
                                 "repro.ws.admission", "repro.ws"),
    # the mesh is routing/fleet *control* plane: it weighs replicas,
    # forks workers, fronts the fleet.  Faults are injected by the
    # chaos chain steps inside each worker, never by the mesh itself,
    # and model mathematics never leaks up into routing decisions.
    "src/repro/ws/mesh/": ("repro.chaos", "repro.ml"),
    # failover is pure policy: it reads exceptions, settles breakers
    # and walks candidates.  The caller's callback moves the bytes, so
    # it never needs a transport, a server, an envelope — or chaos.
    "src/repro/ws/failover.py": ("repro.chaos", "repro.ws.transport",
                                 "repro.ws.httpd", "repro.ws.aserve",
                                 "repro.ws.soap"),
    # the vectorised model kernels score matrices; shipping those
    # matrices is the services/ws layers' business, never theirs
    "src/repro/ml/base.py": ("repro.ws", "repro.services"),
    "src/repro/ml/evaluation.py": ("repro.ws",),
    "src/repro/ml/classifiers/j48.py": ("repro.ws", "repro.services"),
    "src/repro/ml/classifiers/ibk.py": ("repro.ws", "repro.services"),
    "src/repro/ml/clusterers/kmeans.py": ("repro.ws", "repro.services"),
}


#: module path → the only ``repro`` modules it may import.  The byte
#: layer sits under everything else in ``repro.ws``: it may raise the
#: package's errors and know nothing more.
ONLY: dict[str, tuple[str, ...]] = {
    "src/repro/ws/http11.py": ("repro.errors",),
}


def imported_names(tree: ast.AST):
    """Yield ``(lineno, module_name)`` for every import in *tree*; a
    ``from x import y`` yields ``x.y`` (``from http import client`` is
    an import of ``http.client``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.level == 0:
                for alias in node.names:
                    yield node.lineno, f"{node.module}.{alias.name}"


def check(path: str, forbidden: tuple[str, ...]) -> list[str]:
    """Violation messages for one module."""
    source = (REPO / path).read_text(encoding="utf-8")
    tree = ast.parse(source, filename=path)
    problems = []
    for lineno, name in imported_names(tree):
        for banned in forbidden:
            if name == banned or name.startswith(banned + "."):
                problems.append(
                    f"{path}:{lineno}: imports {name!r} "
                    f"(layer {banned!r} is forbidden here)")
        if path in ONLY and (name + ".").startswith("repro.") and \
                not (name + ".").startswith(
                    tuple(allowed + "." for allowed in ONLY[path])):
            problems.append(
                f"{path}:{lineno}: imports {name!r} (of repro, only "
                f"{', '.join(ONLY[path])} may be imported here)")
    return problems


@functools.lru_cache(maxsize=None)
def governed(rule: str) -> list[str]:
    """The module paths one rule key governs: itself, or — for a
    package prefix ending in ``/`` — every module under that package."""
    if not rule.endswith("/"):
        return [rule]
    return sorted(str(path.relative_to(REPO))
                  for path in (REPO / rule).rglob("*.py"))


def forbidden_for(path: str) -> tuple[str, ...]:
    """Every import prefix some rule bans for the module at *path*."""
    return tuple(banned for rule, forbidden in RULES.items()
                 if path in governed(rule) for banned in forbidden)


def main() -> int:
    failures: list[str] = []
    checked: set[str] = set()
    for rule in sorted({*RULES, *ONLY}):
        paths = governed(rule)
        if not paths or not all((REPO / p).exists() for p in paths):
            failures.append(f"{rule}: module missing (lint rules stale?)")
            continue
        checked.update(paths)
    for path in sorted(checked):
        failures.extend(check(path, forbidden_for(path)))
    count = len(checked)
    if failures:
        print("layering violations:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"layering lint: {count} modules clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
