"""Mesh worker main: one catalogue shard behind the async serving plane.

Run as a child process by the :class:`~repro.ws.mesh.supervisor
.WorkerSupervisor`::

    python -m repro.ws.mesh.worker --announce /path/announce.json \
        --services Classifier,Math

The worker deploys its shard of the algorithm catalogue into a
:class:`~repro.ws.container.ServiceContainer`, hosts it on an
:class:`~repro.ws.aserve.AsyncSoapHttpServer` with front-door admission
(the PR-6 arrangement), then *announces* itself by atomically writing a
JSON file — ``{"pid", "port", "base_url", "services", "uds_path",
"boot_id"}`` — which is how the supervisor learns the ephemeral port
(and optional same-host Unix socket) of a worker it just forked.
``SIGTERM`` drains gracefully: stop accepting, finish in-flight
dispatches, exit 0.

``--slow-ms`` installs a fixed pre-dispatch delay, modelling a cold or
distant site for the skewed-replica routing benchmark — the *worker*
degrades itself, so the mesh package needs no chaos import (the
layering lint forbids one).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import threading
import time

from repro.ws.aserve import AsyncSoapHttpServer
from repro.ws.container import ServiceContainer
from repro.ws.pipeline import ServerHandler, chain_insert_after


class SlowDispatch(ServerHandler):
    """A fixed pre-dispatch delay (models a cold/overloaded site)."""

    name = "slow"

    def __init__(self, delay_s: float):
        self.delay_s = delay_s

    def around(self, request, ctx):
        time.sleep(self.delay_s)
        return (yield request)


def build_container(services: list[str] | None,
                    lifecycle: str = "harness",
                    slow_ms: float = 0.0) -> ServiceContainer:
    """A container carrying the named shard of the toolbox catalogue."""
    from repro.services.deploy import TOOLBOX
    if services is None:
        services = list(TOOLBOX)
    unknown = sorted(set(services) - set(TOOLBOX))
    if unknown:
        raise SystemExit(f"unknown toolbox service(s) {unknown}; "
                         f"known: {sorted(TOOLBOX)}")
    container = ServiceContainer("mesh-worker")
    for name in services:
        cls, _ = TOOLBOX[name]
        container.deploy(cls, name, lifecycle=lifecycle)
    if slow_ms > 0:
        container.handlers = chain_insert_after(
            container.handlers, "deadline", SlowDispatch(slow_ms / 1000.0))
    return container


def announce(path: str, server: AsyncSoapHttpServer,
             services: list[str]) -> None:
    """Atomically publish this worker's coordinates for the supervisor."""
    from repro.ws import shm
    record = {"pid": os.getpid(), "port": server.port,
              "base_url": server.base_url, "services": services,
              "uds_path": server.uds_path or "",
              "boot_id": shm.boot_id()}
    fd, staging = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=".announce-")
    with os.fdopen(fd, "w") as handle:
        json.dump(record, handle)
    os.replace(staging, path)


def main(argv: list[str] | None = None) -> int:
    """Entry point for one forked worker: serve until told to stop.

    Binds an ephemeral port, writes the announce file, then blocks
    until SIGTERM/SIGINT triggers a drain-and-exit.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.ws.mesh.worker",
        description="one mesh worker: a catalogue shard on the async "
                    "serving plane")
    parser.add_argument("--announce", required=True, metavar="PATH",
                        help="JSON file to write once serving "
                             "(pid/port/base_url/services)")
    parser.add_argument("--services", default="all", metavar="CSV",
                        help="comma-separated shard, or 'all' "
                             "(default) for the full catalogue")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (default: ephemeral)")
    parser.add_argument("--lifecycle", default="harness",
                        choices=("harness", "serialize"))
    parser.add_argument("--max-concurrent", type=int, default=8,
                        dest="max_concurrent",
                        help="admission concurrency bound "
                             "(0 disables admission; default 8)")
    parser.add_argument("--slow-ms", type=float, default=0.0,
                        dest="slow_ms",
                        help="fixed per-dispatch delay in ms (skewed-"
                             "replica benchmarking; default 0)")
    parser.add_argument("--uds", default="", metavar="PATH",
                        help="also listen on this Unix socket path "
                             "(same-host zero-copy fast path)")
    args = parser.parse_args(argv)

    shard = None if args.services == "all" else \
        [s for s in args.services.split(",") if s]
    container = build_container(shard, lifecycle=args.lifecycle,
                                slow_ms=args.slow_ms)
    admission = None
    if args.max_concurrent > 0:
        from repro.ws.admission import AdmissionController
        admission = AdmissionController(
            max_concurrent=args.max_concurrent)
    server = AsyncSoapHttpServer(container, port=args.port,
                                 admission=admission,
                                 uds_path=args.uds or None).start()
    try:
        announce(args.announce, server, container.services())

        drain = threading.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: drain.set())
        drain.wait()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
