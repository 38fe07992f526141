"""The mesh process plane: fork, watch, restart, drain worker processes.

:class:`WorkerSupervisor` owns N child processes, each running
``python -m repro.ws.mesh.worker`` with its catalogue shard.  The
contract with the worker is deliberately tiny:

* **Announce.**  A worker binds an ephemeral port and atomically writes
  a JSON announce file; the supervisor polls for it, then publishes one
  registry entry per hosted service — ``{service}@{worker_id}`` with a
  lease — so discovery reflects the worker the moment it serves.
* **Watchdog.**  A background thread polls child liveness.  A crashed
  worker's entries are withdrawn immediately (callers stop routing to
  it without waiting for lease expiry) and the worker is relaunched
  after an exponential backoff (``BACKOFF_BASE_S · 2^(n-1)``, capped at
  ``BACKOFF_CAP_S``), so a crash-looping shard cannot fork-bomb the
  host.
* **Heartbeat.**  Leases are renewed ``HEARTBEATS_PER_LEASE`` times
  per lease TTL (at most every ``HEARTBEAT_FLOOR_S``) while the child
  lives.  If the *supervisor* dies, nobody renews and the fleet
  ages out of the registry on its own — the lease is the liveness
  ground truth.
* **Drain.**  :meth:`stop` sends ``SIGTERM`` (the worker finishes
  in-flight dispatches and exits), escalating to ``SIGKILL`` only
  after a grace period, then withdraws the registry entries.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import RegistryError
from repro.obs import get_metrics
from repro.ws import payload, shm
from repro.ws.mesh.endpoints import (MESH_CATEGORY, port_type_of,
                                     service_category)
from repro.ws.registry import UDDIRegistry
from repro.ws.transport import unix_url

#: Seconds a SIGTERMed worker gets to drain before SIGKILL.
DRAIN_GRACE_S = 5.0
#: Lease renewals per lease TTL, and the shortest renewal period.
HEARTBEATS_PER_LEASE = 3.0
HEARTBEAT_FLOOR_S = 0.5
#: A crashed worker's relaunch delay: ``BACKOFF_BASE_S · 2^(n-1)`` after
#: its n-th crash, never more than ``BACKOFF_CAP_S``.
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 10.0
#: Seconds a freshly forked worker has to write its announce file.
SPAWN_TIMEOUT_S = 60.0
#: Seconds between two watchdog passes over the fleet.
POLL_INTERVAL_S = 0.2


def _backoff(restarts: int) -> float:
    """Seconds before the relaunch that follows crash number *restarts*."""
    return min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** (restarts - 1)))


@dataclass(frozen=True)
class WorkerSpec:
    """What one worker should host (``services=None`` = full catalogue)."""

    worker_id: str
    services: tuple[str, ...] | None = None
    slow_ms: float = 0.0
    max_concurrent: int = 8
    lifecycle: str = "harness"


@dataclass
class WorkerHandle:
    """One supervised worker's live state."""

    spec: WorkerSpec
    process: subprocess.Popen | None = None
    port: int = 0
    base_url: str = ""
    services: tuple[str, ...] = ()
    entry_names: tuple[str, ...] = ()
    restarts: int = 0
    restart_at: float | None = None
    stderr_path: str = ""
    uds_path: str = ""
    boot_id: str = ""
    _extra: dict = field(default_factory=dict)

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def as_dict(self) -> dict:
        """JSON-ready snapshot for ``/mesh/status`` and the CLI."""
        return {"worker_id": self.spec.worker_id, "pid": self.pid,
                "port": self.port, "base_url": self.base_url,
                "services": list(self.services),
                "restarts": self.restarts, "alive": self.alive,
                "uds_path": self.uds_path}


class WorkerSupervisor:
    """Forks the worker fleet and keeps it (and its leases) alive."""

    def __init__(self, specs: list[WorkerSpec], registry: UDDIRegistry,
                 *, lease_ttl_s: float = 15.0,
                 transport: str = "tcp",
                 clock: Clock = SYSTEM_CLOCK):
        if not specs:
            raise ValueError("a mesh needs at least one worker spec")
        if transport not in ("tcp", "uds"):
            raise ValueError(f"unknown transport {transport!r}; "
                             f"expected 'tcp' or 'uds'")
        ids = [spec.worker_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate worker ids in {ids}")
        self.registry = registry
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_s = max(HEARTBEAT_FLOOR_S,
                               lease_ttl_s / HEARTBEATS_PER_LEASE)
        self.transport = transport
        self._clock = clock
        self.handles = [WorkerHandle(spec=spec) for spec in specs]
        self._dir = ""
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "WorkerSupervisor":
        """Spawn every worker, publish its endpoints, arm the watchdog."""
        # reclaim shm segments orphaned by a previous fleet that died
        # without draining (the refcounted lifecycle's crash backstop)
        payload.sweep_shm_orphans()
        self._dir = tempfile.mkdtemp(prefix="repro-mesh-")
        try:
            for handle in self.handles:
                self._launch(handle)
                self._publish(handle)
        except Exception:
            self.stop()
            raise
        self._thread = threading.Thread(target=self._watch, daemon=True,
                                        name="mesh-supervisor")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain the fleet: SIGTERM, grace, SIGKILL, withdraw entries."""
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        for handle in self.handles:
            process = handle.process
            if process is None or process.poll() is not None:
                continue
            process.send_signal(signal.SIGTERM)
        for handle in self.handles:
            process = handle.process
            if process is None:
                continue
            try:
                process.wait(timeout=DRAIN_GRACE_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=DRAIN_GRACE_S)
        for handle in self.handles:
            self._unpublish(handle)
        if self._dir:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = ""
        # drop this process's owned segments, then sweep anything the
        # (now dead) workers left mapped in /dev/shm
        payload.release_shm_segments()
        payload.sweep_shm_orphans()

    def __enter__(self) -> "WorkerSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        """JSON-ready fleet snapshot (the ``repro mesh`` status file)."""
        return {"workers": [handle.as_dict() for handle in self.handles],
                "lease_ttl_s": self.lease_ttl_s,
                "heartbeat_s": self.heartbeat_s,
                "transport": self.transport}

    def handle_of(self, worker_id: str) -> WorkerHandle:
        """The live handle for *worker_id* (KeyError if unknown)."""
        for handle in self.handles:
            if handle.spec.worker_id == worker_id:
                return handle
        raise KeyError(worker_id)

    # -- spawning --------------------------------------------------------

    def _launch(self, handle: WorkerHandle) -> None:
        spec = handle.spec
        announce = os.path.join(self._dir, f"{spec.worker_id}.json")
        if os.path.exists(announce):
            os.remove(announce)
        handle.stderr_path = os.path.join(self._dir,
                                          f"{spec.worker_id}.err")
        cmd = [sys.executable, "-m", "repro.ws.mesh.worker",
               "--announce", announce,
               "--services",
               "all" if spec.services is None else
               ",".join(spec.services),
               "--max-concurrent", str(spec.max_concurrent),
               "--lifecycle", spec.lifecycle]
        if spec.slow_ms > 0:
            cmd += ["--slow-ms", str(spec.slow_ms)]
        if self.transport == "uds":
            cmd += ["--uds",
                    os.path.join(self._dir, f"{spec.worker_id}.sock")]
        with open(handle.stderr_path, "wb") as stderr:
            handle.process = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=stderr)
        record = self._await_announce(handle, announce)
        handle.port = record["port"]
        handle.base_url = record["base_url"]
        handle.services = tuple(record["services"])
        handle.uds_path = record.get("uds_path", "")
        handle.boot_id = record.get("boot_id", "")
        handle.restart_at = None
        get_metrics().counter("ws.mesh.worker.spawns",
                              worker=spec.worker_id).inc()

    def _await_announce(self, handle: WorkerHandle,
                        announce: str) -> dict:
        deadline = self._clock.monotonic() + SPAWN_TIMEOUT_S
        process = handle.process
        while self._clock.monotonic() < deadline:
            if os.path.exists(announce):
                try:
                    with open(announce, encoding="utf-8") as fh:
                        record = json.load(fh)
                except (OSError, ValueError):
                    record = None  # mid-replace; retry
                if record is not None and record.get("pid") == process.pid:
                    return record
            if process.poll() is not None:
                raise RuntimeError(
                    f"mesh worker {handle.spec.worker_id!r} exited "
                    f"with status {process.returncode} before "
                    f"announcing: {self._stderr_tail(handle)}")
            self._clock.sleep(0.05)
        process.kill()
        raise RuntimeError(
            f"mesh worker {handle.spec.worker_id!r} did not announce "
            f"within {SPAWN_TIMEOUT_S}s")

    def _stderr_tail(self, handle: WorkerHandle, limit: int = 800) -> str:
        try:
            with open(handle.stderr_path, encoding="utf-8",
                      errors="replace") as fh:
                return fh.read()[-limit:].strip() or "(no stderr)"
        except OSError:
            return "(no stderr)"

    # -- registry --------------------------------------------------------

    def _publish(self, handle: WorkerHandle) -> None:
        names = []
        # advertise the Unix-socket fast path only when the worker
        # proved it shares this host's boot id — a registry mirrored
        # across hosts must not leak unreachable socket paths
        same_host = bool(handle.uds_path) \
            and handle.boot_id == shm.boot_id()
        for service in handle.services:
            name = f"{service}@{handle.spec.worker_id}"
            self.registry.publish(
                name, f"{handle.base_url}/services/{service}?wsdl",
                categories=(MESH_CATEGORY, service_category(service)),
                description=f"mesh replica on {handle.spec.worker_id}",
                lease_ttl_s=self.lease_ttl_s,
                port_type=port_type_of(service),
                uds_url=unix_url(handle.uds_path,
                                 f"/services/{service}")
                if same_host else "")
            names.append(name)
        handle.entry_names = tuple(names)

    def _unpublish(self, handle: WorkerHandle) -> None:
        for name in handle.entry_names:
            try:
                self.registry.unpublish(name)
            except RegistryError:
                pass  # lease already expired
        handle.entry_names = ()
        # a withdrawn (usually crashed) worker can no longer release
        # the segments it published — reap them here
        payload.sweep_shm_orphans()

    # -- watchdog --------------------------------------------------------

    def _watch(self) -> None:
        last_heartbeat = self._clock.monotonic()
        while not self._stopping.wait(POLL_INTERVAL_S):
            now = self._clock.monotonic()
            for handle in self.handles:
                self._tend(handle, now)
            if now - last_heartbeat >= self.heartbeat_s:
                last_heartbeat = now
                self._heartbeat()

    def _tend(self, handle: WorkerHandle, now: float) -> None:
        if handle.process is not None and handle.process.poll() is None:
            return
        if handle.restart_at is None:
            # freshly noticed crash: withdraw the dead endpoints now so
            # discovery stops offering them, and arm the backoff
            get_metrics().counter("ws.mesh.worker.crashes",
                                  worker=handle.spec.worker_id).inc()
            self._unpublish(handle)
            handle.restarts += 1
            handle.restart_at = now + _backoff(handle.restarts)
            return
        if now < handle.restart_at:
            return
        try:
            self._launch(handle)
            self._publish(handle)
        except RuntimeError:
            # the relaunch itself failed: back off harder and retry
            handle.restarts += 1
            handle.restart_at = self._clock.monotonic() \
                + _backoff(handle.restarts)

    def _heartbeat(self) -> None:
        for handle in self.handles:
            if not handle.alive:
                continue
            for name in handle.entry_names:
                try:
                    self.registry.renew(name)
                except RegistryError:
                    # lease slipped past its TTL (a long GC pause, a
                    # loaded host): re-publish rather than vanish
                    self._publish(handle)
                    break
