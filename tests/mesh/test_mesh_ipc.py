"""Live mesh over Unix sockets: zero-copy routing plus crash hygiene.

One module-scoped ``transport="uds"`` mesh (real worker processes): the
gateway must dial workers over their sockets, large columnar frames
must travel as mapped shared-memory segments rather than socket bytes,
``/mesh/status`` must report both facts — and the crash drill must stay
as clean as the TCP one: SIGKILL a worker mid-traffic, require zero
client-visible failures AND zero orphaned ``repro-shm-*`` segments
once the supervisor's sweep has run.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.data import codec, synthetic
from repro.ws import shm
from repro.ws.client import ServiceProxy, fetch_url
from repro.ws.mesh import start_mesh

pytestmark = pytest.mark.skipif(not shm.supported(),
                                reason="no POSIX shared memory here")

FRAME = codec.encode(synthetic.numeric_two_class(n=400, seed=11))


@pytest.fixture(scope="module")
def mesh():
    host = start_mesh(workers=2, services=["Classifier"],
                      transport="uds", policy="adaptive",
                      lease_ttl_s=5.0, heartbeat_s=1.0,
                      backoff_base_s=0.2, backoff_cap_s=2.0)
    try:
        yield host
    finally:
        host.stop()


def classify(proxy):
    out = proxy.call("classifyBatch", classifier="ZeroR",
                     dataset=FRAME, attribute="class")
    assert out["classifier"] == "ZeroR"
    assert len(out["labels"]) == 400 and out["errors"] == []
    return out


def dead_owner_segments() -> list[str]:
    """``repro-shm-*`` names whose recorded owner pid is gone (or whose
    header is junk) — what :func:`shm.sweep_orphans` would reclaim,
    enumerated without reclaiming anything."""
    orphans = []
    for name in os.listdir("/dev/shm"):
        if not name.startswith(shm.SEGMENT_PREFIX):
            continue
        try:
            with open("/dev/shm/" + name, "rb") as fh:
                head = fh.read(shm.HEADER_BYTES)
        except OSError:
            continue  # unlinked under us
        fields = shm._HEADER.unpack(head) \
            if len(head) == shm.HEADER_BYTES else None
        if fields is None or fields[0] != shm._MAGIC:
            orphans.append(name)
            continue
        try:
            os.kill(fields[2], 0)
        except ProcessLookupError:
            orphans.append(name)
        except PermissionError:
            pass  # live, someone else's
    return orphans


class TestUdsMesh:
    def test_workers_listen_on_their_sockets(self, mesh):
        for handle in mesh.supervisor.handles:
            assert handle.uds_path, f"{handle.worker_id} has no socket"
            assert os.path.exists(handle.uds_path)
            assert handle.boot_id == shm.boot_id()
        for entry in mesh.registry.inquire("Classifier@*"):
            assert entry.uds_url.startswith("unix://")

    def test_frames_route_by_segment_not_socket(self, mesh):
        proxy = ServiceProxy.from_wsdl_url(mesh.wsdl_url("Classifier"))
        for _ in range(3):  # first contacts: each peer learns the other
            classify(proxy)
        hops = list(mesh.router._transports.values())
        on_sockets = sum(hop.bytes_sent for hop in hops)
        for _ in range(3):
            classify(proxy)
        on_sockets = sum(hop.bytes_sent for hop in hops) - on_sockets
        proxy.close()
        status = json.loads(fetch_url(f"{mesh.base_url}/mesh/status"))
        assert status["supervisor"]["transport"] == "uds"
        schemes = status["transports"]
        assert schemes and set(schemes.values()) == {"uds"}, schemes
        # the client→gateway hop published the frame; the gateway
        # relayed the ref unopened (it maps nothing, so the host process
        # counts no hit), and its worker hops carried three envelopes
        # but not one frame — the worker can only have answered from
        # the mapped segment (its own hits live in the worker)
        assert status["shm"].get("ws.shm.publishes", 0) >= 1
        assert status["shm"].get("ws.shm.hits", 0) == 0
        assert 0 < on_sockets < len(FRAME)

    def test_sigkill_drill_loses_no_calls_and_leaks_no_segments(
            self, mesh):
        from multiprocessing import shared_memory
        proxy = ServiceProxy.from_wsdl_url(mesh.wsdl_url("Classifier"))
        calls = 30
        failures: list[Exception] = []
        completed: list[int] = []

        def client_loop():
            for i in range(calls):
                try:
                    classify(proxy)
                    completed.append(i)
                except Exception as exc:  # noqa: BLE001 - the drill counts all
                    failures.append(exc)

        victim = mesh.supervisor.handle_of("w2")
        old_pid = victim.pid
        # plant a segment recorded as owned by the victim: exactly what
        # a worker that published then died abnormally leaves behind
        planted = shm.SEGMENT_PREFIX + "feedfacefeedface"
        seg = shared_memory.SharedMemory(name=planted, create=True,
                                         size=shm.HEADER_BYTES + 8)
        shm._untrack(seg)
        seg.buf[:shm.HEADER_BYTES] = shm._HEADER.pack(
            shm._MAGIC, 1, old_pid, 8)
        seg.close()

        thread = threading.Thread(target=client_loop)
        thread.start()
        time.sleep(0.5)
        os.kill(old_pid, signal.SIGKILL)
        thread.join(timeout=240)
        assert not thread.is_alive()
        assert failures == [], (
            f"{len(failures)} client call(s) failed during the drill; "
            f"first: {failures[0]!r}" if failures else "")
        assert len(completed) == calls

        # supervised restart, as in the TCP drill...
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if victim.alive and victim.pid != old_pid:
                break
            time.sleep(0.2)
        assert victim.alive and victim.pid != old_pid

        # ...and crash hygiene: the supervisor's unpublish sweep must
        # have reclaimed the dead worker's segment — nothing in
        # /dev/shm may reference a dead owner
        deadline = time.monotonic() + 30
        orphans = dead_owner_segments()
        while time.monotonic() < deadline and orphans:
            time.sleep(0.2)
            orphans = dead_owner_segments()
        assert orphans == []
        assert not os.path.exists("/dev/shm/" + planted)
        proxy.close()

    def test_stop_unlinks_sockets_and_segments(self):
        host = start_mesh(workers=1, services=["Math"],
                          transport="uds")
        sockets = [h.uds_path for h in host.supervisor.handles]
        assert all(os.path.exists(p) for p in sockets)
        host.stop()
        assert not any(os.path.exists(p) for p in sockets)
        assert dead_owner_segments() == []
