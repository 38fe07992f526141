"""Live mesh: real worker processes, gateway round trips, crash drill.

These tests fork real worker processes (``python -m
repro.ws.mesh.worker``), so one module-scoped mesh is shared: 4
workers hosting the Math service, short leases, fast restart backoff.
The crash drill is the PR's acceptance scenario — SIGKILL one worker
mid-traffic, require zero client-visible failures and a supervised
restart within the backoff budget.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.ws.client import ServiceProxy, fetch_url
from repro.ws.mesh import plan_shards, start_mesh, supervisor
from repro.ws.scatter import resolve_endpoints


@pytest.fixture(scope="module")
def mesh():
    with pytest.MonkeyPatch.context() as fast:
        # a 1 s heartbeat and a 0.2 s → 2 s restart backoff
        fast.setattr(supervisor, "HEARTBEATS_PER_LEASE", 5.0)
        fast.setattr(supervisor, "BACKOFF_BASE_S", 0.2)
        fast.setattr(supervisor, "BACKOFF_CAP_S", 2.0)
        host = start_mesh(workers=4, services=["Math"], policy="adaptive",
                          lease_ttl_s=5.0)
        try:
            yield host
        finally:
            host.stop()


class TestPlanning:
    def test_all_spec_replicates_everywhere(self):
        plan = plan_shards(["Math"], ["w1", "w2"], "all")
        assert plan == {"w1": ("Math",), "w2": ("Math",)}

    def test_all_spec_without_services_is_worker_authoritative(self):
        assert plan_shards(None, ["w1"], "all") == {"w1": None}

    def test_ring_spec_places_each_service_r_times(self):
        workers = [f"w{i}" for i in range(1, 5)]
        services = ["Classifier", "Math", "Clusterer", "J48"]
        plan = plan_shards(services, workers, "ring:2")
        for service in services:
            hosts = [wid for wid, hosted in plan.items()
                     if service in (hosted or ())]
            assert len(hosts) == 2

    def test_bad_specs_are_rejected(self):
        with pytest.raises(ValueError, match="unknown shard spec"):
            plan_shards(None, ["w1"], "modulo")
        with pytest.raises(ValueError, match="ring:<replicas>"):
            plan_shards(None, ["w1"], "ring:x")


class TestGateway:
    def test_proxy_binds_and_calls_through_the_gateway(self, mesh):
        proxy = ServiceProxy.from_wsdl_url(mesh.wsdl_url("Math"))
        out = proxy.call("tabulate", expression="square",
                         lo=0.0, hi=1.0)
        assert len(out) > 0
        # the WSDL address was rewritten: the proxy talks to the
        # gateway port, not to any worker
        assert f":{mesh.port}/" in proxy.transport.endpoint

    def test_service_index_and_status_endpoints(self, mesh):
        index = fetch_url(f"{mesh.base_url}/services")
        assert "Math" in index
        status = json.loads(fetch_url(f"{mesh.base_url}/mesh/status"))
        assert status["policy"] == "adaptive"
        assert len(status["supervisor"]["workers"]) == 4
        assert all(w["alive"] for w in status["supervisor"]["workers"])

    def test_registry_has_one_leased_entry_per_worker(self, mesh):
        entries = mesh.registry.inquire("Math@*")
        assert sorted(e.name for e in entries) == \
            [f"Math@w{i}" for i in range(1, 5)]
        assert all(e.lease_ttl_s == 5.0 for e in entries)
        assert all(e.port_type == "MathPortType" for e in entries)

    def test_discovery_source_materialises_live_proxies(self, mesh):
        source = mesh.source_for("Math")
        proxies = resolve_endpoints(source)
        assert len(proxies) == 4
        out = proxies[0].call("tabulate", expression="sin",
                              lo=0.0, hi=1.0)
        assert len(out) > 0
        # static lists still pass through untouched
        assert resolve_endpoints(proxies) == proxies


class TestCrashDrill:
    def test_sigkill_mid_traffic_is_invisible_to_clients(self, mesh):
        proxy = ServiceProxy.from_wsdl_url(mesh.wsdl_url("Math"))
        calls = 80
        failures: list[Exception] = []
        completed: list[int] = []

        def client_loop():
            for i in range(calls):
                try:
                    out = proxy.call("tabulate", expression="square",
                                     lo=0.0, hi=1.0)
                    assert len(out) > 0
                    completed.append(i)
                except Exception as exc:  # noqa: BLE001 - the drill counts all
                    failures.append(exc)

        thread = threading.Thread(target=client_loop)
        thread.start()
        time.sleep(0.5)  # let traffic flow before the murder
        victim = mesh.supervisor.handle_of("w2")
        old_pid = victim.pid
        os.kill(old_pid, signal.SIGKILL)
        thread.join(timeout=240)
        assert not thread.is_alive()

        assert failures == [], (
            f"{len(failures)} client call(s) failed during the drill; "
            f"first: {failures[0]!r}" if failures else "")
        assert len(completed) == calls

        # the supervisor must bring w2 back within the backoff budget
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if victim.alive and victim.pid != old_pid:
                break
            time.sleep(0.2)
        assert victim.alive, "worker w2 was not restarted"
        assert victim.pid != old_pid
        assert victim.restarts >= 1

        # and the reborn replica re-enters discovery on its new port
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            entries = {e.name for e in mesh.registry.inquire("Math@*")}
            if "Math@w2" in entries:
                break
            time.sleep(0.2)
        assert "Math@w2" in {e.name
                             for e in mesh.registry.inquire("Math@*")}
