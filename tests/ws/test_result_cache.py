"""Idempotent-result caching in the container + the WSDL parse cache."""

import pytest

from repro.data import cache as datacache
from repro.obs import get_metrics
from repro.ws.client import ServiceProxy, reset_wsdl_cache
from repro.ws.container import ServiceContainer
from repro.ws.httpd import SoapHttpServer
from repro.ws.service import operation


class Oracle:
    """Counts real computations behind a pure facade."""

    def __init__(self):
        self.computed = 0

    @operation(cacheable=True)
    def square(self, n: int) -> int:
        """Square of *n* (pure)."""
        self.computed += 1
        return n * n

    @operation(cacheable=True)
    def table(self, n: int) -> dict:
        """A structured result (pure)."""
        self.computed += 1
        return {"n": n, "squares": [i * i for i in range(n)]}

    @operation(cacheable=True)
    def checksum(self, blob: bytes) -> int:
        """Byte sum of *blob* (pure)."""
        self.computed += 1
        return sum(bytes(blob))

    @operation
    def roll(self, n: int) -> int:
        """Not pure: never cached."""
        self.computed += 1
        return self.computed * n


def hits():
    return get_metrics().counter("ws.cache.result.hits",
                                 service="Oracle").value


@pytest.fixture
def deployed():
    container = ServiceContainer()
    oracle = Oracle()
    container.deploy(Oracle, "Oracle", factory=lambda: oracle)
    return container, oracle


class TestResultCache:
    def test_repeat_call_hits_the_cache(self, deployed):
        container, oracle = deployed
        assert container.call("Oracle", "square", n=12) == 144
        assert container.call("Oracle", "square", n=12) == 144
        assert oracle.computed == 1
        assert hits() == 1

    def test_different_args_miss(self, deployed):
        container, oracle = deployed
        container.call("Oracle", "square", n=2)
        container.call("Oracle", "square", n=3)
        assert oracle.computed == 2
        assert hits() == 0

    def test_hits_still_count_as_invocations(self, deployed):
        container, _ = deployed
        container.call("Oracle", "square", n=5)
        container.call("Oracle", "square", n=5)
        stats = container.stats("Oracle")
        assert stats.invocations == 2
        assert stats.cache_hits == 1
        assert stats.as_dict()["cache_hits"] == 1

    def test_uncacheable_ops_always_dispatch(self, deployed):
        container, oracle = deployed
        first = container.call("Oracle", "roll", n=1)
        second = container.call("Oracle", "roll", n=1)
        assert (first, second) == (1, 2)
        assert oracle.computed == 2

    def test_cached_results_are_isolated_copies(self, deployed):
        container, _ = deployed
        first = container.call("Oracle", "table", n=4)
        first["squares"].append(999)
        second = container.call("Oracle", "table", n=4)
        assert second["squares"] == [0, 1, 4, 9]

    def test_disabled_cache_always_dispatches(self, deployed):
        container, oracle = deployed
        datacache.set_enabled(False)
        container.call("Oracle", "square", n=7)
        container.call("Oracle", "square", n=7)
        assert oracle.computed == 2

    def test_binary_arguments_are_keyed_by_content(self, deployed):
        """A mapped or attached frame arrives as a ``memoryview``, whose
        ``repr`` is its address.  Two frames at one address (here: one
        buffer, rewritten) must not share a cached answer, and one
        frame at two addresses must."""
        container, oracle = deployed
        buffer = bytearray(b"\x01" * 2048)
        view = memoryview(buffer)
        assert container.call("Oracle", "checksum", blob=view) == 2048
        buffer[:] = b"\x02" * 2048
        assert container.call("Oracle", "checksum", blob=view) == 4096
        assert (oracle.computed, hits()) == (2, 0)
        assert container.call(
            "Oracle", "checksum", blob=memoryview(bytes(buffer))) == 4096
        assert container.call(
            "Oracle", "checksum", blob=bytes(buffer)) == 4096
        assert (oracle.computed, hits()) == (2, 2)

    def test_results_shared_across_containers(self, deployed):
        container, oracle = deployed
        container.call("Oracle", "square", n=9)
        other = ServiceContainer()
        other.deploy(Oracle, "Oracle", factory=lambda: oracle)
        # purity is a property of the class, not the deployment
        assert other.call("Oracle", "square", n=9) == 81
        assert oracle.computed == 1


class TestWsdlCache:
    def test_second_import_skips_the_fetch(self):
        container = ServiceContainer()
        container.deploy(Oracle, "Oracle")
        with SoapHttpServer(container) as server:
            url = server.wsdl_url("Oracle")
            first = ServiceProxy.from_wsdl_url(url)
            second = ServiceProxy.from_wsdl_url(url)
            assert second.operations() == first.operations()
            snap = get_metrics().snapshot()["counters"]
            assert snap["ws.wsdl.cache.misses"] == 1
            assert snap["ws.wsdl.cache.hits"] == 1
            first.close()
            second.close()

    def test_reset_forces_a_refetch(self):
        container = ServiceContainer()
        container.deploy(Oracle, "Oracle")
        with SoapHttpServer(container) as server:
            url = server.wsdl_url("Oracle")
            ServiceProxy.from_wsdl_url(url).close()
            reset_wsdl_cache()
            ServiceProxy.from_wsdl_url(url).close()
            snap = get_metrics().snapshot()["counters"]
            assert snap["ws.wsdl.cache.misses"] == 2
            assert "ws.wsdl.cache.hits" not in snap

    def test_disabled_cache_fetches_every_time(self):
        container = ServiceContainer()
        container.deploy(Oracle, "Oracle")
        with SoapHttpServer(container) as server:
            datacache.set_enabled(False)
            url = server.wsdl_url("Oracle")
            ServiceProxy.from_wsdl_url(url).close()
            ServiceProxy.from_wsdl_url(url).close()
            snap = get_metrics().snapshot()["counters"]
            assert snap["ws.wsdl.cache.misses"] == 2
