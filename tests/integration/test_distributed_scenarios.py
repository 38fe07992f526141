"""Distributed scenarios: §4.5 lifecycles, remote streaming vs migration,
fault-tolerant migration across real HTTP replicas."""

import pytest

from repro.data import arff, stream
from repro.services import J48Service, deploy_toolbox
from repro.ws import (InProcessTransport, ServiceContainer, ServiceProxy,
                      SimulatedTransport, SoapHttpServer, SoapRequest, WAN,
                      wsdl)
from repro.workflow import ReplicatedServiceTool


class TestSection45Lifecycles:
    """The paper's serialisation-penalty observation, functionally."""

    @pytest.fixture()
    def dataset_arff(self, breast_cancer):
        return arff.dumps(breast_cancer)

    def test_both_lifecycles_give_identical_answers(self, tmp_path,
                                                    dataset_arff):
        fast = ServiceContainer(state_dir=tmp_path / "fast")
        slow = ServiceContainer(state_dir=tmp_path / "slow")
        fast.deploy(J48Service, "J48", lifecycle="harness")
        slow.deploy(J48Service, "J48", lifecycle="serialize")
        a = fast.call("J48", "classify", dataset=dataset_arff,
                      attribute="Class")
        b = slow.call("J48", "classify", dataset=dataset_arff,
                      attribute="Class")
        assert a == b

    def test_serialize_lifecycle_pays_per_invocation(self, tmp_path,
                                                     dataset_arff):
        container = ServiceContainer(state_dir=tmp_path)
        container.deploy(J48Service, "J48", lifecycle="serialize")
        for _ in range(3):
            container.call("J48", "classify", dataset=dataset_arff,
                           attribute="Class")
        stats = container.stats("J48")
        assert stats.invocations == 3
        assert stats.serialize_seconds > 0
        # the serialised model state is substantial (a trained J48)
        assert stats.serialized_bytes > 1000

    def test_harness_keeps_model_cache_effective(self, tmp_path,
                                                 dataset_arff, j48_fits):
        """The J48Service keeps its models; under the harness lifecycle
        repeated identical calls reuse the one tree it fitted."""
        container = ServiceContainer(state_dir=tmp_path)
        container.deploy(J48Service, "J48", lifecycle="harness")
        answers = {container.call("J48", "classify", dataset=dataset_arff,
                                  attribute="Class") for _ in range(3)}
        assert len(answers) == 1
        assert len(j48_fits) == 1


class TestStreamingVsMigration:
    """§1/§3: stream instances from a remote source vs migrate the whole
    dataset — measured on the simulated WAN."""

    def test_streaming_transfers_whole_dataset_in_chunks(self,
                                                         breast_cancer):
        header, chunks = stream.replay(breast_cancer, 64)
        container = deploy_toolbox()
        transport = SimulatedTransport(InProcessTransport(container), WAN)
        # migrate: one message carrying the full ARFF
        full = arff.dumps(breast_cancer)
        transport.send(SoapRequest("Data", "validate", {"dataset": full}))
        migrate_bytes = transport.bytes_on_wire
        migrate_msgs = transport.messages
        # stream: header + chunk messages
        transport2 = SimulatedTransport(InProcessTransport(container), WAN)
        opened = transport2.send(SoapRequest(
            "Data", "openStream",
            {"dataset": full, "chunk_size": 64})).result
        for i in range(opened["chunks"]):
            transport2.send(SoapRequest(
                "Data", "readChunk",
                {"stream_id": opened["stream"], "index": i}))
        assert transport2.messages > migrate_msgs
        # chunked transfer pays more latency but the same order of bytes
        assert transport2.virtual_seconds > 0
        assert migrate_bytes > 0

    def test_streamed_model_equals_batch_model(self, breast_cancer):
        from repro.ml.classifiers import NaiveBayes, NaiveBayesUpdateable
        header, chunks = stream.replay(breast_cancer, 50)
        reader = stream.ChunkedStreamReader(header)
        clf = NaiveBayesUpdateable()
        head = reader.header.copy_header()
        head.set_class("Class")
        clf.begin(head)
        seen = 0
        for chunk in chunks:
            reader.feed(chunk)
            ds = reader.dataset()
            for inst in ds.instances[seen:]:
                clf.update(inst)
            seen = len(ds)
        batch = NaiveBayes().fit(breast_cancer)
        for inst in list(breast_cancer)[:20]:
            assert clf.distribution(inst) == pytest.approx(
                batch.distribution(inst), abs=1e-9)


class TestHttpReplicaMigration:
    """Job migration across two real HTTP hosts when one dies."""

    def test_migration_after_server_shutdown(self, breast_cancer):
        data = arff.dumps(breast_cancer)
        servers = []
        proxies = []
        for _ in range(2):
            container = ServiceContainer()
            container.deploy(J48Service, "J48")
            server = SoapHttpServer(container).start()
            servers.append(server)
            proxies.append(ServiceProxy.from_wsdl_url(
                server.wsdl_url("J48")))
        # kill the first replica's host
        servers[0].stop()
        tool = ReplicatedServiceTool("J48.classify", proxies, "classify",
                                     ["dataset", "attribute"])
        [out] = tool.run([data, "Class"], {})
        assert "node-caps" in out
        assert len(tool.migrations) == 1
        servers[1].stop()
        for proxy in proxies:
            proxy.close()
