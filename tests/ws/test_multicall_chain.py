"""Chained multicall: items naming their own service, item references,
the ``chain`` capability, and the decoder's edge.

The contract: a ``<repro:Multicall>`` item may name another service of
the same container, and a parameter may be ``<repro:itemRef index=N/>``
— the whole result of an earlier item, substituted by the server.  An
item whose referenced item failed is not dispatched.  Decode refuses a
batch above :data:`~repro.ws.soap.MAX_BATCH_ITEMS` and any reference
that does not point at an earlier item, with a ``soapenv:Client`` fault
and before anything is dispatched.
"""

import http.client
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ServiceError, WsdlError
from repro.ws import soap, wsdl
from repro.ws.admission import AdmissionController
from repro.ws.client import ServiceProxy
from repro.ws.container import ServiceContainer
from repro.ws.httpd import SoapHttpServer
from repro.ws.mesh import MeshGateway, MeshRouter, RegistryEndpoints
from repro.ws.mesh.router import make_policy
from repro.ws.payload import MalformedBody
from repro.ws.registry import UDDIRegistry
from repro.ws.service import operation
from repro.ws.soap import (ITEM_REF_FAULTCODE, MAX_BATCH_ITEMS, ItemRef,
                           SoapFault, SoapRequest, SubCall)
from repro.ws.transport import HttpTransport, InProcessTransport


class Words:
    @operation
    def say(self, text: str) -> str:
        """Return *text*."""
        return text

    @operation
    def nothing(self, text: str) -> str:
        """Return no value."""
        return None


class Shout:
    @operation
    def upper(self, text: str = "default") -> str:
        """Upper-case *text*."""
        return text.upper()

    @operation
    def boom(self, text: str) -> str:
        """Always fault."""
        raise ServiceError(f"boom: {text}")


def _container(**kwargs) -> ServiceContainer:
    container = ServiceContainer("chain", **kwargs)
    container.deploy(Words, "Words")
    container.deploy(Shout, "Shout")
    return container


@pytest.fixture
def proxies():
    container = _container()
    transport = InProcessTransport(container)
    words, shout = (ServiceProxy.from_wsdl_text(
        wsdl.generate(container.definition(name), f"inproc://{name}"),
        transport) for name in ("Words", "Shout"))
    return container, words, shout


def _batch(*calls, service="Words") -> bytes:
    return soap.encode_request(soap.multicall_request(service, list(calls)))


class TestEnvelope:
    def test_items_of_the_batch_service_stay_byte_identical(self):
        plain = _batch(SubCall("say", {"text": "a"}))
        named = _batch(SubCall("say", {"text": "a"}, "Words"))
        assert plain == named
        assert b"service=\"Words\"" in plain  # the batch's, once
        assert plain.count(b"service=") == 1

    def test_item_service_and_reference_round_trip(self):
        calls = [SubCall("say", {"text": "a"}),
                 SubCall("upper", {"text": ItemRef(0)}, "Shout")]
        back = soap.decode_request(_batch(*calls))
        assert soap.calls_of(back) == calls

    @pytest.mark.parametrize("index", ["1", "2", "-1", "x", "", "1.0",
                                       "99999999999"])
    def test_reference_not_to_an_earlier_item_is_a_client_fault(
            self, index):
        wire = _batch(SubCall("say", {"text": "a"}),
                      SubCall("upper", {"text": ItemRef(0)}, "Shout"))
        wire = wire.replace(b'index="0"', b'index="%s"' % index.encode())
        with pytest.raises(SoapFault) as caught:
            soap.decode_request(wire)
        assert caught.value.faultcode == "soapenv:Client"

    def test_reference_outside_a_multicall_is_a_client_fault(self):
        wire = soap.encode_request(
            SoapRequest("Shout", "upper", {"text": ItemRef(0)}))
        with pytest.raises(SoapFault, match="outside a multicall"):
            soap.decode_request(wire)


class TestCrossServiceBatch:
    def test_items_dispatch_to_their_own_service(self, proxies):
        container, words, shout = proxies
        outcomes = words.call_many([
            ("say", {"text": "hi"}),
            (shout, "upper", {"text": ItemRef(0)}),
            (shout, "upper", {"text": "x"}),
        ])
        assert [o.unwrap() for o in outcomes] == ["hi", "HI", "X"]
        assert container.stats("Words").invocations == 1
        assert container.stats("Shout").invocations == 2

    def test_an_item_after_a_failed_one_is_not_dispatched(self, proxies):
        container, words, shout = proxies
        outcomes = words.call_many([
            (shout, "boom", {"text": "a"}),
            (shout, "upper", {"text": ItemRef(0)}),
            ("say", {"text": "independent"}),
        ])
        assert [o.ok for o in outcomes] == [False, False, True]
        skipped = outcomes[1].fault
        assert skipped.faultcode == ITEM_REF_FAULTCODE
        assert "item 0" in skipped.faultstring
        assert container.stats("Shout").invocations == 1  # boom only

    def test_a_none_result_leaves_the_parameter_out(self, proxies):
        _, words, shout = proxies
        outcomes = words.call_many([
            ("nothing", {"text": "a"}),
            (shout, "upper", {"text": ItemRef(0)}),
        ])
        # as a client omits a None argument: the default applies
        assert [o.unwrap() for o in outcomes] == [None, "DEFAULT"]

    def test_each_item_is_validated_against_its_own_wsdl(self, proxies):
        container, words, shout = proxies
        with pytest.raises(WsdlError, match="unknown parameter"):
            words.call_many([("say", {"text": "a"}),
                             (shout, "upper", {"txt": "b"})])
        with pytest.raises(WsdlError, match="no operation"):
            words.call_many([(shout, "say", {"text": "a"})])
        assert container.stats("Words").invocations == 0

    def test_an_item_behind_another_front_is_refused(self, proxies):
        _, words, _ = proxies
        elsewhere = _container()
        other = ServiceProxy.from_wsdl_text(
            wsdl.generate(elsewhere.definition("Shout"), "inproc://x"),
            InProcessTransport(elsewhere))
        with pytest.raises(ServiceError, match="not served"):
            words.call_many([(other, "upper", {"text": "a"})])
        with pytest.raises(ServiceError, match="by its proxy"):
            words.call_many([SubCall("upper", {"text": "a"}, "Shout")])

    def test_unknown_item_service_faults_that_item_only(self, proxies):
        container, _, _ = proxies
        outcomes = container.invoke(soap.multicall_request("Words", [
            SubCall("say", {"text": "a"}, "Nowhere"),
            SubCall("say", {"text": "b"}),
        ])).result
        assert not outcomes[0].ok
        assert outcomes[0].fault.faultcode == "soapenv:Client"
        assert outcomes[1].result == "b"

    def test_server_spans_stay_per_item(self, proxies):
        _, words, shout = proxies
        obs.enable_tracing()
        words.call_many([("say", {"text": "a"}),
                         (shout, "upper", {"text": ItemRef(0)})])
        names = [s.name for s in obs.get_tracer().collector.spans()]
        assert names.count("send:inprocess") == 1
        assert [n for n in names if n.startswith("op:")] == \
            ["op:Words.say", "op:Shout.upper"]


class TestCapability:
    def test_a_container_front_advertises_chain(self):
        with SoapHttpServer(_container()) as server:
            transport = HttpTransport(server.endpoint("Words"))
            try:
                transport.send(SoapRequest("Words", "say", {"text": "a"}))
                assert transport.speaks("chain")
            finally:
                transport.close()

    def test_the_mesh_gateway_does_not(self):
        with SoapHttpServer(_container()) as worker:
            registry = UDDIRegistry()
            registry.publish("Words", worker.wsdl_url("Words"))
            discovery = RegistryEndpoints(registry)
            router = MeshRouter(discovery, make_policy("static"))
            with MeshGateway(router, discovery) as gateway:
                transport = HttpTransport(gateway.endpoint("Words"))
                try:
                    transport.send(
                        SoapRequest("Words", "say", {"text": "a"}))
                    assert transport.speaks("swa")
                    assert not transport.speaks("chain")
                finally:
                    transport.close()


def _post(server, body: bytes) -> tuple[int, bytes]:
    """POST *body* to the Words endpoint with an independent client."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("POST", "/services/Words", body,
                     {"Content-Type": soap.XML})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestBatchCap:
    """An over-long batch is refused whole at decode: nothing is
    dispatched, the refusal is metered, and no admission slot is held."""

    def test_one_item_over_the_cap_is_refused_before_dispatch(self):
        admission = AdmissionController(max_concurrent=2, max_queue=2)
        container = _container(admission=admission)
        body = _batch(*[SubCall("say", {"text": "x"})] *
                      (MAX_BATCH_ITEMS + 1))
        with SoapHttpServer(container) as server:
            status, answer = _post(server, body)
        assert status == 500
        assert b"soapenv:Client" in answer
        assert b"at most %d" % MAX_BATCH_ITEMS in answer
        assert container.stats("Words").invocations == 0
        metrics = obs.get_metrics()
        assert metrics.counter("ws.batch.refused",
                               service="Words").value == 1
        assert metrics.counter("ws.admission.admitted").value == 0
        assert admission.inflight == 0

    def test_a_batch_at_the_cap_is_served(self):
        container = _container()
        outcomes = container.invoke(soap.decode_request(_batch(
            *[SubCall("say", {"text": "x"})] * MAX_BATCH_ITEMS))).result
        assert len(outcomes) == MAX_BATCH_ITEMS
        assert container.stats("Words").invocations == MAX_BATCH_ITEMS


# -- structural fuzz of the multicall decoder ------------------------------

_INDEXES = st.one_of(st.integers(-3, 6).map(str),
                     st.sampled_from(["", "x", "1.5", "0x1", " 1", "²"]))
_NAMES = st.one_of(st.sampled_from(["say", "upper", "boom", "nothing"]),
                   st.text(max_size=6))
_SERVICES = st.one_of(st.none(),
                      st.sampled_from(["Words", "Shout", "Nowhere", ""]))


@st.composite
def _items(draw):
    tag = draw(st.sampled_from(["Call"] * 6 + ["Smuggle", "Fault"]))
    item = ET.Element(f"{{{soap.REPRO_NS}}}{tag}")
    if draw(st.booleans()) or tag != "Call":
        item.set("operation", draw(_NAMES))
    service = draw(_SERVICES)
    if service is not None:
        item.set("service", service)
    param = ET.SubElement(item, draw(st.sampled_from(["text", "txt"])))
    if draw(st.booleans()):
        param.set(f"{{{soap.XSI_NS}}}type", "repro:itemRef")
        param.set("index", draw(_INDEXES))
    else:
        param.text = draw(st.text(
            alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
            max_size=5))
    return item


@st.composite
def _envelopes(draw):
    envelope = ET.Element(f"{{{soap.ENVELOPE_NS}}}Envelope")
    body = ET.SubElement(envelope, f"{{{soap.ENVELOPE_NS}}}Body")
    batch = ET.SubElement(body, f"{{{soap.REPRO_NS}}}Multicall")
    batch.set("service", draw(st.sampled_from(["Words", "Shout"])))
    for item in draw(st.lists(_items(), max_size=5)):
        batch.append(item)
    if draw(st.integers(0, 9)) == 0:  # now and then: over the cap
        call = ET.Element(f"{{{soap.REPRO_NS}}}Call", operation="say")
        ET.SubElement(call, "text").text = "x"
        batch.extend([call] * (MAX_BATCH_ITEMS + 1 - len(batch)))
    return ET.tostring(envelope)


@given(_envelopes())
@settings(max_examples=150, deadline=None)
def test_decoder_fuzz_ends_typed(document):
    """Whatever the structure, decode + dispatch ends in a value, a
    :class:`ServiceError` (faults included) or a :class:`MalformedBody`;
    every per-item failure is a typed fault."""
    container = _container()
    try:
        response = container.invoke(soap.decode_request(document))
    except (ServiceError, MalformedBody):
        return
    for outcome in response.result:
        assert outcome.ok or isinstance(outcome.error, SoapFault)


def test_a_forward_reference_through_the_threaded_front_is_answered():
    body = _batch(SubCall("say", {"text": "a"}),
                  SubCall("upper", {"text": ItemRef(0)}, "Shout")
                  ).replace(b'index="0"', b'index="1"')
    container = _container()
    with SoapHttpServer(container) as server:
        status, answer = _post(server, body)
    assert status == 500
    assert b"soapenv:Client" in answer and b"earlier item" in answer
    assert container.stats("Words").invocations == 0
