"""Every XML parse site refuses a DTD.

No document the repo reads needs a DOCTYPE, and one that declares an
entity can rewrite its own values: ``<!ENTITY a "AAAA">`` turns ``&a;``
into ``AAAA``.  Each of the six sites answers a DOCTYPE with the error
it already raises for a malformed document.
"""

import http.client
import xml.etree.ElementTree as ET

import pytest

from repro.errors import DataError, ServiceError, WorkflowError, WsdlError
from repro.experiment.spec import SpecError, load_xml
from repro.services.workspace_service import WorkspaceService
from repro.workflow import TaskGraph, dax, default_toolbox, xmlio
from repro.ws import SoapHttpServer, ServiceContainer, soap, wsdl
from repro.ws.service import ServiceDefinition, operation

DTD = '<!DOCTYPE {root} [<!ENTITY a "AAAA">]>'


class Echo:
    """Answers with what it was given."""

    @operation
    def ping(self, token: str) -> str:
        """*token*, back."""
        return token


def with_dtd(document: str, root: str) -> str:
    """*document* led by a DOCTYPE that declares the entity ``a``."""
    return DTD.format(root=root) + document


def envelope(token: str) -> bytes:
    """A request envelope whose ``token`` text is *token* verbatim."""
    document = soap.encode_request(
        soap.SoapRequest("Echo", "ping", {"token": "TOKEN"}))
    return document.replace(b"TOKEN", token.encode())


def entity_envelope() -> bytes:
    """An envelope whose token is ``&a;``, with the DTD that declares
    ``a`` after its XML declaration: an ElementTree parse reads the
    token as ``AAAA``."""
    head, _, rest = envelope("&a;").partition(b"?>")
    return head + b"?>" + DTD.format(root="soapenv:Envelope").encode() \
        + rest


def workflow_xml() -> str:
    graph = TaskGraph("dtd")
    graph.add(default_toolbox().get("StringInput"), value="v")
    return xmlio.dumps(graph)


SPEC = ('<experiment name="dtd" folds="2" seeds="1">'
        '<dataset name="d" source="synthetic:numeric_two_class"/>'
        '<classifier name="ZeroR"/></experiment>')


class TestEverySiteRefuses:
    def test_soap_envelope(self):
        assert ET.fromstring(entity_envelope()).findtext(".//token") \
            == "AAAA"
        with pytest.raises(ServiceError, match="DOCTYPE"):
            soap.decode_request(entity_envelope())

    def test_wsdl(self):
        document = wsdl.generate(ServiceDefinition.from_class(Echo, "Echo"),
                                 "http://127.0.0.1:9/services/Echo")
        with pytest.raises(WsdlError, match="DOCTYPE"):
            wsdl.parse(with_dtd(document, "wsdl:definitions"))

    def test_workflow_xml(self):
        with pytest.raises(WorkflowError, match="DOCTYPE"):
            xmlio.loads(with_dtd(workflow_xml(), "taskgraph"),
                        default_toolbox())

    def test_dax(self):
        document = dax.dumps(TaskGraph("dtd"))
        with pytest.raises(ET.ParseError, match="DOCTYPE"):
            dax.job_count(with_dtd(document, "adag"))

    def test_experiment_spec(self):
        with pytest.raises(SpecError, match="DOCTYPE"):
            load_xml(with_dtd(SPEC, "experiment"))

    def test_workspace_publish(self):
        with pytest.raises(DataError, match="DOCTYPE"):
            WorkspaceService().publish(
                name="dtd", document=with_dtd(workflow_xml(), "taskgraph"),
                author="alice")


def test_a_refused_envelope_is_answered_like_a_malformed_one():
    container = ServiceContainer()
    container.deploy(Echo, "Echo")
    answers = []
    with SoapHttpServer(container) as server:
        for body in (entity_envelope(), envelope("<unclosed")):
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=5)
            conn.request("POST", "/services/Echo", body=body,
                         headers={"Content-Type": "text/xml"})
            response = conn.getresponse()
            with pytest.raises(soap.SoapFault) as fault:
                soap.decode_response(response.read())
            conn.close()
            answers.append((response.status, fault.value))
    (refused_status, refused), (bad_status, bad) = answers
    assert refused_status == bad_status == 500
    assert refused.faultcode == bad.faultcode
    assert refused.faultstring.startswith("malformed SOAP document")
    assert bad.faultstring.startswith("malformed SOAP document")
    assert "AAAA" not in str(refused)
