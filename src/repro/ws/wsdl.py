"""WSDL 1.1-style service descriptions.

The toolkit imports a service by WSDL ("A Web Service is imported to the
workspace by providing its WSDL interface.  Once the interface is provided,
Triana creates a tool for each operation") — so the WSDL document is the
contract between the hosting side (:mod:`repro.ws.container` /
:mod:`repro.ws.httpd`) and the composition side
(:mod:`repro.workflow.wsimport`).  We generate WSDL from a
:class:`~repro.ws.service.ServiceDefinition` and parse it back into a
:class:`WsdlDescription`; round-tripping is lossless for everything the
toolkit uses (operations, typed parts, docs, endpoint address).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from repro import xmlsafe
from repro.errors import WsdlError
from repro.ws.service import OperationInfo, ServiceDefinition

WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
SOAP_BINDING_NS = "http://schemas.xmlsoap.org/wsdl/soap/"
REPRO_NS = "http://repro.example.org/faehim"

ET.register_namespace("wsdl", WSDL_NS)
ET.register_namespace("soap", SOAP_BINDING_NS)


def _q(ns: str, local: str) -> str:
    return f"{{{ns}}}{local}"


@dataclass(frozen=True)
class WsdlOperation:
    """One operation as described by a WSDL document."""

    name: str
    doc: str
    params: tuple[tuple[str, str], ...]
    returns: str
    required: tuple[str, ...]


@dataclass
class WsdlDescription:
    """Everything a client/toolbox needs to drive a service."""

    service: str
    doc: str
    address: str
    operations: dict[str, WsdlOperation] = field(default_factory=dict)


def generate(definition: ServiceDefinition, address: str) -> str:
    """Generate a WSDL document for *definition* bound at *address*."""
    root = ET.Element(_q(WSDL_NS, "definitions"))
    root.set("name", definition.name)
    root.set("targetNamespace", REPRO_NS)
    if definition.doc:
        doc_el = ET.SubElement(root, _q(WSDL_NS, "documentation"))
        doc_el.text = definition.doc
    # messages
    for op in definition.operations.values():
        msg_in = ET.SubElement(root, _q(WSDL_NS, "message"))
        msg_in.set("name", f"{op.name}Request")
        for pname, ptype in op.params:
            part = ET.SubElement(msg_in, _q(WSDL_NS, "part"))
            part.set("name", pname)
            part.set("type", ptype)
            if pname in op.required:
                part.set("required", "true")
        msg_out = ET.SubElement(root, _q(WSDL_NS, "message"))
        msg_out.set("name", f"{op.name}Response")
        part = ET.SubElement(msg_out, _q(WSDL_NS, "part"))
        part.set("name", "return")
        part.set("type", op.returns)
    # portType
    port_type = ET.SubElement(root, _q(WSDL_NS, "portType"))
    port_type.set("name", f"{definition.name}PortType")
    for op in definition.operations.values():
        op_el = ET.SubElement(port_type, _q(WSDL_NS, "operation"))
        op_el.set("name", op.name)
        if op.doc:
            d = ET.SubElement(op_el, _q(WSDL_NS, "documentation"))
            d.text = op.doc
        inp = ET.SubElement(op_el, _q(WSDL_NS, "input"))
        inp.set("message", f"{op.name}Request")
        out = ET.SubElement(op_el, _q(WSDL_NS, "output"))
        out.set("message", f"{op.name}Response")
    # binding (rpc/encoded-style marker, constant for the toolkit)
    binding = ET.SubElement(root, _q(WSDL_NS, "binding"))
    binding.set("name", f"{definition.name}Binding")
    binding.set("type", f"{definition.name}PortType")
    soap_binding = ET.SubElement(binding, _q(SOAP_BINDING_NS, "binding"))
    soap_binding.set("style", "rpc")
    soap_binding.set("transport", "http://schemas.xmlsoap.org/soap/http")
    # service + port
    service = ET.SubElement(root, _q(WSDL_NS, "service"))
    service.set("name", definition.name)
    port = ET.SubElement(service, _q(WSDL_NS, "port"))
    port.set("name", f"{definition.name}Port")
    port.set("binding", f"{definition.name}Binding")
    addr = ET.SubElement(port, _q(SOAP_BINDING_NS, "address"))
    addr.set("location", address)
    return ET.tostring(root, encoding="unicode")


def parse(document: str) -> WsdlDescription:
    """Parse a WSDL document into a :class:`WsdlDescription`."""
    try:
        root = xmlsafe.fromstring(document)
    except ET.ParseError as exc:
        raise WsdlError(f"malformed WSDL: {exc}") from exc
    if root.tag != _q(WSDL_NS, "definitions"):
        raise WsdlError(f"not a WSDL document: {root.tag}")
    name = root.get("name", "")
    doc = root.findtext(_q(WSDL_NS, "documentation"), "") or ""
    messages: dict[str, list[tuple[str, str, bool]]] = {}
    for msg in root.findall(_q(WSDL_NS, "message")):
        parts = []
        for part in msg.findall(_q(WSDL_NS, "part")):
            parts.append((part.get("name", ""), part.get("type", ""),
                          part.get("required") == "true"))
        messages[msg.get("name", "")] = parts
    operations: dict[str, WsdlOperation] = {}
    port_type = root.find(_q(WSDL_NS, "portType"))
    if port_type is None:
        raise WsdlError("WSDL has no portType")
    for op_el in port_type.findall(_q(WSDL_NS, "operation")):
        op_name = op_el.get("name", "")
        op_doc = op_el.findtext(_q(WSDL_NS, "documentation"), "") or ""
        inp = op_el.find(_q(WSDL_NS, "input"))
        out = op_el.find(_q(WSDL_NS, "output"))
        if inp is None or out is None:
            raise WsdlError(f"operation {op_name!r} lacks input/output")
        in_parts = messages.get(inp.get("message", ""), [])
        out_parts = messages.get(out.get("message", ""), [])
        returns = out_parts[0][1] if out_parts else "xsd:string"
        operations[op_name] = WsdlOperation(
            name=op_name,
            doc=op_doc.strip(),
            params=tuple((p, t) for p, t, _ in in_parts),
            returns=returns,
            required=tuple(p for p, _, req in in_parts if req))
    service_el = root.find(_q(WSDL_NS, "service"))
    address = ""
    if service_el is not None:
        port = service_el.find(_q(WSDL_NS, "port"))
        if port is not None:
            addr = port.find(_q(SOAP_BINDING_NS, "address"))
            if addr is not None:
                address = addr.get("location", "")
    if not operations:
        raise WsdlError("WSDL describes no operations")
    return WsdlDescription(service=name, doc=doc.strip(),
                           address=address, operations=operations)


def describe(definition: ServiceDefinition,
             address: str) -> WsdlDescription:
    """Shortcut: definition → WSDL text → parsed description."""
    return parse(generate(definition, address))


def operation_info_of(op: WsdlOperation) -> OperationInfo:
    """Convert a parsed WSDL operation back to server-side metadata."""
    return OperationInfo(name=op.name, doc=op.doc, params=op.params,
                         returns=op.returns, required=op.required)
