"""SOAP 1.1-style message envelopes.

The paper's toolkit speaks SOAP between Triana and every data-mining service
("interaction between the workflow engine and each Web Service instance is
supported through pre-defined SOAP messages").  This module implements the
document shapes those interactions need: request envelopes carrying one
operation element with typed parameter children, response envelopes carrying
one ``<operation>Response`` element, and fault envelopes.

Typing uses XML-Schema primitives (``xsd:string``/``int``/``double``/
``boolean``), ``xsd:base64Binary`` for byte payloads and a toolkit extension
type ``repro:json`` for structured values (option lists, tree graphs), which
the 2005 toolkit would have modelled as nested complex types.

Decode only parses: a ``repro:payloadRef`` parameter comes back as the
:class:`~repro.ws.payload.PayloadRef` it is (digest shape checked), for
the container to resolve or a relay to forward unopened.
"""

from __future__ import annotations

import base64
import json
import numbers
import re as _re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.errors import DeadlineExceeded, OverloadedError, ServiceError
from repro.obs import get_metrics
from repro.ws import payload
from repro.ws.payload import MalformedBody, PayloadMissError, PayloadRef

#: Fault code carried by a SOAP fault caused by an expired time budget;
#: :func:`decode_response` resurfaces it as :class:`DeadlineExceeded`.
DEADLINE_FAULTCODE = "repro:DeadlineExceeded"

#: Fault code for a call shed by admission control before dispatch;
#: :func:`decode_response` resurfaces it as
#: :class:`~repro.errors.OverloadedError` (with the server's
#: retry-after hint, when given, carried in the fault detail).
OVERLOAD_FAULTCODE = "repro:Overloaded"

#: Reserved operation name for the batched-invocation envelope: one
#: ``<repro:Multicall>`` body element carries an ordered list of
#: sub-invocations against the same service (mixed operations allowed),
#: so one parse/serialize and one wire exchange covers many calls.
MULTICALL_OP = "Multicall"

ENVELOPE_NS = "http://schemas.xmlsoap.org/soap/envelope/"
XSD_NS = "http://www.w3.org/2001/XMLSchema"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
REPRO_NS = "http://repro.example.org/faehim"

ET.register_namespace("soapenv", ENVELOPE_NS)
ET.register_namespace("xsd", XSD_NS)
ET.register_namespace("xsi", XSI_NS)
ET.register_namespace("repro", REPRO_NS)


def _qname(ns: str, local: str) -> str:
    return f"{{{ns}}}{local}"


_NAME_OK = _re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")
# characters XML 1.0 cannot carry verbatim (plus \r, which parsers
# normalise to \n) and lone surrogates
_XML_UNSAFE = _re.compile(
    "[\x00-\x08\x0b-\x1f\x7f\r\ud800-\udfff]")


def _check_name(name: str, what: str) -> str:
    """Operation/parameter names become XML element names; they originate
    from Python identifiers, so enforce that shape up front."""
    if not _NAME_OK.match(name):
        raise ServiceError(f"invalid {what} name {name!r} "
                           f"(must be an identifier)")
    return name


#: Attachment values by Content-ID, in part order: filled by the
#: encoders, consumed by the decoders.
Attachments = dict[str, "bytes | memoryview"]


def _encode_value(parent: ET.Element, name: str, value: Any,
                  attachments: Attachments | None = None) -> None:
    el = ET.SubElement(parent, name)
    type_attr = _qname(XSI_NS, "type")
    if isinstance(value, PayloadRef):
        # by-reference transfer (see repro.ws.payload): the receiving
        # side resolves the digest against its local payload store, or
        # maps the named shared-memory segment when via="shm"
        el.set(type_attr, "repro:payloadRef")
        el.set("digest", value.digest)
        el.set("size", str(value.size))
        el.set("kind", value.kind)
        if value.via:
            el.set("via", value.via)
    elif value is None:
        el.set(_qname(XSI_NS, "nil"), "true")
    elif isinstance(value, bool):
        el.set(type_attr, "xsd:boolean")
        el.text = "true" if value else "false"
    elif isinstance(value, numbers.Integral):
        # covers int and numpy integer scalars alike
        el.set(type_attr, "xsd:int")
        el.text = str(int(value))
    elif isinstance(value, numbers.Real):
        el.set(type_attr, "xsd:double")
        el.text = repr(float(value))
    elif isinstance(value, str):
        if _XML_UNSAFE.search(value):
            # XML 1.0 cannot carry control characters, and parsers
            # normalise \r; ship such strings base64-encoded instead
            el.set(type_attr, "repro:stringb64")
            el.text = base64.b64encode(
                value.encode("utf-8", "surrogatepass")).decode("ascii")
        else:
            el.set(type_attr, "xsd:string")
            el.text = value
    elif isinstance(value, (bytes, memoryview)):
        # memoryview: a mapped or attached payload being re-encoded (a
        # relay hop) — b64encode reads any buffer without copying first
        el.set(type_attr, "xsd:base64Binary")
        if attachments is not None and len(value) >= payload.MIN_REF_BYTES:
            cid = f"part{len(attachments)}"
            attachments[cid] = value
            el.set("href", "cid:" + cid)
        else:
            el.text = base64.b64encode(value).decode("ascii")
    elif isinstance(value, (dict, list, tuple)):
        el.set(type_attr, "repro:json")
        el.text = json.dumps(value)
    else:
        raise ServiceError(
            f"cannot encode value of type {type(value).__name__} "
            f"for parameter {name!r}")


def _attached(el: ET.Element, attachments: Attachments | None
              ) -> bytes | memoryview:
    """Take the part an ``href="cid:..."`` element names."""
    href = el.get("href", "")
    cid = href[len("cid:"):] if href.startswith("cid:") else ""
    if not attachments or cid not in attachments:
        raise MalformedBody(
            f"element <{el.tag}> references no attachment: {href!r}")
    return attachments.pop(cid)


def _all_taken(attachments: Attachments | None) -> None:
    if attachments:
        raise MalformedBody(
            f"attachment parts no element references: "
            f"{sorted(attachments)}")


def _decode_value(el: ET.Element,
                  attachments: Attachments | None = None) -> Any:
    if el.get(_qname(XSI_NS, "nil")) == "true":
        return None
    type_attr = el.get(_qname(XSI_NS, "type"), "xsd:string")
    text = el.text or ""
    if type_attr.endswith("boolean"):
        return text.strip().lower() == "true"
    if type_attr.endswith("int"):
        return int(text)
    if type_attr.endswith("double"):
        return float(text)
    if type_attr.endswith("base64Binary"):
        if el.get("href") is not None:
            return _attached(el, attachments)
        return base64.b64decode(text)
    if type_attr.endswith("stringb64"):
        return base64.b64decode(text).decode("utf-8", "surrogatepass")
    if type_attr.endswith("json"):
        return json.loads(text) if text else None
    if type_attr.endswith("payloadRef"):
        # decode parses: whoever dispatches the call resolves the ref
        # (payload.resolve_refs), a relay forwards it unopened
        size = el.get("size", "")
        return PayloadRef(payload.well_formed(el.get("digest", "")),
                          int(size) if size.isdigit() else 0,
                          el.get("kind", "str"), el.get("via", ""))
    return text


@dataclass
class SoapFault(ServiceError):
    """A SOAP fault (also raised client-side when a response carries one)."""

    faultcode: str = "soapenv:Server"
    faultstring: str = "internal error"
    detail: str = ""

    def __post_init__(self) -> None:
        super().__init__(f"{self.faultcode}: {self.faultstring}")


@dataclass
class SoapRequest:
    """One operation invocation.

    ``trace_id``/``parent_span_id`` carry the observability trace context
    (see :mod:`repro.obs`); when set they travel in a SOAP header element
    ``<repro:TraceContext>`` so server-side spans join the client's trace.

    ``deadline_s`` is the remaining time budget at send time (see
    :mod:`repro.ws.deadline`); when set it travels in a
    ``<repro:Deadline remainingMs="..."/>`` header so the callee — and
    every call *it* makes — stays bounded by the caller's budget.
    """

    service: str
    operation: str
    params: dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""
    parent_span_id: str = ""
    deadline_s: float | None = None
    #: Admission identity/weight (see :mod:`repro.ws.admission`): when
    #: set they travel in a ``<repro:Caller>`` header so per-principal
    #: rate limits and priority shedding apply across hops.  The HTTP
    #: transports mirror them into ``X-Repro-Principal`` /
    #: ``X-Repro-Priority`` headers so a front door can shed without
    #: parsing XML.
    principal: str = ""
    priority: int = 0


@dataclass
class SoapResponse:
    """The result of one invocation."""

    service: str
    operation: str
    result: Any = None


@dataclass
class SubCall:
    """One item of a multicall batch: an operation plus its parameters."""

    operation: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class CallOutcome:
    """Per-item outcome of a multicall: a result or a captured fault.

    Item faults are *carried*, not raised — one malformed sub-call must
    not fail its siblings.  :meth:`unwrap` raises the stored exception
    for callers that want single-call semantics back.
    """

    result: Any = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def fault(self) -> SoapFault | None:
        return self.error if isinstance(self.error, SoapFault) else None

    def unwrap(self) -> Any:
        """The result, or raise the stored per-item error."""
        if self.error is not None:
            raise self.error
        return self.result


def multicall_request(service: str, calls: list[SubCall], *,
                      trace_id: str = "", parent_span_id: str = "",
                      deadline_s: float | None = None,
                      principal: str = "", priority: int = 0
                      ) -> SoapRequest:
    """Build the batch request; it flows through the ordinary interceptor
    chains as one :class:`SoapRequest` whose operation is
    :data:`MULTICALL_OP`, so deadlines, breaker state, tracing, gzip,
    payload-refs and admission control all apply to the batch as a
    unit."""
    return SoapRequest(service=service, operation=MULTICALL_OP,
                       params={"calls": list(calls)}, trace_id=trace_id,
                       parent_span_id=parent_span_id, deadline_s=deadline_s,
                       principal=principal, priority=priority)


def is_multicall(request: SoapRequest) -> bool:
    """True when *request* is a batched-invocation envelope."""
    return (request.operation == MULTICALL_OP
            and isinstance(request.params.get("calls"), list))


def calls_of(request: SoapRequest) -> list[SubCall]:
    """The ordered sub-calls of a multicall request."""
    calls = request.params.get("calls")
    if not isinstance(calls, list) or not all(
            isinstance(item, SubCall) for item in calls):
        raise ServiceError("multicall request carries no sub-call list")
    return calls


def batch_size_of(request: SoapRequest) -> int | None:
    """Number of sub-calls if *request* is a multicall, else ``None``."""
    if not is_multicall(request):
        return None
    return len(request.params["calls"])


_TRACE_ID_OK = _re.compile(r"^[0-9a-f]{1,64}$")


def encode_request(request: SoapRequest,
                   attachments: Attachments | None = None) -> bytes:
    """Serialise a SoapRequest as an envelope; large binary parameters
    move into *attachments* when the caller passes one."""
    envelope = ET.Element(_qname(ENVELOPE_NS, "Envelope"))
    if request.trace_id or request.deadline_s is not None \
            or request.principal or request.priority:
        header = ET.SubElement(envelope, _qname(ENVELOPE_NS, "Header"))
        if request.trace_id:
            ctx = ET.SubElement(header, _qname(REPRO_NS, "TraceContext"))
            ctx.set("traceId", request.trace_id)
            if request.parent_span_id:
                ctx.set("parentSpanId", request.parent_span_id)
        if request.deadline_s is not None:
            dl = ET.SubElement(header, _qname(REPRO_NS, "Deadline"))
            dl.set("remainingMs",
                   f"{max(0.0, request.deadline_s) * 1000.0:.3f}")
        if request.principal or request.priority:
            caller = ET.SubElement(header, _qname(REPRO_NS, "Caller"))
            if request.principal:
                caller.set("principal", request.principal)
            if request.priority:
                caller.set("priority", str(int(request.priority)))
    body = ET.SubElement(envelope, _qname(ENVELOPE_NS, "Body"))
    if is_multicall(request):
        batch = ET.SubElement(body, _qname(REPRO_NS, MULTICALL_OP))
        batch.set("service", request.service)
        for sub in calls_of(request):
            call = ET.SubElement(batch, _qname(REPRO_NS, "Call"))
            call.set("operation", _check_name(sub.operation, "operation"))
            for name, value in sub.params.items():
                _encode_value(call, _check_name(name, "parameter"), value,
                              attachments)
        return ET.tostring(envelope, encoding="utf-8",
                           xml_declaration=True)
    op = ET.SubElement(body, _qname(
        REPRO_NS, _check_name(request.operation, "operation")))
    op.set("service", request.service)
    for name, value in request.params.items():
        _encode_value(op, _check_name(name, "parameter"), value,
                      attachments)
    return ET.tostring(envelope, encoding="utf-8",
                       xml_declaration=True)


def decode_request(document: bytes,
                   attachments: Attachments | None = None) -> SoapRequest:
    """Parse a request envelope into a SoapRequest.

    *attachments* are the parts that arrived beside it (see
    :func:`unframe`): each must be referenced by exactly one element,
    whose value is the part itself — a view of the request body, not a
    copy — or the message is a :class:`MalformedBody`.
    """
    parts = dict(attachments or ())
    arrived = list(parts.values())
    request = _decode_request(_envelope_of(document), parts)
    _all_taken(parts)
    for value in arrived:
        # like a large inline value, so a repeat send can go by ref
        payload.absorb(value)
    return request


def _decode_request(envelope: ET.Element,
                    parts: Attachments) -> SoapRequest:
    body = _body_in(envelope)
    op = _single_child(body, "request")
    local = op.tag.rsplit("}", 1)[-1]
    service = op.get("service", "")
    if local == MULTICALL_OP:
        calls = []
        for call_el in op:
            if call_el.tag.rsplit("}", 1)[-1] != "Call":
                raise ServiceError(
                    "multicall body may only carry <repro:Call> items")
            calls.append(SubCall(call_el.get("operation", ""),
                                 _decode_params(call_el, parts)))
        params = {"calls": calls}
    else:
        params = _decode_params(op, parts)
    trace_id, parent_span_id = _decode_trace_header(envelope)
    principal, priority = _decode_caller_header(envelope)
    return SoapRequest(service=service, operation=local, params=params,
                       trace_id=trace_id, parent_span_id=parent_span_id,
                       deadline_s=_decode_deadline_header(envelope),
                       principal=principal, priority=priority)


def _decode_params(parent: ET.Element, parts: Attachments) -> dict:
    """One call's parameters: large inline values are remembered, so the
    peer's next send of the same content can travel as a
    ``<repro:payloadRef>``; a ref stays the :class:`PayloadRef` it is."""
    params = {child.tag.rsplit("}", 1)[-1]: _decode_value(child, parts)
              for child in parent}
    payload.absorb_params(params)
    return params


def _decode_trace_header(envelope: ET.Element) -> tuple[str, str]:
    """Extract (trace id, parent span id) from the envelope header.

    Ill-formed ids are dropped rather than faulted: trace context is
    advisory metadata and must never break an invocation.
    """
    header = envelope.find(_qname(ENVELOPE_NS, "Header"))
    if header is None:
        return "", ""
    ctx = header.find(_qname(REPRO_NS, "TraceContext"))
    if ctx is None:
        return "", ""
    trace_id = ctx.get("traceId", "")
    parent = ctx.get("parentSpanId", "")
    if not _TRACE_ID_OK.match(trace_id):
        return "", ""
    if parent and not _TRACE_ID_OK.match(parent):
        parent = ""
    return trace_id, parent


def _decode_deadline_header(envelope: ET.Element) -> float | None:
    """Extract the remaining-budget header as seconds, if present.

    A malformed value is dropped (treated as "no deadline") rather than
    faulted: a broken header must not take down an otherwise valid call,
    and the caller still has its own client-side expiry.
    """
    header = envelope.find(_qname(ENVELOPE_NS, "Header"))
    if header is None:
        return None
    dl = header.find(_qname(REPRO_NS, "Deadline"))
    if dl is None:
        return None
    try:
        remaining_ms = float(dl.get("remainingMs", ""))
    except ValueError:
        return None
    if remaining_ms < 0:
        remaining_ms = 0.0
    return remaining_ms / 1000.0


def _decode_caller_header(envelope: ET.Element) -> tuple[str, int]:
    """Extract (principal, priority) from the envelope header.

    Like the trace context, caller identity is advisory: a malformed
    priority is dropped (treated as 0) rather than faulted.
    """
    header = envelope.find(_qname(ENVELOPE_NS, "Header"))
    if header is None:
        return "", 0
    caller = header.find(_qname(REPRO_NS, "Caller"))
    if caller is None:
        return "", 0
    principal = caller.get("principal", "")
    try:
        priority = int(caller.get("priority", "0"))
    except ValueError:
        priority = 0
    return principal, priority


def _fault_fields(error: Exception) -> tuple[str, str, str]:
    """(faultcode, faultstring, detail) for a per-item multicall fault."""
    if isinstance(error, SoapFault):
        return error.faultcode, error.faultstring, error.detail
    if isinstance(error, DeadlineExceeded):
        return DEADLINE_FAULTCODE, str(error), ""
    if isinstance(error, OverloadedError):
        detail = "" if error.retry_after_s is None \
            else f"{error.retry_after_s:.3f}"
        return OVERLOAD_FAULTCODE, str(error), detail
    return "soapenv:Server", str(error) or type(error).__name__, ""


def fault_for(error: Exception) -> SoapFault:
    """The :class:`SoapFault` a server answers with for *error*.

    Maps the dedicated non-retriable exceptions (deadline expiry,
    admission sheds) onto their reserved fault codes so
    :func:`decode_response` resurfaces the same exception type
    client-side; anything else becomes a generic server fault.
    """
    if isinstance(error, SoapFault):
        return error
    code, string, detail = _fault_fields(error)
    return SoapFault(code, string, detail)


def _fault_to_exception(code: str, string: str, detail: str) -> Exception:
    """Map fault fields back to the exception a single call would raise."""
    if code == DEADLINE_FAULTCODE:
        # the dedicated (non-retriable) exception so clients do not
        # burn retries on an already-spent budget
        return DeadlineExceeded(string)
    if code == OVERLOAD_FAULTCODE:
        # the dedicated back-off exception: not a ServiceError, so the
        # transient-retry set and circuit breakers leave it alone
        try:
            retry_after = float(detail)
        except ValueError:
            retry_after = None
        return OverloadedError(string, retry_after_s=retry_after)
    if code == payload.MISS_FAULTCODE:
        # the peer does not hold a referenced payload: transports
        # catch this and fall back to a full inline resend
        return PayloadMissError(detail, string)
    return SoapFault(code, string, detail)


def encode_response(response: SoapResponse,
                    attachments: Attachments | None = None) -> bytes:
    """Serialise a SoapResponse as an envelope; large binary results
    move into *attachments* when the caller passes one."""
    envelope = ET.Element(_qname(ENVELOPE_NS, "Envelope"))
    body = ET.SubElement(envelope, _qname(ENVELOPE_NS, "Body"))
    op = ET.SubElement(body,
                       _qname(REPRO_NS, f"{response.operation}Response"))
    op.set("service", response.service)
    if response.operation == MULTICALL_OP:
        outcomes = response.result or []
        if not all(isinstance(o, CallOutcome) for o in outcomes):
            raise ServiceError(
                "multicall response result must be CallOutcome items")
        for outcome in outcomes:
            if outcome.ok:
                item = ET.SubElement(op, _qname(REPRO_NS, "Result"))
                _encode_value(item, "return", outcome.result, attachments)
            else:
                item = ET.SubElement(op, _qname(REPRO_NS, "Fault"))
                code, string, detail = _fault_fields(outcome.error)
                ET.SubElement(item, "faultcode").text = code
                ET.SubElement(item, "faultstring").text = string
                if detail:
                    ET.SubElement(item, "detail").text = detail
        return ET.tostring(envelope, encoding="utf-8",
                           xml_declaration=True)
    _encode_value(op, "return", response.result, attachments)
    return ET.tostring(envelope, encoding="utf-8", xml_declaration=True)


def encode_fault(fault: SoapFault) -> bytes:
    """Serialise a SoapFault as a fault envelope."""
    envelope = ET.Element(_qname(ENVELOPE_NS, "Envelope"))
    body = ET.SubElement(envelope, _qname(ENVELOPE_NS, "Body"))
    el = ET.SubElement(body, _qname(ENVELOPE_NS, "Fault"))
    code = ET.SubElement(el, "faultcode")
    code.text = fault.faultcode
    string = ET.SubElement(el, "faultstring")
    string.text = fault.faultstring
    if fault.detail:
        detail = ET.SubElement(el, "detail")
        detail.text = fault.detail
    return ET.tostring(envelope, encoding="utf-8", xml_declaration=True)


def decode_response(document: bytes,
                    attachments: Attachments | None = None) -> SoapResponse:
    """Decode a response envelope, raising :class:`SoapFault` on faults.

    A result that arrived as one of *attachments* is copied out of the
    response body, so callers get ``bytes`` whichever way it travelled.
    """
    parts = {cid: bytes(part) for cid, part in (attachments or {}).items()}
    response = _decode_response(_body_of(document), parts)
    _all_taken(parts)
    return response


def _decode_response(body: ET.Element, parts: Attachments) -> SoapResponse:
    child = _single_child(body, "response")
    local = child.tag.rsplit("}", 1)[-1]
    if local == "Fault":
        code = child.findtext("faultcode", "soapenv:Server")
        string = child.findtext("faultstring", "unknown fault")
        detail = child.findtext("detail", "") or ""
        raise _fault_to_exception(code, string, detail)
    if not local.endswith("Response"):
        raise ServiceError(f"unexpected response element {local!r}")
    if local == f"{MULTICALL_OP}Response":
        outcomes: list[CallOutcome] = []
        for item in child:
            kind = item.tag.rsplit("}", 1)[-1]
            if kind == "Result":
                result_el = item.find("return")
                outcomes.append(CallOutcome(
                    result=_decode_value(result_el, parts)
                    if result_el is not None else None))
            elif kind == "Fault":
                outcomes.append(CallOutcome(error=_fault_to_exception(
                    item.findtext("faultcode", "soapenv:Server"),
                    item.findtext("faultstring", "unknown fault"),
                    item.findtext("detail", "") or "")))
            else:
                raise ServiceError(
                    f"unexpected multicall item element {kind!r}")
        return SoapResponse(service=child.get("service", ""),
                            operation=MULTICALL_OP, result=outcomes)
    result_el = child.find("return")
    result = _decode_value(result_el, parts) \
        if result_el is not None else None
    return SoapResponse(service=child.get("service", ""),
                        operation=local[:-len("Response")],
                        result=result)


def _body_of(document: bytes) -> ET.Element:
    return _body_in(_envelope_of(document))


def _envelope_of(document: bytes) -> ET.Element:
    try:
        envelope = ET.fromstring(document)
    except ET.ParseError as exc:
        raise ServiceError(f"malformed SOAP document: {exc}") from exc
    if envelope.tag != _qname(ENVELOPE_NS, "Envelope"):
        raise ServiceError(f"not a SOAP envelope: {envelope.tag}")
    return envelope


def _body_in(envelope: ET.Element) -> ET.Element:
    body = envelope.find(_qname(ENVELOPE_NS, "Body"))
    if body is None:
        raise ServiceError("SOAP envelope has no Body")
    return body


def _single_child(body: ET.Element, what: str) -> ET.Element:
    children = list(body)
    if len(children) != 1:
        raise ServiceError(
            f"SOAP {what} body must carry exactly one element, "
            f"got {len(children)}")
    return children[0]


# -- attachments beside the envelope -----------------------------------------

#: Media type of a message that carries attachment parts.
MULTIPART = "multipart/related"
#: Media type of an envelope: a whole body, or a message's first part.
XML = "text/xml; charset=utf-8"

# The reader takes the boundary from Content-Type and advances by each
# part's Content-Length, so a fixed one is safe: bytes that look like a
# delimiter inside a frame are never examined.
_BOUNDARY = "repro-swa"
_MULTIPART_TYPE = f'{MULTIPART}; type="text/xml"; boundary="{_BOUNDARY}"'


class Framed(NamedTuple):
    """One message as it crosses HTTP."""

    body: bytes
    content_type: str
    content_encoding: str | None


def frame(envelope: bytes, attachments: Attachments | None,
          gzip: bool) -> Framed:
    """The HTTP body for *envelope* and the *attachments* its elements
    reference.

    With *gzip*, :func:`repro.ws.payload.maybe_compress` applies to the
    envelope alone; attachment parts travel stored (level-1 gzip of a
    raw RCF1 frame costs 39 ms per 1.3 MB and saves 4.7 %).  Without
    attachments the body is the envelope itself, as before.
    """
    chunks, content_type, encoding = frame_chunks(envelope, attachments,
                                                  gzip)
    return Framed(b"".join(chunks), content_type, encoding)


def frame_chunks(envelope: bytes, attachments: Attachments | None,
                 gzip: bool) -> tuple[list[bytes | memoryview], str,
                                      str | None]:
    """:func:`frame` for a sender that writes the body piece by piece:
    ``(chunks, content_type, content_encoding)``, where the chunks
    concatenate to the body and every attachment is its own chunk —
    the caller's buffer, not a copy of it."""
    encoding = None
    if gzip:
        envelope, encoding = payload.maybe_compress(envelope)
    if not attachments:
        return [envelope], XML, encoding
    delimiter = f"--{_BOUNDARY}".encode()
    head = b"Content-Type: %s\r\nContent-Length: %d\r\n" % (
        XML.encode(), len(envelope))
    if encoding:
        head += b"Content-Encoding: %s\r\n" % encoding.encode()
    # the envelope part goes out in one chunk with the first part's head
    chunks, lead = [], b"".join((delimiter, b"\r\n", head, b"\r\n", envelope))
    for cid, data in attachments.items():
        chunks += [lead + b"\r\n%s\r\nContent-ID: <%s>\r\n"
                          b"Content-Type: application/octet-stream\r\n"
                          b"Content-Length: %d\r\n\r\n" % (
                              delimiter, cid.encode(), len(data)),
                   data]
        lead = b""
    chunks.append(b"\r\n%s--\r\n" % delimiter)
    _count_attachments(attachments)
    return chunks, _MULTIPART_TYPE, None


def unframe(body: bytes, content_type: str | None,
            content_encoding: str | None
            ) -> tuple[bytes, Attachments | None]:
    """Undo :func:`frame`: ``(envelope, attachments)`` of one HTTP body,
    decompressed; the attachments are views of *body*.

    Raises :class:`MalformedBody` for a multipart body that does not
    frame — a missing or non-XML first part, a part without a valid
    ``Content-Length`` or running past the body, a missing delimiter, a
    repeated or absent ``Content-ID``, bytes after the closing
    delimiter.
    """
    body = payload.decompress(body, content_encoding)
    media_type, _, parameters = (content_type or "").partition(";")
    if media_type.strip().lower() != MULTIPART:
        return body, None
    parts = _split_parts(body, _boundary_in(parameters))
    if not parts or \
            not parts[0][0].get("content-type", "").startswith("text/xml"):
        raise MalformedBody("multipart body has no envelope part")
    root_head, root = parts[0]
    attachments: Attachments = {}
    for head, data in parts[1:]:
        cid = head.get("content-id", "")
        if not (cid.startswith("<") and cid.endswith(">") and cid[1:-1]):
            raise MalformedBody(
                f"attachment part has no Content-ID ({cid!r})")
        if cid[1:-1] in attachments:
            raise MalformedBody(f"duplicate attachment part {cid}")
        attachments[cid[1:-1]] = data
    _count_attachments(attachments)
    return payload.decompress(bytes(root),
                              root_head.get("content-encoding")), attachments


def attachment_bytes(attachments: Attachments | None) -> int:
    """Total size of the parts travelling beside one envelope."""
    return sum(len(data) for data in (attachments or {}).values())


def _count_attachments(attachments: Attachments) -> None:
    if attachments:
        metrics = get_metrics()
        metrics.counter("ws.soap.attachments").inc(len(attachments))
        metrics.counter("ws.soap.attachment_bytes").inc(
            attachment_bytes(attachments))


def _boundary_in(parameters: str) -> bytes:
    for parameter in parameters.split(";"):
        name, _, value = parameter.partition("=")
        if name.strip().lower() == "boundary":
            boundary = value.strip().strip('"')
            # RFC 2046: 1-70 characters
            if 0 < len(boundary) <= 70:
                return boundary.encode("latin-1")
    raise MalformedBody("multipart Content-Type names no boundary")


def _split_parts(body: bytes, boundary: bytes
                 ) -> list[tuple[dict[str, str], memoryview]]:
    """``(lowercased headers, data view)`` of every part, found by
    walking: delimiter, head, ``Content-Length`` bytes, delimiter, ...
    Each step checks what it lands on, so the cost is per part, not per
    byte, and every wrong length ends the walk.  An attachment part is
    never shorter than :data:`repro.ws.payload.MIN_REF_BYTES` (smaller
    values stay in the envelope), which bounds the part count by the
    body length."""
    delimiter = b"--" + boundary
    view = memoryview(body).toreadonly()  # a front may read into a bytearray
    parts: list[tuple[dict[str, str], memoryview]] = []
    at = 0
    while True:
        if body[at:at + len(delimiter)] != delimiter:
            raise MalformedBody(f"no part delimiter at byte {at}")
        at += len(delimiter)
        if body[at:at + 2] == b"--":
            if body[at + 2:at + 5] not in (b"", b"\r\n"):
                raise MalformedBody("bytes after the closing delimiter")
            return parts
        # a head is a few short lines: look no further into what may
        # be binary than that
        head_end = body.find(b"\r\n\r\n", at, at + 1024)
        if body[at:at + 2] != b"\r\n" or head_end < 0:
            raise MalformedBody(f"unterminated part head at byte {at}")
        head = {}
        for line in body[at + 2:head_end].decode("latin-1").split("\r\n"):
            name, _, value = line.partition(":")
            head[name.strip().lower()] = value.strip()
        start = head_end + 4
        length = _length_of(head, len(body) - start - 2)
        if length is None or (parts and length < payload.MIN_REF_BYTES):
            raise MalformedBody(
                f"part at byte {at} has Content-Length "
                f"{head.get('content-length')!r}, "
                f"{len(body) - start} bytes remain")
        at = start + length
        parts.append((head, view[start:at]))
        if body[at:at + 2] != b"\r\n":
            raise MalformedBody(f"part does not end at byte {at}")
        at += 2


def _length_of(head: dict[str, str], most: int) -> int | None:
    """A part's ``Content-Length`` when it is a byte count of at most
    *most*; never parses more digits than *most* has."""
    text = head.get("content-length", "")
    if text.isascii() and text.isdigit() and len(text) <= len(str(most)) \
            and int(text) <= most:
        return int(text)
    return None
