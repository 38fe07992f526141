"""Web-services substrate: SOAP messages, WSDL descriptions, the service
container with the §4.5 lifecycles, HTTP hosting, client proxies, the UDDI
registry and transport models."""

from repro.ws.soap import (DEADLINE_FAULTCODE, MULTICALL_OP,
                           OVERLOAD_FAULTCODE, CallOutcome, SoapFault,
                           SoapRequest, SoapResponse, SubCall,
                           decode_request, decode_response, encode_fault,
                           encode_request, encode_response,
                           multicall_request)
from repro.ws.deadline import Deadline, current_deadline, deadline_scope
from repro.ws.breaker import CircuitBreaker
from repro.ws import failover
from repro.ws.admission import (AdmissionController, AdmissionHandler,
                                Ticket, TokenBucket)
from repro.ws.service import OperationInfo, ServiceDefinition, operation
from repro.ws.container import LIFECYCLES, ServiceContainer, ServiceStats
from repro.ws.httpd import SoapHttpServer
from repro.ws.aserve import AsyncSoapHttpServer
from repro.ws import loadgen
from repro.ws.loadgen import LoadReport
from repro.ws.client import HttpTransport, ServiceProxy, fetch_url
from repro.ws import payload
from repro.ws.payload import (PayloadMissError, PayloadRef, PayloadStore,
                              get_payload_store)
from repro.ws.registry import RegistryEntry, RegistryService, UDDIRegistry
from repro.ws.transport import (LAN, WAN, ChainedTransport,
                                FailingTransport, InProcessTransport,
                                NetworkModel, SimulatedTransport,
                                Transport)
from repro.ws import pipeline
from repro.ws.pipeline import (CallContext, ClientInterceptor,
                               DispatchContext, ServerHandler,
                               apply_deadline, chain_insert_after, chain_insert_before,
                               chain_names, chain_without,
                               default_proxy_interceptors,
                               default_server_handlers,
                               default_transport_interceptors)
from repro.ws import wsdl
from repro.ws.scatter import (ChunkDispatch, ScatterGather, ScatterReport,
                              default_chunk, set_default_chunk)

__all__ = [
    "SoapRequest", "SoapResponse", "SoapFault",
    "encode_request", "decode_request", "encode_response",
    "decode_response", "encode_fault",
    "MULTICALL_OP", "SubCall", "CallOutcome", "multicall_request",
    "ScatterGather", "ScatterReport", "ChunkDispatch",
    "default_chunk", "set_default_chunk",
    "operation", "ServiceDefinition", "OperationInfo",
    "ServiceContainer", "ServiceStats", "LIFECYCLES",
    "SoapHttpServer", "AsyncSoapHttpServer", "ServiceProxy",
    "HttpTransport", "fetch_url",
    "AdmissionController", "AdmissionHandler", "Ticket", "TokenBucket",
    "OVERLOAD_FAULTCODE", "loadgen", "LoadReport",
    "UDDIRegistry", "RegistryService", "RegistryEntry",
    "Transport", "ChainedTransport", "InProcessTransport",
    "SimulatedTransport", "FailingTransport", "NetworkModel", "LAN",
    "WAN",
    "pipeline", "ClientInterceptor", "ServerHandler", "CallContext",
    "DispatchContext", "chain_names", "chain_without",
    "chain_insert_before", "chain_insert_after",
    "default_transport_interceptors", "default_proxy_interceptors",
    "default_server_handlers",
    "Deadline", "deadline_scope", "current_deadline", "apply_deadline",
    "DEADLINE_FAULTCODE", "CircuitBreaker", "failover",
    "payload", "PayloadRef", "PayloadStore", "PayloadMissError",
    "get_payload_store",
    "wsdl",
]
