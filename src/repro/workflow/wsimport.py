"""WSDL import: turn a Web Service into workspace tools (§4).

    "A Web Service is imported to the workspace by providing its WSDL
    interface.  Once the interface is provided, Triana creates a tool for
    each operation provided by the service.  These tools are used to invoke
    the service operations and are similar to the pre-defined tools but have
    a different colour in the workspace."

Imported tools carry ``is_web_service = True`` (the "different colour") and
the WSDL URL so the workspace can show "a URL specifying the location of the
WSDL document ... along with the data types that are necessary to invoke the
particular Web Service" (§4.5).

:func:`call_chain` sends a chain of imported tools behind one front as a
single multicall, each link's input an item reference to the result
before it; the engine uses it for a linear run of such tools.
"""

from __future__ import annotations

from typing import Any

from repro.ws import wsdl as wsdl_mod
from repro.ws.client import HttpTransport, ServiceProxy, fetch_url
from repro.ws.soap import CallOutcome, ItemRef
from repro.ws.transport import Transport
from repro.workflow.model import Tool
from repro.workflow.toolbox import ToolBox


class WebServiceTool(Tool):
    """One imported service operation as a workspace tool.

    Inputs are the operation's WSDL parameters in order; unconnected inputs
    fall back to task parameters of the same name.  The single output is the
    operation result.
    """

    is_web_service = True  # the paper's "different colour"

    def __init__(self, proxy: ServiceProxy, operation: str,
                 wsdl_url: str = "", folder: str = "WebServices"):
        info = proxy.description.operations[operation]
        service = proxy.description.service
        super().__init__(f"{service}.{operation}",
                         [p for p, _ in info.params], ["result"],
                         folder, info.doc)
        self.proxy = proxy
        self.operation = operation
        self.wsdl_url = wsdl_url
        self.param_types = dict(info.params)

    def call_params(self, inputs: list[Any], parameters: dict[str, Any]
                    ) -> dict[str, Any]:
        """The operation's parameters: each input that carries a value,
        then the task parameters the WSDL declares for the rest."""
        params: dict[str, Any] = {}
        for name, value in zip(self.inputs, inputs):
            if value is not None:
                params[name] = value
        for name, value in parameters.items():
            if name in self.param_types:
                params.setdefault(name, value)
        return params

    def run(self, inputs: list[Any], parameters: dict[str, Any]
            ) -> list[Any]:
        return [self.proxy.call(self.operation,
                                **self.call_params(inputs, parameters))]

    def chains_to(self, other: Tool) -> bool:
        """True when *other*'s call may ride in a multicall this tool's
        proxy sends: an imported tool behind the same front, called for
        the same principal and priority, through the same breaker."""
        if not isinstance(other, WebServiceTool):
            return False
        mine, theirs = self.proxy, other.proxy
        return (mine.shares_front(theirs)
                and mine.principal == theirs.principal
                and mine.priority == theirs.priority
                and mine.breaker is theirs.breaker)

    def tooltip(self) -> str:
        """The §4.5 hover text: WSDL location + invocation data types."""
        types = ", ".join(f"{n}: {t}" for n, t in self.param_types.items())
        return (f"{self.name}\nWSDL: {self.wsdl_url or '(local)'}\n"
                f"inputs: {types or '(none)'}")


def call_chain(links: list[tuple[WebServiceTool, list[Any],
                                 dict[str, Any], int]]
               ) -> list[CallOutcome]:
    """One multicall for a chain of tool invocations, sent by the first
    tool's proxy: *links* are ``(tool, inputs, parameters, fed)`` in
    chain order, where input ``fed`` of every link after the first
    becomes an item reference to the result of the link before it.
    Returns one outcome per link; a link whose predecessor failed is
    not dispatched."""
    items = []
    for position, (tool, inputs, parameters, fed) in enumerate(links):
        if position:
            inputs = list(inputs)
            inputs[fed] = ItemRef(position - 1)
        items.append((tool.proxy, tool.operation,
                      tool.call_params(inputs, parameters)))
    return links[0][0].proxy.call_many(items)


def import_wsdl_url(url: str, toolbox: ToolBox | None = None,
                    folder: str = "WebServices") -> list[WebServiceTool]:
    """Fetch a ``?wsdl`` URL and create one tool per operation."""
    description = wsdl_mod.parse(fetch_url(url))
    proxy = ServiceProxy(description, HttpTransport(description.address))
    return _import(proxy, url, toolbox, folder)


def import_wsdl_text(document: str, transport: Transport,
                     toolbox: ToolBox | None = None,
                     folder: str = "WebServices"
                     ) -> list[WebServiceTool]:
    """Create tools from WSDL text with an explicit transport (in-process
    containers, simulated networks)."""
    proxy = ServiceProxy.from_wsdl_text(document, transport)
    return _import(proxy, "", toolbox, folder)


def _import(proxy: ServiceProxy, url: str, toolbox: ToolBox | None,
            folder: str) -> list[WebServiceTool]:
    tools = [WebServiceTool(proxy, op, url, folder)
             for op in proxy.operations()]
    if toolbox is not None:
        for tool in tools:
            toolbox.register(tool)
    return tools
