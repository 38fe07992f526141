"""Interceptor chain contracts: ordering, composition, and removal.

The chains are this stack's analogue of Axis handler chains, so their
shape is part of the API: the default orders are stable and documented,
user-supplied steps compose at declared positions, and splicing a step
out (e.g. the chaos interceptor) restores the unwrapped behaviour —
byte-for-byte on the wire.
"""

import asyncio
import inspect

from repro.chaos import ChaosController, ChaosInterceptor
from repro.ws import soap
from repro.ws.container import ServiceContainer
from repro.ws.pipeline import (ClientInterceptor, chain_insert_after,
                               chain_insert_before, chain_names,
                               chain_without, default_proxy_interceptors,
                               default_server_handlers,
                               default_transport_interceptors, run_chain,
                               run_chain_async)
from repro.ws.service import operation
from repro.ws.soap import SoapFault
from repro.ws.transport import InProcessTransport
from repro.ws.client import ServiceProxy
from repro.ws import wsdl

import pytest


class Echo:
    """Minimal service for chain plumbing tests."""

    @operation
    def shout(self, text: str) -> str:
        """Upper-case *text*."""
        return text.upper()


def _stack(tmp_path):
    container = ServiceContainer(state_dir=tmp_path)
    definition = container.deploy(Echo, "Echo")
    transport = InProcessTransport(container)
    proxy = ServiceProxy.from_wsdl_text(
        wsdl.generate(definition, "inproc://Echo"), transport)
    return container, transport, proxy


class TestDefaultOrders:
    """The documented chain orders are load-bearing — pin them."""

    def test_transport_chain_order(self):
        assert chain_names(default_transport_interceptors()) == \
            ["trace", "metrics", "deadline", "payload"]

    def test_transport_chain_order_with_gzip(self):
        assert chain_names(default_transport_interceptors(compress=True)) \
            == ["trace", "metrics", "deadline", "gzip", "payload"]

    def test_proxy_chain_order(self):
        assert chain_names(default_proxy_interceptors()) == \
            ["deadline", "breaker", "trace", "metrics"]

    def test_server_chain_order(self):
        assert chain_names(default_server_handlers()) == \
            ["refs", "trace", "resolve", "deadline", "multicall", "stats",
             "cache", "lifecycle", "faults"]

    def test_insert_helpers_place_steps(self):
        class Probe(ClientInterceptor):
            name = "probe"

        chain = default_transport_interceptors()
        before = chain_insert_before(chain, "deadline", Probe())
        after = chain_insert_after(chain, "deadline", Probe())
        assert chain_names(before) == \
            ["trace", "metrics", "probe", "deadline", "payload"]
        assert chain_names(after) == \
            ["trace", "metrics", "deadline", "probe", "payload"]
        # originals untouched: the helpers return copies
        assert chain_names(chain) == \
            ["trace", "metrics", "deadline", "payload"]

    def test_insert_unknown_step_lists_names(self):
        with pytest.raises(ValueError, match="trace"):
            chain_insert_before(default_transport_interceptors(),
                                "nope", ClientInterceptor())


class TestUserInterceptors:
    def test_user_step_observes_and_wraps_a_call(self, tmp_path):
        """A user interceptor sees the request and can rewrite the
        response — the Axis "custom handler" use case."""
        seen: list[str] = []

        class Decorate(ClientInterceptor):
            name = "decorate"

            def around(self, request, ctx):
                seen.append(f"{request.service}.{request.operation}")
                response = yield request
                response.result = f"<<{response.result}>>"
                return response

        _, transport, proxy = _stack(tmp_path)
        proxy.interceptors = chain_insert_before(
            proxy.interceptors, "trace", Decorate())
        assert proxy.call("shout", text="hi") == "<<HI>>"
        assert seen == ["Echo.shout"]

    def test_user_step_can_short_circuit(self, tmp_path):
        """Raising in the request flow vetoes the call entirely."""
        class Veto(ClientInterceptor):
            name = "veto"

            def around(self, request, ctx):
                raise SoapFault("soapenv:Client", "vetoed by policy")
                yield request

        _, _, proxy = _stack(tmp_path)
        proxy.interceptors = [Veto()] + proxy.interceptors
        with pytest.raises(SoapFault, match="vetoed"):
            proxy.call("shout", text="hi")


class _WireTap(ClientInterceptor):
    """Records the exact envelopes crossing its position in the chain."""

    name = "wiretap"

    def __init__(self):
        self.requests: list[bytes] = []
        self.responses: list[bytes] = []

    def around(self, request, ctx):
        self.requests.append(soap.encode_request(request))
        response = yield request
        self.responses.append(soap.encode_response(response))
        return response


class TestChaosSplicing:
    """ChaosInterceptor is just a chain step: splice in, splice out."""

    def _traffic(self, tmp_path, with_chaos: bool):
        _, transport, proxy = _stack(tmp_path)
        if with_chaos:
            controller = ChaosController("corrupt=1", seed=0)
            transport.interceptors = chain_insert_after(
                transport.interceptors, "payload",
                ChaosInterceptor(controller, "Echo"))
        tap = _WireTap()
        # innermost: sees exactly what reaches (and leaves) the mover
        transport.interceptors = transport.interceptors + [tap]
        outcome: list[str] = []
        for text in ("alpha", "beta"):
            try:
                outcome.append(proxy.call("shout", text=text))
            except Exception as exc:  # corrupted envelopes decode-fail
                outcome.append(type(exc).__name__)
        return tap, outcome

    def test_removing_chaos_restores_byte_identical_traffic(self, tmp_path):
        baseline, clean_outcome = self._traffic(tmp_path, with_chaos=False)
        assert clean_outcome == ["ALPHA", "BETA"]

        chaotic, chaotic_outcome = self._traffic(tmp_path, with_chaos=True)
        assert chaotic_outcome != clean_outcome

        # now build the chaotic chain again and splice the step back out
        _, transport, proxy = _stack(tmp_path)
        controller = ChaosController("corrupt=1", seed=0)
        transport.interceptors = chain_insert_after(
            transport.interceptors, "payload",
            ChaosInterceptor(controller, "Echo"))
        transport.interceptors = chain_without(
            transport.interceptors, "chaos")
        tap = _WireTap()
        transport.interceptors = transport.interceptors + [tap]
        healed = [proxy.call("shout", text=t) for t in ("alpha", "beta")]

        assert healed == clean_outcome
        assert tap.requests == baseline.requests
        assert tap.responses == baseline.responses


def _drive_async(steps, request, ctx, terminal):
    async def awaited(outbound):
        return terminal(outbound)
    return asyncio.run(run_chain_async(steps, request, ctx, awaited))


@pytest.fixture(params=[run_chain, _drive_async],
                ids=["run_chain", "run_chain_async"])
def drive(request):
    """Either driver, called as ``drive(steps, request, ctx, terminal)``
    with a plain (blocking) terminal."""
    return request.param


class _Logged(ClientInterceptor):
    """Logs its flows into a shared list and keeps every generator it
    handed out, so tests can check they were all closed."""

    def __init__(self, name, log):
        self.name = name
        self.log = log
        self.flows = []

    def around(self, request, ctx):
        flow = self.flow(request, ctx)
        self.flows.append(flow)
        return flow

    def flow(self, request, ctx):
        self.log.append(f"{self.name}:request")
        try:
            response = yield request
            self.log.append(f"{self.name}:response")
            return response
        except Exception as exc:
            self.log.append(f"{self.name}:fault:{type(exc).__name__}")
            raise
        finally:
            self.log.append(f"{self.name}:finally")


def _all_closed(*steps):
    return all(inspect.getgeneratorstate(flow) == inspect.GEN_CLOSED
               for step in steps for flow in step.flows)


class TestDriverSemantics:
    """One contract, two drivers: what a step's ``yield`` means."""

    def test_pass_through_runs_flows_outermost_first(self, drive):
        log = []
        outer, inner = _Logged("outer", log), _Logged("inner", log)
        assert drive([outer, inner], "req", None, str.upper) == "REQ"
        assert log == ["outer:request", "inner:request",
                       "inner:response", "inner:finally",
                       "outer:response", "outer:finally"]
        assert _all_closed(outer, inner)

    def test_empty_chain_is_the_terminal(self, drive):
        assert drive([], "req", None, str.upper) == "REQ"

    def test_request_and_response_rewrite(self, drive):
        class Rewrite(ClientInterceptor):
            def around(self, request, ctx):
                response = yield request + "+down"
                return response + "+up"

        seen = []

        def terminal(outbound):
            seen.append(outbound)
            return "answer"

        assert drive([Rewrite(), Rewrite()], "req", None, terminal) == \
            "answer+up+up"
        assert seen == ["req+down+down"]

    def test_return_without_yield_short_circuits(self, drive):
        class Cached(ClientInterceptor):
            def around(self, request, ctx):
                if request == "hit":
                    return "from cache"
                return (yield request)

        log = []
        below = _Logged("below", log)

        def terminal(outbound):
            raise AssertionError("the terminal must not run on a hit")

        assert drive([Cached(), below], "hit", None, terminal) == \
            "from cache"
        assert log == [] and below.flows == []
        assert drive([Cached(), below], "miss", None, str.upper) == "MISS"

    def test_second_yield_re_enters_the_rest_of_the_chain(self, drive):
        class Twice(ClientInterceptor):
            def around(self, request, ctx):
                first = yield request + "1"
                second = yield request + "2"
                return [first, second]

        log = []
        below = _Logged("below", log)
        assert drive([Twice(), below], "r", None, str.upper) == \
            ["R1", "R2"]
        assert log.count("below:request") == 2
        assert _all_closed(below)

    def test_exception_below_is_thrown_in_at_the_yield(self, drive):
        class Heal(ClientInterceptor):
            def around(self, request, ctx):
                try:
                    return (yield request)
                except KeyError:
                    return (yield "inline")     # resend, differently

        def terminal(outbound):
            if outbound != "inline":
                raise KeyError(outbound)
            return "healed"

        log = []
        below = _Logged("below", log)
        assert drive([Heal(), below], "by-ref", None, terminal) == "healed"
        assert log == ["below:request", "below:fault:KeyError",
                       "below:finally", "below:request",
                       "below:response", "below:finally"]
        assert _all_closed(below)

    def test_uncaught_exception_unwinds_every_step(self, drive):
        log = []
        outer, inner = _Logged("outer", log), _Logged("inner", log)

        def terminal(outbound):
            raise SoapFault("soapenv:Server", "boom")

        with pytest.raises(SoapFault, match="boom"):
            drive([outer, inner], "req", None, terminal)
        assert log == ["outer:request", "inner:request",
                       "inner:fault:SoapFault", "inner:finally",
                       "outer:fault:SoapFault", "outer:finally"]
        assert _all_closed(outer, inner)

    def test_finally_runs_when_a_step_above_fails(self, drive):
        class FailsOnResponse(ClientInterceptor):
            def around(self, request, ctx):
                yield request
                raise SoapFault("soapenv:Server", "response flow failed")

        class FailsOnRequest(ClientInterceptor):
            def around(self, request, ctx):
                raise SoapFault("soapenv:Server", "request flow failed")
                yield request

        log = []
        top, below = _Logged("top", log), _Logged("below", log)
        with pytest.raises(SoapFault, match="response flow"):
            drive([top, FailsOnResponse(), below], "req", None, str.upper)
        assert log == ["top:request", "below:request", "below:response",
                       "below:finally", "top:fault:SoapFault",
                       "top:finally"]
        del log[:]
        with pytest.raises(SoapFault, match="request flow"):
            drive([top, FailsOnRequest(), below], "req", None, str.upper)
        assert log == ["top:request", "top:fault:SoapFault", "top:finally"]
        assert _all_closed(top, below)
