"""Admission-control contracts: token buckets, the concurrency gate,
priority queueing with eviction, queue timeouts, and the async entry
point — all deterministic via :class:`~repro.clock.FakeClock` (bucket
math) and tiny wall-clock queue timeouts (queue waits are real)."""

import asyncio
import threading

import pytest

from repro import obs
from repro.clock import FakeClock
from repro.errors import OverloadedError
from repro.ws.admission import (DEFAULT_RETRY_HINT_S, AdmissionController,
                                AdmissionHandler, TokenBucket)
from repro.ws.pipeline import run_chain


class TestTokenBucket:
    def test_burst_then_refill_on_fake_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_take() for _ in range(3)] == [True] * 3
        assert not bucket.try_take()          # burst spent
        clock.advance(0.5)                    # +1 token at 2/s
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_retry_after_names_the_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
        assert bucket.try_take()
        # 1 token at 4/s = 0.25s away
        assert bucket.retry_after() == pytest.approx(0.25)
        clock.advance(0.25)
        assert bucket.retry_after() == pytest.approx(0.0)

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(60)
        assert bucket.tokens == pytest.approx(2.0)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)


class TestConcurrencyGate:
    def test_admits_up_to_max_concurrent_then_sheds(self):
        ctl = AdmissionController(max_concurrent=2, max_queue=0)
        t1, t2 = ctl.admit(), ctl.admit()
        assert ctl.inflight == 2
        with pytest.raises(OverloadedError) as exc:
            ctl.admit()
        assert exc.value.retry_after_s == pytest.approx(
            DEFAULT_RETRY_HINT_S)
        t1.release()
        t1.release()  # idempotent: the slot comes back exactly once
        assert ctl.inflight == 1
        with ctl.admit():
            assert ctl.inflight == 2
        t2.release()
        assert ctl.inflight == 0

    def test_global_rate_limit_sheds_with_bucket_hint(self):
        clock = FakeClock()
        ctl = AdmissionController(max_concurrent=8, rate=1.0, burst=1.0,
                                  clock=clock)
        ctl.admit().release()
        with pytest.raises(OverloadedError) as exc:
            ctl.admit()
        assert exc.value.retry_after_s == pytest.approx(1.0)
        assert obs.get_metrics().counter(
            "ws.admission.shed", reason="rate").value == 1
        clock.advance(1.0)
        ctl.admit().release()

    def test_per_principal_buckets_are_isolated(self):
        clock = FakeClock()
        ctl = AdmissionController(max_concurrent=8, principal_rate=1.0,
                                  principal_burst=1.0, clock=clock)
        ctl.admit(principal="greedy").release()
        with pytest.raises(OverloadedError):
            ctl.admit(principal="greedy")
        # the other tenant is untouched by greedy's exhaustion
        ctl.admit(principal="polite").release()
        assert obs.get_metrics().counter(
            "ws.admission.shed_by_principal",
            principal="greedy").value == 1

    def test_admitted_and_shed_are_counted(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=0)
        ticket = ctl.admit()
        with pytest.raises(OverloadedError):
            ctl.admit()
        ticket.release()
        metrics = obs.get_metrics()
        assert metrics.counter("ws.admission.admitted").value == 1
        assert metrics.counter("ws.admission.shed",
                               reason="queue_full").value == 1


class TestPriorityQueue:
    def test_release_hands_the_slot_to_a_waiter(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=4,
                                  queue_timeout_s=5.0)
        first = ctl.admit()
        admitted = threading.Event()

        def waiter():
            with ctl.admit():
                admitted.set()

        t = threading.Thread(target=waiter)
        t.start()
        while ctl.queued == 0:    # the waiter is parked in the queue
            pass
        first.release()
        assert admitted.wait(5)
        t.join(5)
        assert obs.get_metrics().counter("ws.admission.queued").value == 1

    def test_higher_priority_waiter_runs_first(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=4,
                                  queue_timeout_s=5.0)
        first = ctl.admit()
        order = []
        started = []

        def waiter(name, priority):
            started.append(name)
            with ctl.admit(priority=priority):
                order.append(name)

        threads = []
        for name, priority in [("low", 0), ("high", 5)]:
            t = threading.Thread(target=waiter, args=(name, priority))
            threads.append(t)
            t.start()
            while ctl.queued < len(started):
                pass
        first.release()
        for t in threads:
            t.join(5)
        assert order[0] == "high"

    def test_full_queue_evicts_the_weakest_for_an_outranking_newcomer(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=1,
                                  queue_timeout_s=5.0)
        first = ctl.admit()
        low_shed = []
        queued = threading.Event()

        def low_waiter():
            queued.set()
            try:
                with ctl.admit(priority=0):
                    pass
            except OverloadedError as exc:
                low_shed.append(exc)

        t = threading.Thread(target=low_waiter)
        t.start()
        queued.wait(5)
        while ctl.queued == 0:
            pass
        # the queue is full; an equal-priority newcomer is shed outright
        with pytest.raises(OverloadedError):
            ctl.admit(priority=0)
        # ... but a higher-priority one trades places with the tail
        high = []

        def high_waiter():
            with ctl.admit(priority=9):
                high.append(True)

        t2 = threading.Thread(target=high_waiter)
        t2.start()
        t.join(5)           # the low waiter was evicted and shed
        assert low_shed and "evicted" in str(low_shed[0])
        first.release()
        t2.join(5)
        assert high == [True]
        assert obs.get_metrics().counter("ws.admission.evicted").value == 1

    def test_queue_timeout_sheds_with_timeout_reason(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=4,
                                  queue_timeout_s=0.05)
        ticket = ctl.admit()
        with pytest.raises(OverloadedError) as exc:
            ctl.admit()
        assert "queue_timeout" in str(exc.value)
        assert ctl.queued == 0    # the abandoned waiter left the queue
        ticket.release()
        assert obs.get_metrics().counter(
            "ws.admission.shed", reason="queue_timeout").value == 1


class TestAsyncEntryPoint:
    def test_admit_async_mirrors_sync_policy(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=0)

        async def drive():
            ticket = await ctl.admit_async()
            with pytest.raises(OverloadedError):
                await ctl.admit_async()
            ticket.release()
            ticket2 = await ctl.admit_async()
            ticket2.release()

        asyncio.run(drive())
        assert ctl.inflight == 0

    def test_async_waiter_is_woken_by_sync_release(self):
        """The queue crosses the thread/loop boundary: a sync release
        must wake a waiter parked on an asyncio future."""
        ctl = AdmissionController(max_concurrent=1, max_queue=4,
                                  queue_timeout_s=5.0)
        ticket = ctl.admit()    # taken from the test thread

        async def drive():
            task = asyncio.ensure_future(ctl.admit_async())
            while ctl.queued == 0:
                await asyncio.sleep(0.001)
            # release from a foreign thread, as a sync server would
            await asyncio.to_thread(ticket.release)
            got = await asyncio.wait_for(task, 5)
            got.release()

        asyncio.run(drive())
        assert ctl.inflight == 0

    def test_async_queue_timeout_sheds(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=4,
                                  queue_timeout_s=0.05)
        ticket = ctl.admit()

        async def drive():
            with pytest.raises(OverloadedError) as exc:
                await ctl.admit_async()
            assert "queue_timeout" in str(exc.value)

        asyncio.run(drive())
        assert ctl.queued == 0
        ticket.release()


class TestHandlerStep:
    def test_handler_wraps_proceed_in_a_ticket(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=0)
        handler = AdmissionHandler(ctl)

        class Request:
            principal = "alice"
            priority = 3

        seen = {}

        def proceed(request):
            seen["inflight"] = ctl.inflight
            return "ok"

        assert run_chain([handler], Request(), None, proceed) == "ok"
        assert seen["inflight"] == 1    # slot held across the dispatch
        assert ctl.inflight == 0        # and returned afterwards

    def test_handler_propagates_the_shed(self):
        ctl = AdmissionController(max_concurrent=1, max_queue=0)
        handler = AdmissionHandler(ctl)

        class Request:
            principal = ""
            priority = 0

        with ctl.admit():
            with pytest.raises(OverloadedError):
                run_chain([handler], Request(), None, lambda r: "never")
