"""Scatter-gather contracts: input-order merge, adaptive chunk sizing,
migration off dead endpoints, and deadline behaviour."""

import threading

import pytest

from repro import obs
from repro.errors import (DeadlineExceeded, TransportError, WorkflowError)
from repro.ws.deadline import deadline_scope
from repro.ws.scatter import (DEFAULT_CHUNK, ScatterGather, default_chunk,
                              set_default_chunk)


@pytest.fixture
def restore_default_chunk():
    yield
    set_default_chunk(DEFAULT_CHUNK)


class TestMergeOrder:
    def test_results_come_back_in_input_order(self):
        sg = ScatterGather(3, chunk=4)
        items = list(range(100))

        def dispatch(endpoint, chunk_items, indices):
            return [item * 10 for item in chunk_items]

        report = sg.run(items, dispatch)
        assert report.results == [i * 10 for i in items]
        assert report.rebalances == 0
        # every item accounted for exactly once across the dispatches
        dispatched = sorted(i for d in report.dispatches
                            for i in d.indices)
        assert dispatched == items

    def test_endpoint_loads_sum_to_the_item_count(self):
        sg = ScatterGather(4, chunk=7)
        report = sg.run(list(range(50)),
                        lambda e, chunk, idx: list(chunk))
        assert sum(report.endpoint_loads().values()) == 50

    def test_empty_input(self):
        sg = ScatterGather(2)
        report = sg.run([], lambda e, chunk, idx: list(chunk))
        assert report.results == []
        assert report.dispatches == []


class TestAdaptiveChunks:
    def test_chunk_grows_for_fast_endpoints_and_shrinks_for_slow(self):
        sg = ScatterGather(2, chunk=8, min_chunk=2, max_chunk=64,
                           target_chunk_s=1.0)
        assert sg.chunk_for(0) == 8  # no feedback yet: the initial size
        sg._states[0].observe(0.01)   # fast: 100 items/s
        sg._states[1].observe(0.5)    # slow: 2 items/s
        assert sg.chunk_for(0) == 64  # 1.0/0.01 = 100, clamped to max
        assert sg.chunk_for(1) == 2   # 1.0/0.5 = 2, at the floor

    def test_ewma_smooths_observations(self):
        sg = ScatterGather(1, target_chunk_s=1.0, alpha=0.5,
                           min_chunk=1, max_chunk=10_000)
        sg._states[0].observe(0.1)
        sg._states[0].observe(0.3)   # EWMA: 0.5*0.3 + 0.5*0.1 = 0.2
        assert sg.chunk_for(0) == 5  # round(1.0 / 0.2)

    def test_run_feeds_the_ewma(self):
        sg = ScatterGather(1, chunk=5)
        sg.run(list(range(10)), lambda e, chunk, idx: list(chunk))
        assert sg._states[0].ewma_s is not None

    def test_default_chunk_is_process_configurable(
            self, restore_default_chunk):
        assert default_chunk() == DEFAULT_CHUNK
        set_default_chunk(17)
        assert default_chunk() == 17
        assert ScatterGather(1).chunk == 17
        set_default_chunk(0)     # clamped to the floor
        assert default_chunk() == 1


class TestMigration:
    def test_failed_endpoints_chunks_migrate_to_survivors(self):
        sg = ScatterGather(2, chunk=3)
        items = list(range(12))

        def dispatch(endpoint, chunk_items, indices):
            if endpoint == 0:
                raise TransportError("endpoint 0 is gone")
            return [item + 100 for item in chunk_items]

        report = sg.run(items, dispatch)
        assert report.results == [i + 100 for i in items]
        assert report.rebalances >= 1
        loads = report.endpoint_loads()
        assert loads.get(0, 0) == 0
        assert loads[1] == 12
        failed = [d for d in report.dispatches if not d.completed]
        assert failed and all(d.endpoint == 0 and d.migrated
                              for d in failed)

    def test_rebalance_metric_counts_migrations(self):
        sg = ScatterGather(2, chunk=2)

        def dispatch(endpoint, chunk_items, indices):
            if endpoint == 0:
                raise TransportError("dead")
            return list(chunk_items)

        report = sg.run(list(range(8)), dispatch)
        assert obs.get_metrics().counter("ws.scatter.rebalance").value \
            == report.rebalances >= 1

    def test_all_endpoints_dead_raises_workflow_error(self):
        sg = ScatterGather(3, chunk=2, name="doomed")

        def dispatch(endpoint, chunk_items, indices):
            raise TransportError(f"endpoint {endpoint} unreachable")

        with pytest.raises(WorkflowError, match="doomed.*endpoint"):
            sg.run(list(range(10)), dispatch)

    def test_late_failure_salvaged_by_survivor(self):
        """An endpoint that dies after the others finished: its chunk is
        drained by a survivor in the post-join salvage pass."""
        sg = ScatterGather(2, chunk=2)
        gate = threading.Event()

        def dispatch(endpoint, chunk_items, indices):
            if endpoint == 0:
                gate.wait(5)  # die only after endpoint 1 drained
                raise TransportError("slow death")
            if not indices or indices[0] + len(indices) >= 8:
                gate.set()
            return list(chunk_items)

        report = sg.run(list(range(8)), dispatch)
        assert report.results == list(range(8))
        salvaged = [d for d in report.dispatches
                    if d.completed and d.attempts > 1]
        assert all(d.endpoint == 1 for d in salvaged)


    def test_requeued_chunk_is_marked_migrated_whoever_takes_it(self):
        """A survivor with nothing left to do stays while its peer is
        in flight, picks the dead peer's chunk up inside the one
        dispatch loop, and the books say so."""
        sg = ScatterGather(2, chunk=2)
        zero_started, one_finished = threading.Event(), threading.Event()

        def dispatch(endpoint, chunk_items, indices):
            if endpoint == 0:
                zero_started.set()
                one_finished.wait(5)  # die only once the peer is done
                raise TransportError("slow death")
            zero_started.wait(5)      # leave endpoint 0 a chunk to take
            return list(chunk_items)

        report = sg.run(list(range(4)), dispatch,
                        on_chunk=lambda e, idx, out: one_finished.set())
        assert report.results == list(range(4))
        [dead] = [d for d in report.dispatches if not d.completed]
        [salvaged] = [d for d in report.dispatches
                      if d.completed and d.indices == dead.indices]
        assert salvaged.endpoint == 1
        assert salvaged.migrated and salvaged.attempts == 2
        assert all(not d.migrated for d in report.dispatches
                   if d.completed and d is not salvaged)

    def test_busy_survivor_marks_the_chunk_it_inherits(self):
        sg = ScatterGather(2, chunk=2, min_chunk=2, max_chunk=2)
        zero_dead = threading.Event()

        def dispatch(endpoint, chunk_items, indices):
            if endpoint == 0:
                zero_dead.set()
                raise TransportError("dies on its first chunk")
            zero_dead.wait(5)
            return list(chunk_items)

        report = sg.run(list(range(12)), dispatch)
        [dead] = [d for d in report.dispatches if not d.completed]
        [salvaged] = [d for d in report.dispatches
                      if d.completed and d.indices == dead.indices]
        assert salvaged.migrated and salvaged.attempts == 2

    def test_service_fault_migrates_but_a_bug_is_fatal(self):
        from repro.errors import ServiceError
        sg = ScatterGather(2, chunk=2)

        def faulty(endpoint, chunk_items, indices):
            if endpoint == 0:
                raise ServiceError("replica 0 cannot do this")
            return list(chunk_items)

        assert sg.run(list(range(6)), faulty).results == list(range(6))

        def buggy(endpoint, chunk_items, indices):
            raise KeyError("no such column")

        with pytest.raises(KeyError):
            ScatterGather(2, chunk=2).run(list(range(6)), buggy)


class TestBackpressure:
    """Overloaded replicas slow down instead of dying: sheds requeue
    the chunk, halve the bite, and back off on the injectable clock."""

    def test_shed_chunks_are_retried_on_the_same_endpoint(self):
        from repro.clock import FakeClock
        from repro.errors import OverloadedError
        clock = FakeClock()
        sg = ScatterGather(1, chunk=4, clock=clock, max_overloads=8)
        sheds = [2]   # shed the first two dispatches, then recover

        def dispatch(endpoint, chunk_items, indices):
            if sheds[0]:
                sheds[0] -= 1
                raise OverloadedError("busy", retry_after_s=0.2)
            return list(chunk_items)

        report = sg.run(list(range(20)), dispatch)
        assert report.results == list(range(20))
        # no migration happened: the only endpoint kept all the work
        assert report.endpoint_loads() == {0: 20}
        assert report.rebalances == 0
        # each shed backed off for the server's hint on the fake clock
        assert clock.sleeps == [0.2, 0.2]
        assert obs.get_metrics().counter(
            "ws.scatter.backpressure").value == 2

    def test_shed_halves_the_next_bite(self):
        from repro.clock import FakeClock
        from repro.errors import OverloadedError
        clock = FakeClock()
        sg = ScatterGather(1, chunk=8, min_chunk=1, clock=clock)
        assert sg.chunk_for(0) == 8
        sg._note_overload(0)
        assert sg.chunk_for(0) == 4     # seeded at half the start size
        sg._note_overload(0)
        assert sg.chunk_for(0) == 2     # EWMA doubles → bite halves

    def test_persistent_saturation_migrates_to_survivors(self):
        from repro.clock import FakeClock
        from repro.errors import OverloadedError
        clock = FakeClock()
        sg = ScatterGather(2, chunk=4, clock=clock, max_overloads=2)

        def dispatch(endpoint, chunk_items, indices):
            if endpoint == 0:   # saturated beyond patience, forever
                raise OverloadedError("busy", retry_after_s=0.1)
            return list(chunk_items)

        report = sg.run(list(range(16)), dispatch)
        assert report.results == list(range(16))
        loads = report.endpoint_loads()
        assert loads.get(0, 0) == 0 and loads[1] == 16
        assert report.rebalances == 1
        assert obs.get_metrics().counter(
            "ws.scatter.rebalance").value == 1

    def test_backoff_never_sleeps_past_the_deadline(self):
        """A 5 s Retry-After inside a 1 s budget cannot be waited out:
        stop taking work and fail now, like RetryPolicy's backoff."""
        from repro.clock import FakeClock
        from repro.errors import OverloadedError
        from repro.ws.deadline import Deadline
        clock = FakeClock()
        sg = ScatterGather(1, chunk=4, clock=clock)

        def dispatch(endpoint, chunk_items, indices):
            raise OverloadedError("busy", retry_after_s=5.0)

        with deadline_scope(Deadline.after(1.0, clock)):
            with pytest.raises(DeadlineExceeded, match="backoff"):
                sg.run(list(range(8)), dispatch)
        assert 5.0 not in clock.sleeps

    def test_a_peer_inside_the_budget_finishes_the_run(self):
        from repro.clock import FakeClock
        from repro.errors import OverloadedError
        from repro.ws.deadline import Deadline
        clock = FakeClock()
        sg = ScatterGather(2, chunk=2, clock=clock)

        def dispatch(endpoint, chunk_items, indices):
            if endpoint == 0:
                raise OverloadedError("busy", retry_after_s=5.0)
            return list(chunk_items)

        with deadline_scope(Deadline.after(1.0, clock)):
            report = sg.run(list(range(8)), dispatch)
        assert report.results == list(range(8))
        assert clock.sleeps == []

    def test_success_resets_the_patience_counter(self):
        from repro.clock import FakeClock
        from repro.errors import OverloadedError
        clock = FakeClock()
        sg = ScatterGather(1, chunk=2, clock=clock, max_overloads=2)
        pattern = iter([True, False, True, False, True, False,
                        False, False, False, False])

        def dispatch(endpoint, chunk_items, indices):
            # alternate shed/serve: never two consecutive sheds, so
            # patience (max_overloads=2) must never run out
            if next(pattern, False):
                raise OverloadedError("busy", retry_after_s=0.05)
            return list(chunk_items)

        report = sg.run(list(range(8)), dispatch)
        assert report.results == list(range(8))
        assert report.rebalances == 0


class TestContracts:
    def test_wrong_result_count_is_a_contract_violation(self):
        sg = ScatterGather(2, chunk=4, name="short")
        with pytest.raises(WorkflowError, match="result"):
            sg.run(list(range(8)),
                   lambda e, chunk, idx: list(chunk)[:-1])

    def test_expired_deadline_stops_the_run(self):
        sg = ScatterGather(2, chunk=1, name="timed")
        with deadline_scope(0.000001):
            with pytest.raises(DeadlineExceeded):
                sg.run(list(range(4)),
                       lambda e, chunk, idx: list(chunk))

    def test_needs_at_least_one_endpoint(self):
        with pytest.raises(WorkflowError):
            ScatterGather(0)


class TestOnChunk:
    """Per-chunk completion callbacks: the checkpoint hook the
    experiment runner builds its crash safety on."""

    def test_callback_sees_every_item_exactly_once(self):
        sg = ScatterGather(3, chunk=4)
        seen = []

        def on_chunk(endpoint, indices, results):
            seen.append((endpoint, list(indices), list(results)))

        report = sg.run(list(range(25)),
                        lambda e, chunk, idx: [i * 2 for i in chunk],
                        on_chunk=on_chunk)
        flat = sorted(i for _, indices, _ in seen for i in indices)
        assert flat == list(range(25))
        for _, indices, results in seen:
            assert results == [i * 2 for i in indices]
        assert len(seen) == len(report.dispatches)

    def test_callback_fires_per_chunk_not_per_run(self):
        sg = ScatterGather(1, chunk=2, min_chunk=2, max_chunk=2)
        calls = []
        sg.run(list(range(6)), lambda e, chunk, idx: list(chunk),
               on_chunk=lambda e, idx, out: calls.append(idx))
        assert len(calls) == 3
        assert all(len(idx) == 2 for idx in calls)

    def test_failed_chunks_never_reach_the_callback(self):
        """Endpoint death mid-run: only genuinely completed chunks are
        reported, and migrated work appears exactly once — from the
        survivor that actually finished it."""
        sg = ScatterGather(2, chunk=2)
        seen = []

        def dispatch(endpoint, chunk_items, indices):
            if endpoint == 0:
                raise TransportError("endpoint 0 died mid-scatter")
            return list(chunk_items)

        sg.run(list(range(10)), dispatch,
               on_chunk=lambda e, idx, out: seen.append((e, idx)))
        assert all(endpoint == 1 for endpoint, _ in seen)
        flat = sorted(i for _, idx in seen for i in idx)
        assert flat == list(range(10))

    def test_callback_failure_is_fatal_and_chunk_not_recorded(self):
        """A checkpoint that cannot be written must not be papered
        over: the run dies, and the chunk whose callback failed is not
        marked completed."""
        sg = ScatterGather(1, chunk=2, name="ckpt")

        def on_chunk(endpoint, indices, results):
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            sg.run(list(range(4)), lambda e, chunk, idx: list(chunk),
                   on_chunk=on_chunk)
