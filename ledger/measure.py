"""Measurement primitives shared by every workload.

Nothing here knows the program under test: percentiles, the closed
loop, round-robin interleaving of alternatives, the ledger's own span
recorder, memory and the environment fingerprint.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: A measured window is cut into this many equal wall-time slices; the
#: max/min of their medians is ``ledger.window_spread``.
SUB_WINDOWS = 5
#: ``window_spread`` above this marks a run unsteady.
UNSTEADY = 1.10


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (q in 0..100)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def median(samples: list[float]) -> float:
    """Median, or NaN for an empty list (a layer that never ran)."""
    return statistics.median(samples) if samples else float("nan")


class Spans:
    """The ledger's own span recorder, kept in memory until the end.

    A span is ``(name, start, end, parent, trace)``: *parent* is the
    index of the enclosing span (``-1`` for a root) and *trace* is one
    id per operation.  Recording costs two clock reads and one append,
    so the traced pass stays within a few percent of the untraced one
    (``ledger.trace_overhead_ratio`` reports how close).
    """

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._traces = 0
        self._local = threading.local()

    def new_trace(self) -> int:
        """A fresh trace id: one per operation."""
        self._traces += 1
        return self._traces

    @contextmanager
    def span(self, name: str, trace: int):
        """Record one span around a block; nests by thread."""
        parent = getattr(self._local, "current", -1)
        index = len(self.rows)
        row = [name, time.perf_counter(), 0.0, parent, trace]
        self.rows.append(row)
        self._local.current = index
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            self._local.current = parent

    def dump(self, path: Path, workload: str) -> None:
        """Write every span as JSON (done once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [{"id": i, "name": r[0], "start": r[1], "end": r[2],
                  "parent": r[3], "trace": r[4]}
                 for i, r in enumerate(self.rows)]
        path.write_text(json.dumps({"workload": workload,
                                    "spans": spans}))


@dataclass
class LoopStats:
    """What one closed-loop client saw over one phase."""

    first_s: list[float] = field(default_factory=list)
    repeat_s: list[float] = field(default_factory=list)
    first_at: list[float] = field(default_factory=list)
    wire: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def completed(self) -> int:
        return len(self.first_s) + len(self.repeat_s)

    @property
    def busy_s(self) -> float:
        """Seconds spent inside timed calls (input generation and
        answer checking happen off the timer)."""
        return sum(self.first_s) + sum(self.repeat_s)

    def window_spread(self, start: float, seconds: float) -> float:
        """max/min of the sub-window medians of the first path."""
        slices: list[list[float]] = [[] for _ in range(SUB_WINDOWS)]
        for at, sample in zip(self.first_at, self.first_s):
            index = int((at - start) / seconds * SUB_WINDOWS)
            slices[max(0, min(SUB_WINDOWS - 1, index))].append(sample)
        medians = [statistics.median(s) for s in slices if s]
        return max(medians) / min(medians) if medians else float("nan")


def closed_loop(client, make_input, check, indices, seconds: float,
                stats: LoopStats | None = None, spans: Spans | None = None,
                min_ops: int = 0, max_ops: int | None = None) -> LoopStats:
    """One closed-loop client: each operation is sent, re-sent, checked.

    The next operation starts only after the previous one completed.
    ``make_input`` and ``check`` run off the timer; ``client.first`` and
    ``client.repeat`` are the two timed calls.  A call that raises or
    answers wrongly counts as failed and contributes no latency sample.
    Runs for *seconds* and at least *min_ops*, at most *max_ops*,
    operations.
    """
    stats = stats if stats is not None else LoopStats()
    clock = time.perf_counter
    end = clock() + seconds
    done = 0
    while (clock() < end or done < min_ops) and \
            (max_ops is None or done < max_ops):
        done += 1
        index = next(indices)
        trace = spans.new_trace() if spans is not None else 0
        with _maybe_span(spans, "op", trace):
            with _maybe_span(spans, "input", trace):
                item = make_input(index)
            for path, call, samples in (
                    ("first", client.first, stats.first_s),
                    ("repeat", client.repeat, stats.repeat_s)):
                stats.attempted += 1
                wire_before = client.wire()
                with _maybe_span(spans, path, trace):
                    begin = clock()
                    try:
                        answer = call(item)
                        elapsed = clock() - begin
                    except Exception:  # noqa: BLE001 - counted, not hidden
                        stats.failed += 1
                        continue
                with _maybe_span(spans, "check", trace):
                    good = check(item, answer)
                if not good:
                    stats.failed += 1
                    continue
                samples.append(elapsed)
                if path == "first":
                    stats.first_at.append(begin)
                    stats.wire.append(client.wire() - wire_before)
    return stats


@contextmanager
def _maybe_span(spans: Spans | None, name: str, trace: int):
    if spans is None:
        yield None
    else:
        with spans.span(name, trace) as row:
            yield row


def busy_rate(stats: list[LoopStats]) -> float:
    """Calls completed per second, summed over closed-loop clients;
    each client's rate is taken over its own timed seconds."""
    return sum(s.completed / s.busy_s for s in stats if s.busy_s > 0)


def interleave(arms: dict, next_input, seconds: float,
               spans: Spans | None = None,
               span_prefix: str = "") -> dict[str, list[float]]:
    """Time alternatives round-robin so drift hits all of them equally.

    *arms* maps a name to ``fn(item)``; every invocation gets a fresh
    input from ``next_input()`` (generated off the timer), so each one
    runs the cold, first-path form of its work.
    """
    samples: dict[str, list[float]] = {name: [] for name in arms}
    clock = time.perf_counter
    end = clock() + seconds
    rounds = 0
    while clock() < end or rounds < 3:
        rounds += 1
        for name, fn in arms.items():
            item = next_input()
            trace = spans.new_trace() if spans is not None else 0
            with _maybe_span(spans, span_prefix + name, trace):
                begin = clock()
                fn(item)
                samples[name].append(clock() - begin)
    return samples


def timed(fn, seconds: float, make_arg=None,
          min_runs: int = 20) -> list[float]:
    """Durations of repeated ``fn(arg)`` calls for about *seconds* and
    at least *min_runs* calls (a slow probe overruns its slot rather
    than report a median of three); ``make_arg()`` builds each call's
    argument off the timer (default: ``None``)."""
    samples: list[float] = []
    clock = time.perf_counter
    end = clock() + seconds
    while clock() < end or len(samples) < min_runs:
        arg = make_arg() if make_arg is not None else None
        begin = clock()
        fn(arg)
        samples.append(clock() - begin)
    return samples


def peak_rss_mb(child_pids: list[int]) -> float:
    """Peak resident set of this interpreter plus the named live
    children (mesh workers), in MB.  Call before the children exit."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def fingerprint(root: Path) -> dict:
    """Where these numbers were taken: they only compare within one."""
    import numpy
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        boot = Path("/proc/sys/kernel/random/boot_id").read_text().strip()
    except OSError:
        boot = ""
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "commit": commit or "unknown",
            "boot_id": boot}
