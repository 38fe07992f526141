"""The one failure taxonomy and the one failover walk (§3: "complete the
task if a fault occurs by moving the job to another resource").

Whoever holds several equivalent endpoints asks one question of a failed
attempt — dead, busy, alive, or out of time? — and this is the only
module that answers it (:func:`verdict_of`), tells a circuit breaker
(:func:`settle`) or walks replicas (:func:`walk`).  DESIGN.md §5
tabulates what each verdict means to each consumer.  Policy only: the
caller's ``attempt`` moves the bytes (``tools/layering_lint.py``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

from repro.errors import (CircuitOpenError, DeadlineExceeded,
                          OverloadedError, ServiceError, TransportError)

SPENT, SHED, UNREACHABLE, ANSWERED = ("spent", "shed", "unreachable",
                                      "answered")


def verdict_of(exc: BaseException | None) -> str:
    """Read one attempt's outcome (``None`` = it returned) as a verdict."""
    if isinstance(exc, DeadlineExceeded):
        return SPENT  # the budget is global: no replica can help
    if isinstance(exc, OverloadedError):
        return SHED  # alive and busy: no penalty; go elsewhere or back off
    if isinstance(exc, (TransportError, OSError)):
        # an open circuit, a payload miss, a malformed body included
        return UNREACHABLE  # penalise the endpoint and move on
    return ANSWERED  # a result, a fault, nonsense: the endpoint is alive


def settle(breaker: Any, verdict: str) -> None:
    """Give *breaker* the one outcome every admitted attempt owes it: a
    spent attempt carries no health verdict, but the half-open probe slot
    ``allow()`` handed out must come back, or the breaker fast-fails a
    possibly healthy endpoint for good."""
    if breaker is None:
        return
    if verdict == SPENT:
        breaker.release()
    elif verdict == UNREACHABLE:
        breaker.record_failure()
    else:
        breaker.record_success()


def stops(verdict: str, error: Exception | None,
          faults_end_walk: bool) -> bool:
    """Does this failed attempt end the search for another replica?
    Spent always does; so does an answered error that is the caller's
    (*faults_end_walk*) or no :class:`ServiceError` at all — a bug no
    replica will fix."""
    return verdict == SPENT or (verdict == ANSWERED and (
        faults_end_walk or not isinstance(error, ServiceError)))


def _ignore(*_args: Any) -> None:
    pass


def walk(candidates: Iterable[Any], attempt: Callable[[Any], Any], *,
         faults_end_walk: bool,
         breaker_of: Callable[[Any], Any] = _ignore,
         settled: Callable[[Any, str, Exception | None, float],
                           None] = _ignore,
         moved: Callable[[Any, Exception | None], None] = _ignore,
         exhausted: Callable[[Exception], Exception] = lambda e: e) -> Any:
    """Return the first answer ``attempt(candidate)`` gives, in rank order.

    Per candidate: its breaker admits it (or it is skipped) → the
    attempt runs → the verdict is read → the breaker is settled exactly
    once → stop (:func:`stops`) or next.  *faults_end_walk* is the one
    policy choice: an answered service fault is the caller's (the
    router), or a reason to migrate (the paper's §3 reading: the tool
    and the scatter plane).

    Hooks: ``settled(candidate, verdict, error, seconds)`` after each
    attempt; ``moved(candidate, error)`` when one is left behind (*error*
    is ``None`` for an open circuit, skipped unattempted).  When nobody
    answers, ``exhausted(error)`` is raised: an :class:`OverloadedError`
    with the smallest ``retry_after_s`` if every admitted candidate
    shed, a :class:`CircuitOpenError` if none was admitted, otherwise
    the last failure that was not a shed.
    """
    sheds: list[OverloadedError] = []
    failure: Exception | None = None
    for candidate in candidates:
        breaker = breaker_of(candidate)
        if breaker is not None and not breaker.allow():
            moved(candidate, None)
            continue
        error = None
        start = time.perf_counter()
        try:
            result = attempt(candidate)
        except Exception as exc:
            error = exc
        verdict = verdict_of(error)
        settle(breaker, verdict)
        settled(candidate, verdict, error, time.perf_counter() - start)
        if error is None:
            return result
        if stops(verdict, error, faults_end_walk):
            raise error
        if verdict == SHED:
            sheds.append(error)
        else:
            failure = error
        moved(candidate, error)
    if failure is None and sheds:
        hints = [shed.retry_after_s for shed in sheds
                 if shed.retry_after_s is not None]
        failure = OverloadedError(str(sheds[-1]), min(hints, default=None))
    raise exhausted(failure or CircuitOpenError(
        "no replica left to try: every circuit is open"))
