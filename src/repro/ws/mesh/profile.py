"""Per-endpoint latency/error profiles mined from the telemetry streams.

The adaptive routing policy needs one number per endpoint: "how
expensive is sending the next call here?".  This module maintains that
number the same way the scatter-gather plane sizes its chunks — an
exponentially weighted moving average — fed from two sources:

* **Direct observation.**  The router files every send's latency (or
  failure) as it happens.
* **Trace mining.**  :meth:`ProfileBook.mine_spans` replays the
  ``send:*`` spans the tracing plane already collects (each carries an
  ``endpoint`` attribute and ok/error status), so a fresh router warms
  its profiles from history instead of starting blind — the
  "mine the usage logs to drive composition" move from the related
  work, applied to replica choice.

Failures decay the same EWMA toward an error *rate* in [0, 1]; the
blended :meth:`EndpointProfile.cost` is what the policy ranks on.
"""

from __future__ import annotations

from typing import Iterable

from repro.clock import SYSTEM_CLOCK, Clock

#: EWMA smoothing factor — matches the scatter plane's default: heavy
#: enough to move within a handful of calls, light enough to ride out
#: one outlier.
DEFAULT_ALPHA = 0.3

#: Cost penalty for a 100% error rate, in seconds.  One failed send is
#: worth ~a breaker cooldown of latency: erroring endpoints sort last.
ERROR_PENALTY_S = 30.0


class EndpointProfile:
    """EWMA latency + error rate for one endpoint."""

    __slots__ = ("latency_s", "error_rate", "observations",
                 "last_observed")

    def __init__(self):
        self.latency_s: float | None = None
        self.error_rate = 0.0
        self.observations = 0
        self.last_observed: float | None = None

    def observe(self, seconds: float) -> None:
        """Fold one successful send's latency into the profile."""
        seconds = max(0.0, float(seconds))
        if self.latency_s is None:
            self.latency_s = seconds
        else:
            self.latency_s += DEFAULT_ALPHA * (seconds - self.latency_s)
        self.error_rate *= (1.0 - DEFAULT_ALPHA)
        self.observations += 1

    def observe_error(self) -> None:
        """Fold one failed send into the error rate."""
        self.error_rate += DEFAULT_ALPHA * (1.0 - self.error_rate)
        self.observations += 1

    def cost(self) -> float:
        """Expected cost of the next send here, in seconds."""
        return (self.latency_s or 0.0) + self.error_rate * ERROR_PENALTY_S

    def as_dict(self) -> dict:
        """JSON-ready snapshot (``repro mesh`` status output)."""
        return {"latency_s": self.latency_s,
                "error_rate": round(self.error_rate, 4),
                "observations": self.observations,
                "cost": self.cost()}


class ProfileBook:
    """All endpoint profiles one router knows, with freshness stamps.

    ``last_observed`` runs on the injected clock so the policy can tell
    a *stale* profile (worth re-probing — the endpoint may have healed
    or warmed up) from a fresh one.  Not thread-safe per entry beyond
    the GIL's atomicity; the router serialises writes per call anyway
    and a lost race costs one duplicate observation, not correctness.
    """

    def __init__(self, clock: Clock = SYSTEM_CLOCK):
        self._clock = clock
        self._profiles: dict[str, EndpointProfile] = {}

    def profile(self, endpoint: str) -> EndpointProfile:
        """The (created-on-demand) profile of *endpoint*."""
        found = self._profiles.get(endpoint)
        if found is None:
            found = self._profiles[endpoint] = EndpointProfile()
        return found

    def observe(self, endpoint: str, seconds: float) -> None:
        """File one successful send."""
        entry = self.profile(endpoint)
        entry.observe(seconds)
        entry.last_observed = self._clock.monotonic()

    def observe_error(self, endpoint: str) -> None:
        """File one failed send."""
        entry = self.profile(endpoint)
        entry.observe_error()
        entry.last_observed = self._clock.monotonic()

    def age_s(self, endpoint: str) -> float | None:
        """Seconds since *endpoint* was last observed (None = never)."""
        entry = self._profiles.get(endpoint)
        if entry is None or entry.last_observed is None:
            return None
        return self._clock.monotonic() - entry.last_observed

    def endpoints(self) -> list[str]:
        """Endpoints with at least one observation, sorted."""
        return sorted(self._profiles)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready profile dump."""
        return {ep: prof.as_dict()
                for ep, prof in sorted(self._profiles.items())}

    def mine_spans(self, spans: Iterable) -> int:
        """Warm the profiles from collected ``send:*`` spans.

        Accepts :class:`~repro.obs.trace.Span` objects or their
        ``to_dict`` form (snapshot files), so a router can be seeded
        from the live collector *or* from a ``repro run --trace``
        snapshot.  Returns the number of spans mined.
        """
        mined = 0
        for span in spans:
            data = span.to_dict() if hasattr(span, "to_dict") else span
            if not str(data.get("name", "")).startswith("send:"):
                continue
            endpoint = data.get("attributes", {}).get("endpoint")
            if not endpoint:
                continue
            if data.get("status") == "error":
                self.observe_error(endpoint)
            else:
                duration = max(0.0, data.get("ended_at", 0.0) -
                               data.get("started_at", 0.0))
                self.observe(endpoint, duration)
            mined += 1
        return mined
