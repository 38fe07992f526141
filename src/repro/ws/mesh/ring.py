"""Consistent-hash ring: stable shard assignment under membership churn.

The mesh shards the algorithm catalogue over N worker processes and must
keep those assignments *stable* while workers join, crash and return:
naive ``hash(key) % N`` remaps almost every key whenever N changes,
invalidating every worker-local warm state (payload stores, result
caches, trained-model instances) at once.  A consistent-hash ring with
virtual nodes remaps only ~1/N of the key space per membership change —
the classic DHT construction the DAME-style fleets rely on.

Two properties are load-bearing (and pinned by hypothesis tests):

* **Determinism across processes.**  Hashing uses SHA-256, never
  Python's seeded ``hash()``, so the gateway, every worker and every
  test subprocess compute identical assignments regardless of
  ``PYTHONHASHSEED``.
* **Minimal movement.**  When a member joins, the only keys that change
  owner move *to* the new member; when one leaves, only the keys it
  owned move.  With ``DEFAULT_VNODES`` virtual points per member the moved
  fraction concentrates near 1/N.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

#: Virtual points per member: enough to keep per-member load within a
#: few percent of 1/N without making membership changes expensive.
DEFAULT_VNODES = 64


def stable_hash(key: str) -> int:
    """A 64-bit position on the ring, independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """Members own arcs of a 2^64 ring via ``DEFAULT_VNODES`` points each.

    Lookups walk clockwise from the key's position: :meth:`assign`
    returns the first member met, :meth:`replicas` the first *n*
    distinct members — the natural preference order for placing a
    service on several workers.
    """

    def __init__(self, members: Iterable[str] = ()):
        self._members: set[str] = set()
        #: sorted (position, member) points; ties break on the member
        #: name so iteration order never depends on insertion order
        self._points: list[tuple[int, str]] = []
        for member in members:
            self.add(member)

    # -- membership ------------------------------------------------------

    def add(self, member: str) -> None:
        """Add *member* (idempotent)."""
        if not member:
            raise ValueError("member name must be non-empty")
        if member in self._members:
            return
        self._members.add(member)
        for index in range(DEFAULT_VNODES):
            point = (stable_hash(f"{member}#{index}"), member)
            bisect.insort(self._points, point)

    def remove(self, member: str) -> None:
        """Remove *member*; unknown members raise ``KeyError``."""
        if member not in self._members:
            raise KeyError(member)
        self._members.discard(member)
        self._points = [p for p in self._points if p[1] != member]

    def members(self) -> frozenset[str]:
        """The current membership set."""
        return frozenset(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def __len__(self) -> int:
        return len(self._members)

    # -- lookup ----------------------------------------------------------

    def assign(self, key: str) -> str:
        """The member owning *key* (first point clockwise of its hash)."""
        owners = self.replicas(key, 1)
        if not owners:
            raise KeyError("ring has no members")
        return owners[0]

    def replicas(self, key: str, n: int) -> list[str]:
        """The first *n* distinct members clockwise of *key*'s position.

        Fewer than *n* members yields them all; the order is the
        preference order for replica placement and failover.
        """
        if n < 1 or not self._points:
            return []
        # first virtual point at-or-after the key's position (the bare
        # (hash,) tuple sorts before any (hash, member) point)
        start = bisect.bisect_left(self._points, (stable_hash(key),))
        out: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            member = self._points[(start + offset) %
                                  len(self._points)][1]
            if member not in seen:
                seen.add(member)
                out.append(member)
                if len(out) == n:
                    break
        return out
