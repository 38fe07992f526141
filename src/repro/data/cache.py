"""Memoised parse/result caching for the data plane.

The paper's §4.5 overhead analysis shows that most of the cost of a
remote invocation is *data handling*: every SOAP hop re-ships and
re-parses the same ARFF/CSV documents.  FlexDM-style measurements make
the same point for parallel WEKA — throughput is gated by redundant
dataset handling, not by the learners.  This module removes the
re-parsing half of that cost:

* :class:`LruCache` — a small, thread-safe, bounded LRU used across the
  toolkit (parse memo, payload store, WSDL descriptions, idempotent
  results).
* :func:`memo_parse` — a content-keyed memo for ``arff.loads`` /
  ``csvio.loads``: documents are keyed by their SHA-256 digest (plus the
  parse options), so the engine, the services, and the converters parse
  each distinct document once.  Cache hits return a **copy** of the
  parsed dataset, so callers can keep mutating (``set_class``,
  ``add_row``) without poisoning the cache.

Hit/miss counts are published as ``ws.cache.parse.hits`` /
``ws.cache.parse.misses`` counters (plus ``ws.cache.parse.bytes_saved``,
the document bytes *not* re-parsed), visible through ``repro metrics``.

The whole fast path can be disabled with ``repro run
--no-payload-cache`` or ``FAEHIM_NO_FASTPATH=1``.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator, TYPE_CHECKING

from repro.obs import get_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.dataset import Dataset

#: Parsed datasets kept by the parse memo (LRU beyond this).
PARSE_CACHE_ENTRIES = 64

#: Documents smaller than this are cheaper to re-parse than to copy.
MIN_MEMO_BYTES = 256


def text_digest(text: str | bytes) -> str:
    """SHA-256 hex digest of a document (str digested as UTF-8)."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    return hashlib.sha256(text).hexdigest()


#: The open request's ``id(buf) -> (buf, digest)`` table.  Entries hold
#: their buffer, so an id is never reused while its digest is kept.
_digests = contextvars.ContextVar("repro_request_digests", default=None)


@contextlib.contextmanager
def digest_scope() -> Iterator[None]:
    """One request's digest table, opened where a request enters or
    leaves a process (the HTTP gateway, a transport's ``send``): inside
    it :func:`content_digest` hashes each buffer *object* once.  A scope
    opened inside another joins it; the table dies with the outermost,
    so no digest outlives the request that computed it."""
    if _digests.get() is not None:
        yield
        return
    token = _digests.set({})
    try:
        yield
    finally:
        _digests.reset(token)


def content_digest(buf: str | bytes | memoryview,
                   known: str | None = None) -> str:
    """:func:`text_digest`, computed at most once per buffer object per
    request (see :func:`digest_scope`).  Only what cannot be written
    through is remembered: ``bytes`` and read-only views.  *known* is a
    digest the caller has just verified for *buf*, or computed for the
    buffer it copied *buf* from — remembered instead of recomputed."""
    table = _digests.get()
    if table is None or not (isinstance(buf, bytes) or (
            isinstance(buf, memoryview) and buf.readonly)):
        return known or text_digest(buf)
    entry = table.get(id(buf))
    if entry is None or known:
        entry = table[id(buf)] = (
            buf, known or hashlib.sha256(buf).hexdigest())
    return entry[1]


class LruCache:
    """A thread-safe bounded mapping with least-recently-used eviction.

    Optionally bounded by total payload bytes as well as entry count
    (callers pass ``weight`` per entry); both bounds hold after every
    ``put``.  Picklable: the lock is left out and made anew, so a cache
    held as instance state survives the §4.5 serialize lifecycle.
    """

    def __init__(self, max_entries: int, max_bytes: int | None = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._data: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        with self._lock:  # pickled from a snapshot, not the live dict
            state = dict(self.__dict__, _data=self._data.copy())
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Value for *key* (refreshing its recency), or *default*."""
        with self._lock:
            try:
                value, weight = self._data.pop(key)
            except KeyError:
                return default
            self._data[key] = (value, weight)
            return value

    def put(self, key: Hashable, value: Any, weight: int = 0) -> None:
        """Insert/refresh *key*; evicts LRU entries beyond the bounds."""
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._data[key] = (value, weight)
            self._bytes += weight
            while len(self._data) > self.max_entries or (
                    self.max_bytes is not None
                    and self._bytes > self.max_bytes
                    and len(self._data) > 1):
                _, (_, evicted_weight) = self._data.popitem(last=False)
                self._bytes -= evicted_weight

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def total_bytes(self) -> int:
        """Sum of entry weights currently held."""
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._data.clear()
            self._bytes = 0


_enabled = os.environ.get("FAEHIM_NO_FASTPATH", "") not in ("1", "true")
_parse_cache = LruCache(PARSE_CACHE_ENTRIES)


def set_enabled(on: bool) -> None:
    """Globally enable/disable the parse/result memo caches."""
    global _enabled
    _enabled = bool(on)


def enabled() -> bool:
    """True when memo caching is active (default unless
    ``FAEHIM_NO_FASTPATH`` is set)."""
    return _enabled


def reset_parse_cache() -> None:
    """Drop all memoised datasets (test isolation)."""
    _parse_cache.clear()


def parse_cache_len() -> int:
    """Number of datasets currently memoised."""
    return len(_parse_cache)


def memo_parse(kind: str, text: str | bytes | memoryview,
               factory: Callable[[], "Dataset"],
               **key_parts: Any) -> "Dataset":
    """Parse *text* through *factory*, memoised by content digest.

    ``kind`` names the format ("arff"/"csv") and ``key_parts`` carries
    any parse options that change the result (class attribute, relation
    name, header flag).  A hit returns ``cached.copy()`` so the caller
    owns an independent dataset.
    """
    if not _enabled or len(text) < MIN_MEMO_BYTES:
        return factory()
    key = (kind, content_digest(text),
           tuple(sorted(key_parts.items())))
    cached = _parse_cache.get(key)
    metrics = get_metrics()
    if cached is not None:
        metrics.counter("ws.cache.parse.hits", kind=kind).inc()
        metrics.counter("ws.cache.parse.bytes_saved",
                        kind=kind).inc(len(text))
        return cached.copy()
    metrics.counter("ws.cache.parse.misses", kind=kind).inc()
    dataset = factory()
    # store a private copy: the caller is free to mutate its dataset
    _parse_cache.put(key, dataset.copy())
    return dataset
