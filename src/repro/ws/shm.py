"""POSIX shared-memory segments: the zero-copy tier under payload refs.

The PR-3 payload plane moves large parameters *by reference* but still
copies the bytes — sender store → SOAP envelope → receiver store — on
the first send, and every resolve copies them out again.  On one host
that copy is pure waste: DAME's typed-array transfer and the Grid-DDM
surveys both put intra-node data movement at the top of the cost stack
once compute is vectorised.  This module removes it.

A producer :meth:`SegmentStore.publish`-es a blob once into a named
``multiprocessing.shared_memory`` segment (``repro-shm-<digest16>``);
any same-host consumer :meth:`SegmentStore.attach`-es the segment and
gets a **memoryview into the shared pages** — no copy, no socket.  The
SOAP layer ships only the 64-hex digest (tagged ``via="shm"``), a relay
on the same host passes that ref on unopened, and the process that
dispatches the call maps the segment (:func:`repro.ws.payload.resolve`)
instead of reading the envelope.  Misses (segment evicted, cross-host
peer, shm disabled) fall back to the classic inline path transparently.

Segment layout: a 24-byte header — magic ``RSHM``, format version, the
owner pid, the payload length — then the payload.  The payload is
written *before* the magic, so a consumer racing a mid-write producer
sees an invalid header and treats the segment as absent.  Integrity is
the same contract as :class:`~repro.ws.payload.PayloadStore`: mapping a
segment re-hashes its bytes and refuses one that does not hash to its
name; a mapping evicted from the bounded attached set is re-verified
when it is mapped again.

Lifecycle: the creating process owns its segments and unlinks them on
eviction (LRU, bounded count/bytes) and at :meth:`SegmentStore.close`.
Abnormal exits leak named segments by design of POSIX shm, so
:func:`sweep_orphans` scans ``/dev/shm`` for ``repro-shm-*`` whose
header owner pid is dead and reclaims them — the mesh supervisor runs
it at startup and whenever a worker is unpublished.

Kept free of :mod:`repro.obs`, :mod:`repro.chaos` and the mesh/policy
layers (enforced by ``tools/layering_lint.py``); counters for this tier
are emitted by :mod:`repro.ws.payload`, which wraps these primitives.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading

try:  # pragma: no cover - platform probe
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - no shm on this platform
    resource_tracker = None
    shared_memory = None

#: Name prefix of every segment this module creates (the sweep target).
SEGMENT_PREFIX = "repro-shm-"

#: Bounds of the process-local set of *owned* (created-here) segments.
OWNED_MAX_SEGMENTS = 64
OWNED_MAX_BYTES = 256 * 1024 * 1024

_MAGIC = b"RSHM"
_VERSION = 1
#: magic, version, 3 pad bytes, owner pid, payload length.
_HEADER = struct.Struct("<4sBxxxQQ")
HEADER_BYTES = _HEADER.size

_boot_id: str | None = None
_boot_lock = threading.Lock()


def boot_id() -> str:
    """A stable identifier of this host's current boot.

    Two processes reporting the same boot id share kernel shm objects;
    the transport layer compares peer-advertised boot ids against this
    one before preferring segment references over inline bytes.  Reads
    ``/proc/sys/kernel/random/boot_id`` where available, falling back
    to a per-hostname surrogate (still correct: equal ⇒ same host).
    """
    global _boot_id
    if _boot_id is None:
        with _boot_lock:
            if _boot_id is None:
                try:
                    with open("/proc/sys/kernel/random/boot_id",
                              encoding="ascii") as fh:
                        _boot_id = fh.read().strip()
                except OSError:
                    import socket
                    _boot_id = "host-" + hashlib.sha256(
                        socket.gethostname().encode()).hexdigest()[:32]
    return _boot_id


def supported() -> bool:
    """True when this platform can create named shared-memory segments."""
    return shared_memory is not None and os.name == "posix"


def segment_name(digest: str) -> str:
    """The shm object name for *digest* (first 16 hex chars suffice:
    collisions within one host's live working set are astronomically
    unlikely, and the attach-time re-hash catches one anyway)."""
    return SEGMENT_PREFIX + digest[:16]


def _untrack(shm) -> None:
    """Detach *shm* from the resource tracker.

    Python's tracker unlinks every registered segment when *any*
    attached process exits — exactly wrong for segments whose lifetime
    is owned explicitly by the creating process (and swept by the
    supervisor).  ``track=False`` only exists from 3.13, so unregister
    by hand on both the create and attach paths.
    """
    if resource_tracker is None:  # pragma: no cover - platform guard
        return
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


def _unlink(shm) -> None:
    """Unlink *shm* without upsetting the resource tracker.

    ``SharedMemory.unlink`` sends the tracker an unregister for the
    name, but every segment here was already unregistered at create or
    attach time (see :func:`_untrack`) — re-register first so the
    tracker daemon does not log a KeyError for the unmatched message.
    """
    if resource_tracker is not None:  # pragma: no branch
        try:
            resource_tracker.register(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals moved
            pass
    shm.unlink()


def _quiet_close(shm) -> None:
    """Close *shm*, tolerating live exported views.

    CPython refuses to close an mmap while memoryviews export it, and
    ``SharedMemory.__del__`` retries the close at garbage collection —
    spraying ``Exception ignored ... BufferError`` at interpreter
    shutdown for every view a zero-copy consumer still holds.  Disarm
    instead: drop the segment's mmap reference (the last surviving view
    keeps the mapping alive and unmaps it silently when it dies) and
    close the file descriptor, leaving ``__del__`` nothing to retry.
    """
    try:
        shm.close()
    except BufferError:
        shm._mmap = None
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            shm._fd = -1


class SegmentStore:
    """Publish/attach named shared-memory segments, content-addressed.

    One instance per process (see :func:`get_segment_store`).  Both
    sets are LRU-bounded by the same count and byte limits
    (``OWNED_MAX_SEGMENTS``/``OWNED_MAX_BYTES``, read when the store is
    built): an *owned*
    segment — created here — is unlinked on eviction; an *attached* one
    — created elsewhere — is disarmed (:func:`_quiet_close`), so views
    already handed to live requests stay valid, and re-verified if it
    is attached again.
    """

    def __init__(self):
        self.max_segments = OWNED_MAX_SEGMENTS
        self.max_bytes = OWNED_MAX_BYTES
        self._lock = threading.RLock()
        # digest → SharedMemory created by this process (insertion =
        # LRU order; move_to_end on re-publish)
        self._owned: dict[str, object] = {}
        self._owned_bytes = 0
        # digest → (SharedMemory, payload length) attached from peers
        # and verified; LRU order like _owned
        self._attached: dict[str, tuple[object, int]] = {}
        self._attached_bytes = 0

    # -- producer side ---------------------------------------------------

    def publish(self, digest: str, data: bytes | memoryview) -> bool:
        """Write *data* into the segment named for *digest*.

        Returns ``True`` when the segment exists after the call (fresh
        or already published), ``False`` when the platform refused
        (no shm support, ``/dev/shm`` full, permissions) — callers fall
        back to inline bytes.
        """
        if not supported():
            return False
        view = memoryview(data).cast("B")
        size = len(view)
        with self._lock:
            if digest in self._owned:
                return True
            name = segment_name(digest)
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=HEADER_BYTES + size)
            except FileExistsError:
                return True  # another local producer beat us to it
            except OSError:
                return False
            _untrack(shm)
            # payload first, header (with magic) last: a consumer racing
            # this write sees a zeroed header and reports a miss
            shm.buf[HEADER_BYTES:HEADER_BYTES + size] = view
            shm.buf[:HEADER_BYTES] = _HEADER.pack(
                _MAGIC, _VERSION, os.getpid(), size)
            self._owned[digest] = shm
            self._owned_bytes += size
            self._evict()
            return True

    def _evict(self) -> None:
        while self._owned and (
                len(self._owned) > self.max_segments or
                self._owned_bytes > self.max_bytes):
            digest = next(iter(self._owned))
            self._unlink_owned(digest)

    def _unlink_owned(self, digest: str) -> None:
        shm = self._owned.pop(digest)
        self._owned_bytes -= max(0, len(shm.buf) - HEADER_BYTES)
        try:
            _unlink(shm)
        except OSError:  # pragma: no cover - already reclaimed
            pass
        _quiet_close(shm)

    # -- consumer side ---------------------------------------------------

    def attach(self, digest: str) -> memoryview | None:
        """Map the segment for *digest*; returns a read-only view of the
        payload bytes (zero-copy), or ``None`` on any miss.

        Mapping a segment re-hashes its bytes — one that does not hash
        to its name is treated as absent (the classic inline fallback
        covers it), matching the :class:`~repro.ws.payload.PayloadStore`
        integrity contract — and later attaches reuse the mapping for
        as long as it stays within the LRU bounds.
        """
        if not supported():
            return None
        with self._lock:
            owned = self._owned.get(digest)
            if owned is not None:
                size = _HEADER.unpack_from(owned.buf)[3]
                return memoryview(owned.buf)[
                    HEADER_BYTES:HEADER_BYTES + size].toreadonly()
            entry = self._attached.pop(digest, None)
            if entry is None:
                try:
                    shm = shared_memory.SharedMemory(
                        name=segment_name(digest))
                except (OSError, ValueError):
                    return None
                _untrack(shm)
                header = self._read_header(shm)
                if header is None or hashlib.sha256(memoryview(shm.buf)[
                        HEADER_BYTES:HEADER_BYTES + header[1]]
                        ).hexdigest() != digest:
                    _quiet_close(shm)
                    return None
                entry = (shm, header[1])
                self._attached_bytes += header[1]
            self._attached[digest] = entry  # most recently used
            self._evict_attached()
            shm, size = entry
            return memoryview(shm.buf)[
                HEADER_BYTES:HEADER_BYTES + size].toreadonly()

    def _evict_attached(self) -> None:
        while len(self._attached) > self.max_segments or (
                self._attached_bytes > self.max_bytes
                and len(self._attached) > 1):
            shm, size = self._attached.pop(next(iter(self._attached)))
            self._attached_bytes -= size
            _quiet_close(shm)

    @staticmethod
    def _read_header(shm) -> tuple[int, int] | None:
        """(owner pid, payload length), or ``None`` if malformed."""
        if len(shm.buf) < HEADER_BYTES:
            return None
        magic, version, pid, size = _HEADER.unpack_from(shm.buf)
        if magic != _MAGIC or version != _VERSION or \
                size > len(shm.buf) - HEADER_BYTES:
            return None
        return pid, size

    # -- introspection / lifecycle --------------------------------------

    def holds(self, digest: str) -> bool:
        """True when this process created the segment for *digest*."""
        with self._lock:
            return digest in self._owned

    def __len__(self) -> int:
        with self._lock:
            return len(self._owned)

    @property
    def owned_bytes(self) -> int:
        """Payload bytes across segments this process created."""
        with self._lock:
            return self._owned_bytes

    def release_owned(self) -> int:
        """Unlink every owned segment; returns how many were dropped."""
        with self._lock:
            count = len(self._owned)
            for digest in list(self._owned):
                self._unlink_owned(digest)
            return count

    def close(self) -> None:
        """Unlink owned segments and drop attached mappings.

        Attached views handed out earlier keep their segments mapped
        until the last view is garbage-collected — those segments are
        disarmed (:func:`_quiet_close`) rather than force-closed, so
        the surviving view stays valid and nothing raises at exit.
        """
        with self._lock:
            for digest in list(self._owned):
                self._unlink_owned(digest)
            attached, self._attached = self._attached, {}
            self._attached_bytes = 0
        for shm, _ in attached.values():
            _quiet_close(shm)


_segment_store = SegmentStore()


def get_segment_store() -> SegmentStore:
    """The process-global segment store."""
    return _segment_store


def reset_segment_store() -> None:
    """Unlink owned segments and drop mappings (test isolation)."""
    _segment_store.close()


def sweep_orphans() -> int:
    """Reclaim ``repro-shm-*`` segments whose owner process is dead.

    POSIX named segments survive their creator's abnormal exit (that is
    the point of them), so a SIGKILLed worker leaks its published
    segments.  Scans ``/dev/shm``, reads each candidate's header, and
    unlinks segments whose recorded owner pid no longer exists — plus
    malformed ones, which can only be debris.  Segments owned by this
    process (or any live process) are left alone.  Returns the number
    of segments reclaimed.
    """
    if not supported():
        return 0
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - tmpfs not mounted
        return 0
    swept = 0
    for name in names:
        if not name.startswith(SEGMENT_PREFIX):
            continue
        try:
            shm = shared_memory.SharedMemory(name=name)
        except (OSError, ValueError):
            continue  # unlinked between listdir and attach
        _untrack(shm)
        header = SegmentStore._read_header(shm)
        try:
            if header is None:
                _unlink(shm)
                swept += 1
                continue
            pid = header[0]
            if pid == os.getpid():
                continue
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                _unlink(shm)
                swept += 1
            except PermissionError:
                pass  # pid live, owned by someone else
        except OSError:  # pragma: no cover - lost a race to unlink
            pass
        finally:
            try:
                shm.close()
            except BufferError:  # pragma: no cover
                pass
    return swept
