"""PERF-IPC — what each bulk tier of the data plane buys.

The same batched scoring stream — a *distinct* ~1.3 MB columnar frame
per call, so the by-reference cache can never kick in and every call
pays the honest first-contact cost — is driven two ways.

**Through the mesh** (gateway into one Classifier worker, the PR-9
deployment shape, so both hops pay the plane under test):

* **tcp+attachments** — a ``transport="tcp"`` mesh with the
  shared-memory tier disabled: the cross-host plane.  Each frame
  leaves the envelope and crosses both sockets once, stored, as a
  ``multipart/related`` part.  Each measured frame is then sent once
  more — the **by-ref repeat**: both hops relay a 2 KB envelope and
  the worker answers from its store, so what is left is one SHA-256
  pass at the client, one at the worker, and the sockets.
* **uds+shm** — a ``transport="uds"`` mesh: the gateway dials the
  worker over its Unix socket, and on both hops the frame travels as
  a named shared-memory segment the consumer maps in place; no socket
  ever sees the payload bytes.

Until attachments the tcp arm paid base64 + a 1.7 MB XML parse + gzip
on both hops and the gate was "uds+shm at least 2x faster on p50"
(measured 14.7x).  With the tcp arm ~4x faster that no longer states
what shm is for, so the gate is what shm still buys on one host: a p50
no worse than the tcp arm's, at no more than 1 % of its wire bytes.
The by-ref store is gated on the same arm: a repeat must cost at most
0.8 of the full send (it read 0.86–0.95 while every hop re-hashed the
frame it had just resolved; 0.53 since a digest is computed once per
request per process and the gateway relays refs unopened).

**Across one hop** (client straight into a front hosting Classifier),
to price the attachments themselves:

* **attached** — the front advertises ``swa``, frames travel as parts.
* **base64 fallback** — the same front behind a stub, defined here,
  that advertises only ``columnar`` and ignores ``Accept:
  multipart/related``, as a peer from before attachments would; the
  client never upgrades and every frame goes base64 + gzip.

The report lands in ``BENCH_ipc.json`` (written directly — no
pytest-benchmark dependency), which the ``ipc-bench`` CI job uploads.

Run: PYTHONPATH=src python -m pytest benchmarks/test_bench_ipc.py -s
"""

import contextlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.data import codec
from repro.data.attribute import Attribute
from repro.data.dataset import Dataset
from repro.services import ClassifierService
from repro.ws import payload, shm
from repro.ws.client import ServiceProxy
from repro.ws.container import ServiceContainer
from repro.ws.httpd import ThreadedListener
from repro.ws.mesh import start_mesh
from repro.ws.pipeline import HttpGateway

pytestmark = pytest.mark.skipif(not shm.supported(),
                                reason="no POSIX shared memory here")

ROWS = 20_000
FEATURES = 8
SCORED_ROWS = 256
WARMUP_CALLS = 3
MEASURED_CALLS = 25

#: CI gates on the mesh arms: shm must not cost latency (measured well
#: under the tcp arm's p50; 1.0 leaves that margin to runner jitter)
#: and must keep the frames off the sockets (measured ~0.1 % of the tcp
#: arm's bytes: refs and answers only).
MAX_SHM_P50_RATIO = 1.0
MAX_SHM_WIRE_SHARE = 0.01

#: CI gate on the tcp arm's by-ref repeat against its own full send (a
#: ratio of two p50s from one run of one mesh).
MAX_REPEAT_P50_RATIO = 0.8

#: CI gate on the one-hop arms: attachments drop base64, the big XML
#: parse, gzip and gunzip (measured ~10x); 2x cannot flake.
MIN_ATTACHMENT_SPEEDUP = 2.0

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_ipc.json"

_ATTRS = [Attribute.numeric(f"f{j}") for j in range(FEATURES)]
_ATTRS.append(Attribute.nominal("class", ("neg", "pos")))


def frame_for(index: int) -> bytes:
    """A distinct ~1.3 MB columnar frame per call: fresh random content
    defeats every content-addressed cache, so both arms pay full
    first-contact transfer cost on every single call."""
    rng = np.random.default_rng(1000 + index)
    ds = Dataset(f"ipc-bench-{index}", _ATTRS)
    matrix = np.column_stack([
        rng.normal(size=(ROWS, FEATURES)),
        rng.integers(0, 2, size=ROWS).astype(float)])
    ds._bulk_extend(matrix)
    ds.set_class("class")
    return codec.encode(ds)


def percentile(samples_ms: list[float], q: float) -> float:
    """Nearest-rank percentile (the loadgen plane's convention)."""
    ordered = sorted(samples_ms)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def drive(wsdl_url: str, arm: str, frames: list[bytes],
          resend: bool = False) -> dict:
    """Time one call per frame; with *resend*, also the immediate
    re-send of each (reported as ``repeat_p50_ms``, wire not counted)."""
    # score a fixed slice of each frame: the response stays small, so
    # the timed quantity is the *request* data plane — exactly the
    # tier this PR moved into shared memory
    rows = list(range(SCORED_ROWS))
    proxy = ServiceProxy.from_wsdl_url(wsdl_url)

    def timed(frame: bytes) -> tuple[float, int]:
        wire_before = proxy.transport.bytes_sent + \
            proxy.transport.bytes_received
        start = time.perf_counter()
        out = proxy.call("classifyBatch", classifier="ZeroR",
                         dataset=frame, attribute="class", rows=rows)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert len(out["labels"]) == SCORED_ROWS
        assert out["errors"] == []
        return elapsed_ms, proxy.transport.bytes_sent + \
            proxy.transport.bytes_received - wire_before

    try:
        for i in range(WARMUP_CALLS):
            timed(frames[i])
        samples_ms, repeat_ms, wire = [], [], 0
        for frame in frames[WARMUP_CALLS:]:
            elapsed_ms, moved = timed(frame)
            samples_ms.append(elapsed_ms)
            wire += moved
            if resend:
                repeat_ms.append(timed(frame)[0])
    finally:
        proxy.close()
    report = {
        "arm": arm,
        "calls": len(samples_ms),
        "frame_bytes": len(frames[WARMUP_CALLS]),
        "wire_bytes_per_call": round(wire / len(samples_ms)),
        "mean_ms": round(statistics.fmean(samples_ms), 3),
        "p50_ms": round(percentile(samples_ms, 50), 3),
        "p99_ms": round(percentile(samples_ms, 99), 3),
        "max_ms": round(max(samples_ms), 3),
    }
    if resend:
        report["repeat_p50_ms"] = round(percentile(repeat_ms, 50), 3)
    return report


class _Base64OnlyFront(HttpGateway):
    """The peer from before attachments: it advertises only
    ``columnar`` and answers one base64 document whatever the request
    accepts, so a client never moves a frame out of the envelope."""

    def handle(self, method, target, headers, body):
        headers = {name: value for name, value in headers.items()
                   if name != "accept"}
        response = super().handle(method, target, headers, body)
        return response._replace(headers={**response.headers,
                                          "X-Repro-Codecs": "columnar"})


@contextlib.contextmanager
def one_hop(front_class):
    """Classifier behind *front_class* on a tcp port; yields its WSDL
    URL."""
    container = ServiceContainer()
    container.deploy(ClassifierService, "Classifier")
    front = front_class(container)
    listener = ThreadedListener(front, ("127.0.0.1", 0), "ipc-bench")
    front.base_url = f"http://127.0.0.1:{listener.address[1]}"
    listener.start()
    try:
        yield f"{front.base_url}/services/Classifier?wsdl"
    finally:
        listener.stop()


def test_what_each_bulk_tier_buys():
    frames = [frame_for(i) for i in range(WARMUP_CALLS + MEASURED_CALLS)]
    assert all(len(f) >= 1024 * 1024 for f in frames)
    counter = obs.get_metrics().counter

    # the shm tier off: the cross-host plane.  (The gateway and the
    # one-hop fronts run in this process, so disabling here covers
    # every sending chain; the worker only ever receives.)
    payload.set_shm_enabled(False)
    try:
        with start_mesh(workers=1, services=["Classifier"],
                        transport="tcp") as host:
            tcp = drive(host.wsdl_url("Classifier"), "tcp+attachments",
                        frames, resend=True)
        assert counter("ws.soap.attachments").value >= 2 * MEASURED_CALLS, \
            "the tcp arm did not attach its frames"
        # client and gateway, once per measured frame
        assert counter("ws.payload.ref_sends").value == 2 * MEASURED_CALLS, \
            "the tcp arm's repeats did not travel by reference"
        with one_hop(HttpGateway) as wsdl_url:
            attached = drive(wsdl_url, "attached", frames)
        sent_attached = counter("ws.soap.attachments").value
        with one_hop(_Base64OnlyFront) as wsdl_url:
            fallback = drive(wsdl_url, "base64 fallback", frames)
        assert counter("ws.soap.attachments").value == sent_attached, \
            "the fallback arm attached a frame"
    finally:
        payload.set_shm_enabled(True)

    # a uds mesh — gateway dials the worker over its socket, frames
    # travel by shared-memory segment on both hops
    with start_mesh(workers=1, services=["Classifier"],
                    transport="uds") as host:
        uds = drive(host.wsdl_url("Classifier"), "uds+shm", frames)
        schemes = host.router.transport_schemes()
        assert schemes and set(schemes.values()) == {"uds"}, schemes
    counters = payload.shm_counters()
    assert counters.get("ws.shm.publishes", 0) >= MEASURED_CALLS, \
        "the uds arm did not actually publish segments"
    assert counters.get("ws.shm.publish_failures", 0) == 0

    p50_ratio = uds["p50_ms"] / tcp["p50_ms"]
    wire_share = uds["wire_bytes_per_call"] / tcp["wire_bytes_per_call"]
    repeat_ratio = tcp["repeat_p50_ms"] / tcp["p50_ms"]
    speedup = fallback["p50_ms"] / attached["p50_ms"]
    report = {
        "scenario": {
            "service": "Classifier",
            "operation": "classifyBatch",
            "rows": ROWS,
            "features": FEATURES,
            "frame_bytes": tcp["frame_bytes"],
            "measured_calls": MEASURED_CALLS,
        },
        "mesh": {
            "tcp_attachments": tcp,
            "uds_shm": uds,
            "shm_p50_ratio": round(p50_ratio, 3),
            "shm_wire_share": round(wire_share, 5),
            "gate_max_shm_p50_ratio": MAX_SHM_P50_RATIO,
            "gate_max_shm_wire_share": MAX_SHM_WIRE_SHARE,
            "repeat_p50_ratio": round(repeat_ratio, 3),
            "gate_max_repeat_p50_ratio": MAX_REPEAT_P50_RATIO,
        },
        "one_hop": {
            "attached": attached,
            "base64_fallback": fallback,
            "p50_speedup": round(speedup, 2),
            "gate_min_speedup": MIN_ATTACHMENT_SPEEDUP,
        },
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nPERF-IPC mesh: tcp+attachments p50 {tcp['p50_ms']:.1f}ms, "
          f"{tcp['wire_bytes_per_call']} B/call vs uds+shm p50 "
          f"{uds['p50_ms']:.1f}ms, {uds['wire_bytes_per_call']} B/call "
          f"(p50 ratio {p50_ratio:.2f}, gate <= {MAX_SHM_P50_RATIO}; "
          f"wire share {wire_share:.4f}, gate <= {MAX_SHM_WIRE_SHARE})"
          f"\nPERF-IPC by-ref: tcp repeat p50 {tcp['repeat_p50_ms']:.1f}ms "
          f"is {repeat_ratio:.2f} of its full send "
          f"(gate <= {MAX_REPEAT_P50_RATIO})"
          f"\nPERF-IPC one hop: base64 fallback p50 "
          f"{fallback['p50_ms']:.1f}ms vs attached p50 "
          f"{attached['p50_ms']:.1f}ms ({speedup:.1f}x; gate "
          f"{MIN_ATTACHMENT_SPEEDUP}x)")

    assert p50_ratio <= MAX_SHM_P50_RATIO, (
        f"uds+shm p50 {uds['p50_ms']:.1f}ms is worse than "
        f"tcp+attachments p50 {tcp['p50_ms']:.1f}ms")
    assert wire_share <= MAX_SHM_WIRE_SHARE, (
        f"uds+shm moved {uds['wire_bytes_per_call']} B/call over its "
        f"sockets, {wire_share:.2%} of the tcp arm's "
        f"{tcp['wire_bytes_per_call']} B")
    assert repeat_ratio <= MAX_REPEAT_P50_RATIO, (
        f"a by-ref repeat costs {repeat_ratio:.2f} of the full send "
        f"(repeat p50 {tcp['repeat_p50_ms']:.1f}ms, first p50 "
        f"{tcp['p50_ms']:.1f}ms); gate is {MAX_REPEAT_P50_RATIO}")
    assert speedup >= MIN_ATTACHMENT_SPEEDUP, (
        f"attachments beat the base64 fallback by only {speedup:.2f}x "
        f"p50 (fallback {fallback['p50_ms']:.1f}ms, attached "
        f"{attached['p50_ms']:.1f}ms); gate is "
        f"{MIN_ATTACHMENT_SPEEDUP}x")
