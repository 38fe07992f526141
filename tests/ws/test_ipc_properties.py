"""Property: shipping a document by shm ref never changes a byte.

For *any* dataset — zero rows, all-missing cells, unicode nominals —
the same-host fast path (publish into a shared-memory segment, ship a
``via="shm"`` ref, map on the far side) must hand the consumer content
byte-identical to what an inline send would have carried, for both the
ARFF text codec and the RCF1 binary columnar codec, and the mapped
frame must decode to the same dataset.  Runs derandomised so CI is
reproducible.
"""

import pytest
from hypothesis import given, settings

from repro.data import arff, codec
from repro.data.attribute import Attribute
from repro.data.dataset import Dataset
from repro.ws import payload, shm, soap
from repro.ws.payload import PayloadRef
from repro.ws.soap import SoapRequest

from tests.data.test_roundtrip_properties import (assert_same_cells,
                                                  datasets, decoded_rows)

pytestmark = pytest.mark.skipif(not shm.supported(),
                                reason="no POSIX shared memory here")

PROP = settings(max_examples=40, deadline=None, derandomize=True)


def ship_by_shm(doc):
    """One same-host send: externalize → SOAP wire → decode → resolve.

    ``resolve_refs`` is what the container's first chain step does with
    a decoded request, and the payload store is cleared between encode
    and decode, so the value handed back can only have come from the
    mapped segment.
    """
    peer = payload.PeerState()
    request = SoapRequest("Data", "validate", {"doc": doc})
    out = payload.externalize(request, peer, min_bytes=1,
                              same_host=True)
    ref = out.params["doc"]
    assert isinstance(ref, PayloadRef) and ref.via == "shm"
    assert ref.size == len(doc if isinstance(doc, bytes)
                           else doc.encode("utf-8", "surrogatepass"))
    wire = soap.encode_request(out)
    payload.reset_payload_store()
    before = payload.shm_counters().get("ws.shm.hits", 0)
    decoded = payload.resolve_refs(soap.decode_request(wire))
    assert payload.shm_counters()["ws.shm.hits"] == before + 1
    return decoded.params["doc"]


class TestShmByteIdentity:
    @PROP
    @given(datasets())
    def test_arff_text_is_byte_identical(self, ds):
        text = arff.dumps(ds)
        value = ship_by_shm(text)
        assert isinstance(value, str)
        assert value == text
        back = arff.loads(value)
        assert list(back.attributes) == list(ds.attributes)
        assert_same_cells(decoded_rows(back), decoded_rows(ds))

    @PROP
    @given(datasets(kinds=("numeric", "nominal")))
    def test_rcf1_frame_is_byte_identical(self, ds):
        frame = codec.encode(ds)
        value = ship_by_shm(frame)
        # bytes come back as a read-only view INTO the shared pages;
        # the columnar codec decodes straight from it
        assert isinstance(value, memoryview) and value.readonly
        assert bytes(value) == frame
        back = codec.decode(value)
        assert list(back.attributes) == list(ds.attributes)
        assert_same_cells(decoded_rows(back), decoded_rows(ds))

    def test_zero_row_dataset(self):
        ds = Dataset("empty", [Attribute.numeric("x"),
                               Attribute.nominal("c", ["a", "b"])])
        frame = codec.encode(ds)
        assert bytes(ship_by_shm(frame)) == frame
        assert ship_by_shm(arff.dumps(ds)) == arff.dumps(ds)
        assert codec.decode(ship_by_shm(frame)).num_instances == 0

    def test_all_missing_dataset(self):
        ds = Dataset("holes", [Attribute.numeric("x"),
                               Attribute.nominal("c", ["a", "b"]),
                               Attribute.string("s")])
        for _ in range(5):
            ds.add_row([None, None, None])
        text = arff.dumps(ds)
        assert ship_by_shm(text) == text
        numeric = Dataset("holes2", [Attribute.numeric("x"),
                                     Attribute.nominal("c", ["a"])])
        for _ in range(5):
            numeric.add_row([None, None])
        frame = codec.encode(numeric)
        back = codec.decode(ship_by_shm(frame))
        assert_same_cells(decoded_rows(back), decoded_rows(numeric))
