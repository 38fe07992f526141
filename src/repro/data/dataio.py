"""Format-sniffing dataset I/O for the services layer.

Every service operation that accepts a dataset document goes through
:func:`parse_dataset`, and everything that ships one picks its encoding
through :func:`to_wire`.  The sniff is trivial and unambiguous — a
columnar frame starts with the :data:`~repro.data.codec.MAGIC` bytes,
everything else is ARFF text — which is what keeps un-upgraded peers
interoperable: a peer that only speaks ARFF keeps sending ARFF and keeps
receiving ARFF, and never sees a frame unless it advertised the codec
(see ``Transport.speaks`` / the ``X-Repro-Codecs`` header).

Parses are memoised through the content-keyed parse cache for both
formats, so re-shipping the same fold to N replicas parses once.
"""

from __future__ import annotations

from repro.data import arff, cache, codec
from repro.data.dataset import Dataset
from repro.errors import DataError

#: Codec token advertised/negotiated for the binary frame format.
COLUMNAR = "columnar"


def parse_dataset(doc: str | bytes | bytearray | memoryview,
                  class_attribute: str | None = None) -> Dataset:
    """Parse a wire dataset document, whatever its encoding.

    ``bytes`` starting with the frame magic decode through the columnar
    codec; any other input is treated as ARFF text (bytes are decoded as
    UTF-8 first).  ``class_attribute`` optionally designates the class
    by name after parsing, matching ``arff.loads`` semantics.
    """
    if isinstance(doc, (bytes, bytearray, memoryview)):
        if codec.is_columnar(doc):
            # the buffer itself: a mapped segment or an attachment view
            # decodes in place, under the digest this request has for it
            out = cache.memo_parse(COLUMNAR, doc,
                                   lambda: codec.decode(doc))
            if class_attribute is not None:
                out.set_class(class_attribute)
            return out
        try:
            doc = bytes(doc).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(
                f"dataset document is neither a columnar frame nor "
                f"UTF-8 ARFF text: {exc}") from None
    return arff.loads(doc, class_attribute=class_attribute)


def to_wire(dataset: Dataset, binary: bool) -> bytes | str:
    """Encode *dataset* for the wire: a columnar frame when the peer
    speaks it (*binary* true), ARFF text otherwise."""
    if binary:
        return dataset.to_frame()
    return arff.dumps(dataset)


__all__ = ["COLUMNAR", "parse_dataset", "to_wire"]
