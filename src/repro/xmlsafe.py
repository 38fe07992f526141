"""Parse XML that carries no DTD: the one ``fromstring`` of the repo.

No document the repo reads — envelopes, WSDL, workflow and DAX files,
experiment specs, workspace documents — has a use for a DTD, but
ElementTree's parser honours one: ``<!DOCTYPE x [<!ENTITY a "AAAA">]>``
makes ``&a;`` read ``AAAA``, so a document could rewrite its own values
or blow up into gigabytes of text.  :func:`fromstring` refuses any
DOCTYPE with :class:`xml.etree.ElementTree.ParseError`, the error every
caller already maps to its own "malformed document" answer.

The refusal is raised from the tree builder's ``doctype`` hook, which
expat calls before it reads the internal subset, so no entity ever
reaches the tree.  Expat does scan the rest of the buffer with its
handlers muted; its own amplification limit bounds any expansion in
that scan.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET


class _RefuseDoctype(ET.TreeBuilder):
    """A tree builder that fails the parse at the first DOCTYPE."""

    def doctype(self, name, pubid, system):
        raise ET.ParseError(f"DOCTYPE {name!r} refused: no DTD is accepted")


def fromstring(document: str | bytes) -> ET.Element:
    """:func:`xml.etree.ElementTree.fromstring`, refusing any DOCTYPE."""
    parser = ET.XMLParser(target=_RefuseDoctype())
    parser.feed(document)
    return parser.close()
