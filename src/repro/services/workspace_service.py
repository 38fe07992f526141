"""Collaborative workspace Web Service (§3, Category 2: "an increasing
number of science and engineering projects are performed in collaborative
mode with physically distributed participants.  It is therefore necessary to
support interaction between such participants in a seamless way").

Participants share *workflows* (as the toolkit's workflow XML) and
*annotations*: one user publishes a composed pipeline under a name, another
lists/fetches it, runs it against their own toolbox bindings, and leaves a
note.  Versions are kept so participants can refer to earlier revisions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro import xmlsafe
from repro.errors import DataError
from repro.ws.service import operation


@dataclass
class _Revision:
    version: int
    author: str
    document: str
    comment: str
    published_at: float


@dataclass
class _SharedWorkflow:
    name: str
    revisions: list[_Revision] = field(default_factory=list)
    annotations: list[dict] = field(default_factory=list)


class WorkspaceService:
    """Shared store of named, versioned workflow documents."""

    def __init__(self) -> None:
        self._workflows: dict[str, _SharedWorkflow] = {}
        self._lock = threading.Lock()

    def _get(self, name: str) -> _SharedWorkflow:
        with self._lock:
            wf = self._workflows.get(name)
        if wf is None:
            raise DataError(f"no shared workflow named {name!r}")
        return wf

    @operation
    def publish(self, name: str, document: str, author: str,
                comment: str = "") -> dict:
        """Publish (a new revision of) a workflow XML document."""
        # validate before sharing: the XML must at least parse
        import xml.etree.ElementTree as ET
        try:
            root = xmlsafe.fromstring(document)
        except ET.ParseError as exc:
            raise DataError(f"not a valid workflow document: {exc}")
        if root.tag != "taskgraph":
            raise DataError("document is not a taskgraph")
        with self._lock:
            wf = self._workflows.setdefault(name, _SharedWorkflow(name))
            revision = _Revision(
                version=len(wf.revisions) + 1, author=author,
                document=document, comment=comment,
                published_at=time.time())
            wf.revisions.append(revision)
        return {"name": name, "version": revision.version}

    @operation
    def list(self) -> list:
        """All shared workflows with their latest revision metadata."""
        with self._lock:
            out = []
            for wf in self._workflows.values():
                head = wf.revisions[-1]
                out.append({"name": wf.name, "version": head.version,
                            "author": head.author,
                            "comment": head.comment,
                            "annotations": len(wf.annotations)})
        return sorted(out, key=lambda d: d["name"])

    @operation
    def fetch(self, name: str, version: int = 0) -> dict:
        """Fetch a workflow document (version 0 = latest)."""
        wf = self._get(name)
        if version == 0:
            revision = wf.revisions[-1]
        else:
            matching = [r for r in wf.revisions if r.version == version]
            if not matching:
                raise DataError(
                    f"workflow {name!r} has no version {version} "
                    f"(latest: {wf.revisions[-1].version})")
            revision = matching[0]
        return {"name": name, "version": revision.version,
                "author": revision.author, "document": revision.document}

    @operation
    def history(self, name: str) -> list:
        """Revision history of a shared workflow."""
        wf = self._get(name)
        return [{"version": r.version, "author": r.author,
                 "comment": r.comment} for r in wf.revisions]

    @operation
    def annotate(self, name: str, author: str, text: str) -> int:
        """Leave a note on a shared workflow; returns the note count."""
        wf = self._get(name)
        with self._lock:
            wf.annotations.append({"author": author, "text": text,
                                   "at": time.time()})
            return len(wf.annotations)

    @operation
    def annotations(self, name: str) -> list:
        """All notes on a shared workflow."""
        wf = self._get(name)
        with self._lock:
            return [dict(a) for a in wf.annotations]
