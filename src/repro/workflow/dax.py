"""GriPhyN DAX export (§2: "the GriPhyN DAX standard is also supported").

DAX is the abstract-DAG format of the GriPhyN virtual data system (Pegasus):
``<job>`` elements with logical filenames flowing between them and explicit
``<child>``/``<parent>`` dependency records.  The export maps each workflow
task to a job and each cable to a logical file produced by the source and
consumed by the target.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro import xmlsafe
from repro.workflow.model import TaskGraph

DAX_NS = "http://www.griphyn.org/chimera/DAX"


def dumps(graph: TaskGraph, namespace: str = "repro") -> str:
    """Serialise *graph* as a DAX document."""
    graph.validate()
    root = ET.Element("adag")
    root.set("xmlns", DAX_NS)
    root.set("name", graph.name)
    root.set("jobCount", str(len(graph.tasks)))
    root.set("childCount",
             str(len({c.target for c in graph.cables})))
    job_ids = {task.name: f"ID{i:06d}"
               for i, task in enumerate(graph.tasks, start=1)}

    def lfn(cable) -> str:
        return f"{cable.source}.out{cable.source_index}"

    for task in graph.tasks:
        job = ET.SubElement(root, "job")
        job.set("id", job_ids[task.name])
        job.set("namespace", namespace)
        job.set("name", task.tool.name)
        job.set("version", "1.0")
        argument = ET.SubElement(job, "argument")
        argument.text = task.name
        for cable in graph.incoming(task.name):
            uses = ET.SubElement(job, "uses")
            uses.set("file", lfn(cable))
            uses.set("link", "input")
        for cable in graph.outgoing(task.name):
            uses = ET.SubElement(job, "uses")
            uses.set("file", lfn(cable))
            uses.set("link", "output")
    # dependency section
    children: dict[str, set[str]] = {}
    for cable in graph.cables:
        children.setdefault(cable.target, set()).add(cable.source)
    for child_name in sorted(children):
        child = ET.SubElement(root, "child")
        child.set("ref", job_ids[child_name])
        for parent_name in sorted(children[child_name]):
            parent = ET.SubElement(child, "parent")
            parent.set("ref", job_ids[parent_name])
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def job_count(document: str) -> int:
    """Number of jobs in a DAX document (sanity checks in tests)."""
    root = xmlsafe.fromstring(document)
    return len(root.findall(f"{{{DAX_NS}}}job"))
