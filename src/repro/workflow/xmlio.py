"""Workflow XML serialisation (§2: "the ability to export the workflow graph
in XML").

The document records tasks (tool name + parameters) and cables; a task whose
tool is a :class:`~repro.workflow.model.GroupTool` (the §2 "service
hierarchy") serialises its inner graph recursively, so hierarchical
workflows persist fully.  Parsing resolves plain tool names against a
:class:`~repro.workflow.toolbox.ToolBox`, so a round-tripped workflow
re-binds to the current tool implementations — the same late binding
Triana's .xml task graphs use.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

from repro import xmlsafe
from repro.errors import WorkflowError
from repro.workflow.model import GroupTool, TaskGraph
from repro.workflow.toolbox import ToolBox


def _emit_graph(graph: TaskGraph, parent: ET.Element) -> None:
    parent.set("name", graph.name)
    for task in graph.tasks:
        el = ET.SubElement(parent, "task")
        el.set("name", task.name)
        el.set("tool", task.tool.name)
        if isinstance(task.tool, GroupTool):
            group = ET.SubElement(el, "group")
            inner = ET.SubElement(group, "taskgraph")
            _emit_graph(task.tool.graph, inner)
            for kind, mapping in (("inputMap", task.tool.input_map),
                                  ("outputMap", task.tool.output_map)):
                for inner_task, index in mapping:
                    m = ET.SubElement(group, kind)
                    m.set("task", inner_task)
                    m.set("index", str(index))
        for key, value in sorted(task.parameters.items()):
            param = ET.SubElement(el, "parameter")
            param.set("name", key)
            param.text = json.dumps(value)
    for cable in graph.cables:
        el = ET.SubElement(parent, "cable")
        el.set("source", cable.source)
        el.set("sourceIndex", str(cable.source_index))
        el.set("target", cable.target)
        el.set("targetIndex", str(cable.target_index))


def dumps(graph: TaskGraph) -> str:
    """Serialise *graph* to the toolkit's workflow XML."""
    root = ET.Element("taskgraph")
    _emit_graph(graph, root)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def _parse_graph(root: ET.Element, toolbox: ToolBox) -> TaskGraph:
    graph = TaskGraph(root.get("name", "workflow"))
    for el in root.findall("task"):
        tool_name = el.get("tool", "")
        group_el = el.find("group")
        if group_el is not None:
            inner_el = group_el.find("taskgraph")
            if inner_el is None:
                raise WorkflowError(
                    f"group task {el.get('name')!r} lacks its subgraph")
            inner = _parse_graph(inner_el, toolbox)
            input_map = [(m.get("task", ""), int(m.get("index", "0")))
                         for m in group_el.findall("inputMap")]
            output_map = [(m.get("task", ""), int(m.get("index", "0")))
                          for m in group_el.findall("outputMap")]
            tool = GroupTool(tool_name, inner, input_map, output_map)
        else:
            tool = toolbox.get(tool_name)
        parameters = {}
        for param in el.findall("parameter"):
            raw = param.text or "null"
            parameters[param.get("name", "")] = json.loads(raw)
        graph.add(tool, name=el.get("name"), **parameters)
    for el in root.findall("cable"):
        graph.connect(el.get("source", ""), el.get("target", ""),
                      int(el.get("sourceIndex", "0")),
                      int(el.get("targetIndex", "0")))
    return graph


def loads(document: str, toolbox: ToolBox) -> TaskGraph:
    """Parse workflow XML, binding tools by name from *toolbox*."""
    try:
        root = xmlsafe.fromstring(document)
    except ET.ParseError as exc:
        raise WorkflowError(f"malformed workflow XML: {exc}") from exc
    if root.tag != "taskgraph":
        raise WorkflowError(f"not a taskgraph document: {root.tag}")
    return _parse_graph(root, toolbox)
