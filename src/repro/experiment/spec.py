"""Declarative experiment specs: the FlexDM-style grid description.

FlexDM (PAPERS.md: "Enabling robust and reliable parallel data mining
using WEKA") drives thousands of WEKA runs from one declarative XML
file.  This module is that front door for the toolkit: an
:class:`ExperimentSpec` names datasets, classifier configurations
(with per-option *value grids*), fold counts and seeds, and
:mod:`repro.experiment.expand` turns it into the deterministic
{dataset × classifier × options × seed} cell grid.

Two on-disk formats parse to the *same* spec — and therefore to
byte-identical cell IDs (a property test pins this):

JSON::

    {"name": "demo", "folds": 5, "seeds": [1, 2],
     "datasets": [{"name": "bc", "source": "synthetic:breast_cancer"}],
     "classifiers": ["NaiveBayes",
                     {"name": "J48", "options": {"min_obj": [2, 5]}}]}

XML::

    <experiment name="demo" folds="5" seeds="1,2">
      <dataset name="bc" source="synthetic:breast_cancer"/>
      <classifier name="NaiveBayes"/>
      <classifier name="J48">
        <option name="min_obj" values="2,5"/>
      </classifier>
    </experiment>

XML attribute values carry no types, so option values are coerced with
:func:`coerce_value` (int, then float, then ``true``/``false``, else
string).  JSON specs whose option values already have those types
expand to identical grids.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from repro import xmlsafe
from repro.errors import ReproError


class SpecError(ReproError):
    """An experiment spec could not be parsed or validated."""


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset axis entry.

    *source* is either ``synthetic:<generator>`` (optionally with
    ``?key=value`` arguments, e.g. ``synthetic:numeric_two_class?n=60``)
    naming a :mod:`repro.data.synthetic` generator, or a filesystem path
    to an ARFF/CSV file.
    """

    name: str
    source: str
    class_attribute: str | None = None


@dataclass(frozen=True)
class ClassifierSpec:
    """One classifier axis entry: a catalogue name + option value grid.

    ``options`` maps option name → tuple of candidate values; the
    expansion takes the cross product over every option's values, so
    ``{"min_obj": (2, 5), "unpruned": (True,)}`` yields two
    configurations.
    """

    name: str
    options: tuple[tuple[str, tuple], ...] = ()

    def option_axes(self) -> list[tuple[str, tuple]]:
        """Option axes sorted by name — expansion order is canonical."""
        return sorted(self.options)


@dataclass
class ExperimentSpec:
    """The full declarative grid description."""

    name: str
    datasets: list[DatasetSpec] = field(default_factory=list)
    classifiers: list[ClassifierSpec] = field(default_factory=list)
    folds: int = 10
    seeds: tuple[int, ...] = (1,)

    def validate(self) -> "ExperimentSpec":
        """Check structural invariants; returns self for chaining."""
        if not self.name:
            raise SpecError("experiment needs a name")
        if not self.datasets:
            raise SpecError("experiment needs at least one dataset")
        if not self.classifiers:
            raise SpecError("experiment needs at least one classifier")
        if self.folds < 2:
            raise SpecError("folds must be >= 2")
        if not self.seeds:
            raise SpecError("experiment needs at least one seed")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate dataset names in {names}")
        return self


def coerce_value(text: str):
    """XML attribute → typed value: int, float, bool, else string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text == "true":
        return True
    if text == "false":
        return False
    return text


def _as_value_tuple(value) -> tuple:
    """An option's JSON value: a list is a grid axis, a scalar is a
    single-value axis."""
    if isinstance(value, (list, tuple)):
        if not value:
            raise SpecError("an option value grid cannot be empty")
        return tuple(value)
    return (value,)


def _classifier_from_json(entry) -> ClassifierSpec:
    if isinstance(entry, str):
        return ClassifierSpec(name=entry)
    if not isinstance(entry, dict) or "name" not in entry:
        raise SpecError(f"bad classifier entry {entry!r} "
                        f"(want a name or {{'name': ..., 'options': ...}})")
    options = entry.get("options") or {}
    if not isinstance(options, dict):
        raise SpecError(f"classifier options must be an object, "
                        f"got {options!r}")
    axes = tuple(sorted(((str(k), _as_value_tuple(v))
                         for k, v in options.items()),
                        key=lambda axis: axis[0]))
    return ClassifierSpec(name=str(entry["name"]), options=axes)


def load_json(text: str) -> ExperimentSpec:
    """Parse a JSON experiment spec."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SpecError(f"invalid JSON spec: {exc}")
    if not isinstance(doc, dict):
        raise SpecError("a JSON spec must be an object")
    datasets = []
    for entry in doc.get("datasets", []):
        if isinstance(entry, str):
            datasets.append(DatasetSpec(name=entry, source=entry))
            continue
        if not isinstance(entry, dict) or "name" not in entry \
                or "source" not in entry:
            raise SpecError(f"bad dataset entry {entry!r} "
                            f"(want {{'name': ..., 'source': ...}})")
        datasets.append(DatasetSpec(
            name=str(entry["name"]), source=str(entry["source"]),
            class_attribute=entry.get("class_attribute")))
    classifiers = [_classifier_from_json(c)
                   for c in doc.get("classifiers", [])]
    seeds = doc.get("seeds", [1])
    if isinstance(seeds, int):
        seeds = [seeds]
    return ExperimentSpec(
        name=str(doc.get("name", "")),
        datasets=datasets, classifiers=classifiers,
        folds=int(doc.get("folds", 10)),
        seeds=tuple(int(s) for s in seeds)).validate()


def load_xml(text: str) -> ExperimentSpec:
    """Parse an XML experiment spec (FlexDM-style)."""
    try:
        root = xmlsafe.fromstring(text)
    except ET.ParseError as exc:
        raise SpecError(f"invalid XML spec: {exc}")
    if root.tag != "experiment":
        raise SpecError(f"root element must be <experiment>, "
                        f"got <{root.tag}>")
    datasets = []
    for node in root.findall("dataset"):
        name = node.get("name")
        source = node.get("source")
        if not name or not source:
            raise SpecError("<dataset> needs name= and source=")
        datasets.append(DatasetSpec(
            name=name, source=source,
            class_attribute=node.get("class")))
    classifiers = []
    for node in root.findall("classifier"):
        name = node.get("name")
        if not name:
            raise SpecError("<classifier> needs name=")
        axes = []
        for opt in node.findall("option"):
            oname = opt.get("name")
            values = opt.get("values", opt.get("value"))
            if not oname or values is None:
                raise SpecError("<option> needs name= and values=")
            axes.append((oname, tuple(coerce_value(v.strip())
                                      for v in values.split(","))))
        classifiers.append(ClassifierSpec(
            name=name,
            options=tuple(sorted(axes, key=lambda axis: axis[0]))))
    seeds_text = root.get("seeds", "1")
    seeds = tuple(int(s) for s in seeds_text.split(","))
    return ExperimentSpec(
        name=root.get("name", ""), datasets=datasets,
        classifiers=classifiers, folds=int(root.get("folds", "10")),
        seeds=seeds).validate()


def loads(text: str) -> ExperimentSpec:
    """Parse a spec, sniffing JSON vs XML from the first character."""
    stripped = text.lstrip()
    if not stripped:
        raise SpecError("empty experiment spec")
    if stripped.startswith("<"):
        return load_xml(text)
    return load_json(text)


def dumps_json(spec: ExperimentSpec) -> str:
    """Render a spec back to its canonical JSON form."""
    return json.dumps({
        "name": spec.name,
        "folds": spec.folds,
        "seeds": list(spec.seeds),
        "datasets": [
            {"name": d.name, "source": d.source,
             **({"class_attribute": d.class_attribute}
                if d.class_attribute else {})}
            for d in spec.datasets],
        "classifiers": [
            {"name": c.name,
             "options": {name: list(values)
                         for name, values in c.options}}
            for c in spec.classifiers],
    }, indent=2)


def dumps_xml(spec: ExperimentSpec) -> str:
    """Render a spec to the equivalent XML form.

    Round-trip caveat: XML attributes are untyped, so option values are
    rendered with ``repr``-free ``str`` and re-read through
    :func:`coerce_value` — values whose string form coerces to a
    different type (the string ``"2"``, say) do not survive.  The
    property suite restricts itself accordingly.
    """
    root = ET.Element("experiment", {
        "name": spec.name, "folds": str(spec.folds),
        "seeds": ",".join(str(s) for s in spec.seeds)})
    for d in spec.datasets:
        attrs = {"name": d.name, "source": d.source}
        if d.class_attribute:
            attrs["class"] = d.class_attribute
        ET.SubElement(root, "dataset", attrs)
    for c in spec.classifiers:
        node = ET.SubElement(root, "classifier", {"name": c.name})
        for name, values in c.options:
            ET.SubElement(node, "option", {
                "name": name,
                "values": ",".join(_xml_value(v) for v in values)})
    return ET.tostring(root, encoding="unicode")


def _xml_value(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)
