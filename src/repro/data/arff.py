"""ARFF (Attribute-Relation File Format) reader and writer.

ARFF is the lingua franca of the paper's services: the general Classifier Web
Service "has 4 inputs: classifier name, options, *data set in ARFF format* and
attribute name".  This module implements the ARFF dialect the WEKA-era
toolkit used: ``@relation``, ``@attribute`` (numeric/real/integer, nominal
``{a,b,c}``, string, date treated as string), ``@data`` with ``?`` missing
markers, quoted tokens, ``%`` comments, and *sparse* instances
(``{index value, ...}`` rows where omitted cells default to 0 / the first
nominal value, exactly WEKA's semantics).  Per-instance weight trailers are
not supported (WEKA 3.4 did not emit them either).
"""

from __future__ import annotations

import io
from typing import Iterator, Sequence, TextIO

import numpy as np

from repro.data import cache
from repro.data.attribute import MISSING, Attribute
from repro.data.dataset import Dataset
from repro.errors import ArffParseError


def _split_csv_line(line: str, line_no: int) -> list[str]:
    """Split one @data line on commas, honouring single/double quotes."""
    fields: list[str] = []
    buf: list[str] = []
    quote: str | None = None
    i = 0
    while i < len(line):
        ch = line[i]
        if quote:
            if ch == "\\" and i + 1 < len(line):
                buf.append(line[i + 1])
                i += 2
                continue
            if ch == quote:
                quote = None
            else:
                buf.append(ch)
        elif ch in ("'", '"'):
            quote = ch
        elif ch == ",":
            fields.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
        i += 1
    if quote:
        raise ArffParseError("unterminated quote", line_no)
    fields.append("".join(buf).strip())
    return fields


def _split_plain_line(line: str) -> list[str]:
    """:func:`_split_csv_line` for a line with no quote character in it."""
    return [field.strip() for field in line.split(",")]


def _encode_column(attr: Attribute, tokens: Sequence[str]) -> list[float]:
    """Encode one column of plain tokens; a token :meth:`Attribute.encode`
    would reject raises ``KeyError``/``ValueError``."""
    if attr.is_nominal:
        cell = {value: float(i) for i, value in enumerate(attr.values)}
        cell["?"] = cell[""] = MISSING
        return [cell[token] for token in tokens]
    if attr.is_numeric:
        return [MISSING if token in ("?", "") else float(token)
                for token in tokens]
    return [attr.encode(token) for token in tokens]


def _add_plain_rows(dataset: Dataset,
                    pending: list[tuple[int, list[str]]]) -> None:
    """Append the dense, quote-free rows collected so far, encoding them
    column by column; a bad cell replays them through ``add_row`` so the
    error names the line the row-by-row reader would have named."""
    if not pending:
        return
    columns = zip(*(fields for _, fields in pending))
    try:
        cells = [_encode_column(attr, column)
                 for attr, column in zip(dataset.attributes, columns)]
    except (KeyError, ValueError):
        for line_no, fields in pending:
            _add_row(dataset, fields, line_no)
    else:
        dataset._bulk_extend(np.array(cells).T)
    pending.clear()


def _add_row(dataset: Dataset, fields: list[str], line_no: int) -> None:
    try:
        dataset.add_row(fields)
    except Exception as exc:  # re-raise with position info
        raise ArffParseError(str(exc), line_no) from exc


def _parse_nominal_spec(spec: str, line_no: int) -> list[str]:
    """Parse the ``{v1, v2, ...}`` body of a nominal attribute."""
    inner = spec.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ArffParseError(f"malformed nominal spec {spec!r}", line_no)
    return [_unquote(v) for v in _split_csv_line(inner[1:-1], line_no)]


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in ("'", '"'):
        return token[1:-1]
    return token


def _attribute_line(rest: str, line_no: int) -> Attribute:
    """Parse the remainder of an ``@attribute`` line."""
    rest = rest.strip()
    if not rest:
        raise ArffParseError("@attribute without a name", line_no)
    # name may be quoted and may contain spaces
    if rest[0] in ("'", '"'):
        quote = rest[0]
        end = rest.find(quote, 1)
        if end < 0:
            raise ArffParseError("unterminated attribute name", line_no)
        name = rest[1:end]
        spec = rest[end + 1:].strip()
    else:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            raise ArffParseError(f"@attribute missing type: {rest!r}",
                                 line_no)
        name, spec = parts[0], parts[1].strip()
    if spec.startswith("{"):
        return Attribute.nominal(name, _parse_nominal_spec(spec, line_no))
    kind = spec.split()[0].lower()
    if kind in ("numeric", "real", "integer"):
        return Attribute.numeric(name)
    if kind == "string":
        return Attribute.string(name)
    if kind == "date":
        # dates are carried as opaque strings; services never compute on them
        return Attribute.string(name)
    raise ArffParseError(f"unknown attribute type {spec!r}", line_no)


def _sparse_default(attr: Attribute) -> float:
    """WEKA sparse semantics: omitted cells are 0 (numeric) or the first
    declared value (nominal/string)."""
    return 0.0


def _parse_sparse_row(line: str, dataset: Dataset, line_no: int):
    from repro.data.instance import Instance
    body = line.strip()
    if not body.endswith("}"):
        raise ArffParseError("unterminated sparse instance", line_no)
    inner = body[1:-1].strip()
    cells = [_sparse_default(attr) for attr in dataset.attributes]
    if inner:
        for pair in _split_csv_line(inner, line_no):
            parts = pair.split(None, 1)
            if len(parts) != 2:
                raise ArffParseError(
                    f"malformed sparse pair {pair!r}", line_no)
            try:
                index = int(parts[0])
            except ValueError:
                raise ArffParseError(
                    f"sparse index {parts[0]!r} is not an integer",
                    line_no) from None
            if not 0 <= index < dataset.num_attributes:
                raise ArffParseError(
                    f"sparse index {index} out of range", line_no)
            attr = dataset.attribute(index)
            try:
                cells[index] = attr.encode(_unquote(parts[1]))
            except Exception as exc:
                raise ArffParseError(str(exc), line_no) from exc
    return Instance(cells)


def loads(text: str, class_attribute: str | None = None) -> Dataset:
    """Parse an ARFF document from a string.

    Parameters
    ----------
    text:
        Full ARFF document.
    class_attribute:
        Optional attribute name to designate as the class.  When omitted, no
        class is set (callers such as ``classifyInstance`` pass the class
        attribute name separately, exactly as the paper's service does).

    Results are memoised by content digest (see
    :func:`repro.data.cache.memo_parse`): parsing the same document
    twice costs one parse plus a dataset copy.
    """
    return cache.memo_parse(
        "arff", text, lambda: load(io.StringIO(text), class_attribute),
        class_attribute=class_attribute)


def load(fp: TextIO, class_attribute: str | None = None) -> Dataset:
    """Parse an ARFF document from a text file object."""
    relation: str | None = None
    attributes: list[Attribute] = []
    dataset: Dataset | None = None
    in_data = False
    pending: list[tuple[int, list[str]]] = []  # dense quote-free rows
    for line_no, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        lowered = line.lower()
        if not in_data:
            if lowered.startswith("@relation"):
                relation = _unquote(line[len("@relation"):].strip()) or "rel"
            elif lowered.startswith("@attribute"):
                attributes.append(
                    _attribute_line(line[len("@attribute"):], line_no))
            elif lowered.startswith("@data"):
                if relation is None:
                    raise ArffParseError("@data before @relation", line_no)
                if not attributes:
                    raise ArffParseError("@data with no attributes", line_no)
                dataset = Dataset(relation, attributes)
                in_data = True
            else:
                raise ArffParseError(f"unexpected header line {line!r}",
                                     line_no)
            continue
        assert dataset is not None
        sparse = line.startswith("{")
        plain = not sparse and "'" not in line and '"' not in line
        if not plain:  # rows keep their order (string tables, first error)
            _add_plain_rows(dataset, pending)
        if sparse:
            dataset.add(_parse_sparse_row(line, dataset, line_no))
            continue
        fields = _split_plain_line(line) if plain \
            else _split_csv_line(line, line_no)
        if len(fields) != dataset.num_attributes:
            _add_plain_rows(dataset, pending)
            raise ArffParseError(
                f"row has {len(fields)} fields, expected "
                f"{dataset.num_attributes}", line_no)
        if plain:
            pending.append((line_no, fields))
        else:
            _add_row(dataset, [_unquote(f) for f in fields], line_no)
    if dataset is None:
        raise ArffParseError("document has no @data section")
    _add_plain_rows(dataset, pending)
    if class_attribute is not None:
        dataset.set_class(class_attribute)
    return dataset


def _quote_if_needed(token: str) -> str:
    if token == "":
        return "''"
    if any(c in token for c in " ,\t'\"{}%"):
        return "'" + token.replace("'", r"\'") + "'"
    return token


def _format_cell(value: object) -> str:
    if value is None:
        return "?"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return _quote_if_needed(str(value))


def dumps(dataset: Dataset, sparse: bool = False) -> str:
    """Serialise *dataset* to an ARFF document string."""
    out = io.StringIO()
    dump(dataset, out, sparse=sparse)
    return out.getvalue()


def dump(dataset: Dataset, fp: TextIO, sparse: bool = False) -> None:
    """Serialise *dataset* to *fp* as ARFF (dense or sparse @data rows)."""
    fp.write(f"@relation {_quote_if_needed(dataset.relation)}\n\n")
    for attr in dataset.attributes:
        name = _quote_if_needed(attr.name)
        if attr.is_nominal:
            body = ",".join(_quote_if_needed(v) for v in attr.values)
            fp.write(f"@attribute {name} {{{body}}}\n")
        elif attr.is_string:
            fp.write(f"@attribute {name} string\n")
        else:
            fp.write(f"@attribute {name} numeric\n")
    fp.write("\n@data\n")
    for inst in dataset:
        decoded = inst.decoded(dataset)
        if sparse:
            parts = []
            for i, (attr, value) in enumerate(zip(dataset.attributes,
                                                  decoded)):
                if value is None:
                    parts.append(f"{i} ?")  # missing must stay explicit
                elif inst.value(i) != 0.0:
                    parts.append(f"{i} {_format_cell(value)}")
            fp.write("{" + ",".join(parts) + "}\n")
        else:
            fp.write(",".join(_format_cell(v) for v in decoded) + "\n")


def iter_rows(text: str) -> Iterator[list[str]]:
    """Yield raw field lists of the @data section (for streaming readers)."""
    in_data = False
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data:
            if line.lower().startswith("@data"):
                in_data = True
            continue
        yield [_unquote(f) for f in _split_csv_line(line, line_no)]


def header_of(dataset: Dataset) -> str:
    """ARFF header (no rows) — used by streaming services to ship schemas."""
    empty = dataset.copy_header()
    return dumps(empty)
