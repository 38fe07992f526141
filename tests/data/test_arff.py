"""ARFF parser/writer tests, including hypothesis round-trip properties."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Attribute, Dataset, arff
from repro.errors import ArffParseError

DOC = """% comment line
@relation weather

@attribute outlook {sunny, overcast, rainy}
@attribute temperature numeric
@attribute windy {TRUE, FALSE}

@data
sunny, 85, FALSE
overcast, 83, TRUE
rainy, ?, FALSE
"""


class TestParsing:
    def test_basic(self):
        ds = arff.loads(DOC)
        assert ds.relation == "weather"
        assert ds.num_attributes == 3
        assert ds.num_instances == 3
        assert ds.attribute("outlook").values == ("sunny", "overcast",
                                                  "rainy")

    def test_missing_cell(self):
        ds = arff.loads(DOC)
        assert math.isnan(ds[2].value(1))

    def test_class_attribute_argument(self):
        ds = arff.loads(DOC, "windy")
        assert ds.class_attribute.name == "windy"

    def test_case_insensitive_keywords(self):
        text = DOC.replace("@relation", "@RELATION") \
                  .replace("@attribute", "@Attribute") \
                  .replace("@data", "@DATA")
        assert arff.loads(text).num_instances == 3

    def test_quoted_names_and_values(self):
        text = ("@relation 'my rel'\n"
                "@attribute 'the attr' {'a b', c}\n"
                "@data\n'a b'\nc\n")
        ds = arff.loads(text)
        assert ds.relation == "my rel"
        assert ds.attribute("the attr").values == ("a b", "c")
        assert ds[0].decoded(ds) == ["a b"]

    def test_real_and_integer_types(self):
        text = ("@relation r\n@attribute a real\n@attribute b integer\n"
                "@data\n1.5,2\n")
        ds = arff.loads(text)
        assert ds.attribute("a").is_numeric
        assert ds.attribute("b").is_numeric

    def test_string_type(self):
        text = "@relation r\n@attribute s string\n@data\nhello\nworld\n"
        ds = arff.loads(text)
        assert ds.attribute("s").is_string
        assert ds[1].decoded(ds) == ["world"]

    def test_date_treated_as_string(self):
        text = ("@relation r\n@attribute d date yyyy-MM-dd\n@data\n"
                "2005-03-01\n")
        assert arff.loads(text).attribute("d").is_string


class TestParseErrors:
    def test_data_before_relation(self):
        with pytest.raises(ArffParseError):
            arff.loads("@data\n1\n")

    def test_no_data_section(self):
        with pytest.raises(ArffParseError):
            arff.loads("@relation r\n@attribute a numeric\n")

    def test_wrong_field_count(self):
        with pytest.raises(ArffParseError) as err:
            arff.loads("@relation r\n@attribute a numeric\n"
                       "@attribute b numeric\n@data\n1\n")
        assert err.value.line_no is not None

    def test_unknown_type(self):
        with pytest.raises(ArffParseError):
            arff.loads("@relation r\n@attribute a complex\n@data\n1\n")

    def test_sparse_malformed_pair(self):
        with pytest.raises(ArffParseError):
            arff.loads("@relation r\n@attribute a numeric\n@data\n"
                       "{zero}\n")

    def test_sparse_index_out_of_range(self):
        with pytest.raises(ArffParseError):
            arff.loads("@relation r\n@attribute a numeric\n@data\n"
                       "{5 1}\n")

    def test_sparse_unterminated(self):
        with pytest.raises(ArffParseError):
            arff.loads("@relation r\n@attribute a numeric\n@data\n"
                       "{0 1\n")

    def test_bad_nominal_value(self):
        with pytest.raises(ArffParseError):
            arff.loads("@relation r\n@attribute a {x}\n@data\ny\n")

    def test_unterminated_quote(self):
        with pytest.raises(ArffParseError):
            arff.loads("@relation r\n@attribute a {x}\n@data\n'x\n")

    def test_garbage_header_line(self):
        with pytest.raises(ArffParseError):
            arff.loads("@relation r\nnot-a-directive\n@data\n")


class TestWriting:
    def test_roundtrip_fixture(self):
        ds = arff.loads(DOC)
        again = arff.loads(arff.dumps(ds))
        assert again.relation == ds.relation
        assert [a.name for a in again.attributes] == \
            [a.name for a in ds.attributes]
        for a, b in zip(again, ds):
            assert a == b

    def test_header_of_is_dataless(self):
        ds = arff.loads(DOC)
        header = arff.header_of(ds)
        parsed = arff.loads(header)
        assert parsed.num_instances == 0
        assert parsed.num_attributes == 3

    def test_quoting_special_chars(self):
        ds = Dataset("r", [Attribute.nominal("a", ["x,y", "plain"])])
        ds.add_row(["x,y"])
        again = arff.loads(arff.dumps(ds))
        assert again[0].decoded(again) == ["x,y"]

    def test_iter_rows(self):
        rows = list(arff.iter_rows(DOC))
        assert rows[0] == ["sunny", "85", "FALSE"]
        assert rows[2][1] == "?"


class TestSparse:
    SPARSE = ("@relation sparse\n"
              "@attribute a numeric\n"
              "@attribute b {zero, one}\n"
              "@attribute c numeric\n"
              "@data\n"
              "{0 2.5, 1 one}\n"
              "{}\n"
              "{2 ?}\n")

    def test_parse_sparse(self):
        ds = arff.loads(self.SPARSE)
        assert ds.num_instances == 3
        # omitted cells default to 0 / first nominal value
        assert ds[0].decoded(ds) == [2.5, "one", 0.0]
        assert ds[1].decoded(ds) == [0.0, "zero", 0.0]
        assert ds[2].decoded(ds) == [0.0, "zero", None]

    def test_sparse_dump_roundtrip(self, breast_cancer):
        text = arff.dumps(breast_cancer, sparse=True)
        assert "{" in text.splitlines()[-2]
        again = arff.loads(text, "Class")
        assert again.num_instances == 286
        assert again.num_missing() == breast_cancer.num_missing()
        for a, b in zip(again, breast_cancer):
            assert a.decoded(again) == b.decoded(breast_cancer)

    def test_sparse_dense_equivalence(self):
        ds = arff.loads(self.SPARSE)
        dense = arff.loads(arff.dumps(ds, sparse=False))
        sparse = arff.loads(arff.dumps(ds, sparse=True))
        for a, b in zip(dense, sparse):
            assert a.decoded(dense) == b.decoded(sparse)


# --------------------------------------------------------------------------
# property-based round trips
# --------------------------------------------------------------------------

_names = st.text(alphabet=st.characters(
    whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=8)


@st.composite
def datasets(draw):
    n_attrs = draw(st.integers(1, 4))
    attrs = []
    used = set()
    for i in range(n_attrs):
        name = f"a{i}_" + draw(_names)
        if name in used:
            name += str(i)
        used.add(name)
        if draw(st.booleans()):
            attrs.append(Attribute.numeric(name))
        else:
            n_vals = draw(st.integers(1, 4))
            attrs.append(Attribute.nominal(
                name, [f"v{j}" for j in range(n_vals)]))
    ds = Dataset("prop", attrs)
    for _ in range(draw(st.integers(0, 12))):
        row = []
        for attr in attrs:
            if draw(st.integers(0, 9)) == 0:
                row.append(None)
            elif attr.is_numeric:
                row.append(draw(st.floats(-1e6, 1e6,
                                          allow_nan=False)))
            else:
                row.append(draw(st.sampled_from(list(attr.values))))
        ds.add_row(row)
    return ds


@given(datasets())
@settings(max_examples=40, deadline=None)
def test_arff_roundtrip_property(ds):
    """dump → load preserves schema and every cell (NaN-aware)."""
    again = arff.loads(arff.dumps(ds))
    assert again.num_attributes == ds.num_attributes
    assert again.num_instances == ds.num_instances
    for mine, theirs in zip(ds.attributes, again.attributes):
        assert mine.name == theirs.name
        assert mine.kind == theirs.kind
    for a, b in zip(ds, again):
        for x, y in zip(a.values, b.values):
            if math.isnan(x):
                assert math.isnan(y)
            else:
                assert x == pytest.approx(y, rel=1e-12)


# -- the dense-row fast path (quote-free @data lines) ------------------------

@given(st.text(alphabet=st.characters(blacklist_characters="'\"",
                                      blacklist_categories=("Cs",)),
               max_size=40))
@settings(max_examples=200, deadline=None)
def test_plain_split_equals_quote_aware_split(line):
    """On any line without a quote character the ``str.split`` fast path
    yields exactly the fields the character-by-character splitter does."""
    assert arff._split_plain_line(line) == arff._split_csv_line(line, 1)


MIXED = """@relation mixed
@attribute outlook {sunny, overcast, 'light rain'}
@attribute temperature numeric
@attribute note string
@data
sunny, 85, first
'light rain', 70, "second, quoted"
overcast, ?, third
{0 overcast, 1 64}
sunny,, first
"""


class TestFastPathKeepsRowSemantics:
    def test_plain_quoted_and_sparse_rows_keep_document_order(self):
        ds = arff.loads(MIXED)
        assert [inst.decoded(ds) for inst in ds] == [
            ["sunny", 85.0, "first"],
            ["light rain", 70.0, "second, quoted"],
            ["overcast", None, "third"],
            ["overcast", 64.0, "first"],
            ["sunny", None, "first"],
        ]
        # string tables grow in row order, whichever path read the row
        assert ds.attribute("note").values == ("first", "second, quoted",
                                               "third")

    @pytest.mark.parametrize("bad_row, line_no", [
        ("sunny, 85, FALSE\nfoggy, 1, TRUE\nrainy, x, TRUE", 10),
        ("sunny, hot, FALSE\nfoggy, 1, TRUE", 9),
        ("sunny, hot, FALSE\nsunny, 1", 9),          # bad cell before arity
        ("sunny, hot, FALSE\n'sunny, 1, TRUE", 9),   # ... before a bad quote
        ("sunny, 85, FALSE\nsunny, 1", 10),
    ])
    def test_first_error_names_the_line_the_row_reader_named(self, bad_row,
                                                             line_no):
        header = DOC[:DOC.index("@data") + len("@data\n")]
        with pytest.raises(ArffParseError) as err:
            arff.loads(header + bad_row + "\n")
        assert err.value.line_no == line_no
