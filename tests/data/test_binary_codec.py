"""Binary columnar codec: hypothesis round-trip properties,
byte-determinism, and decoder fuzzing (truncated/corrupt frames must
raise clean DataErrors, never crash or over-read)."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Attribute, Dataset, arff, codec, dataio, synthetic
from repro.errors import DataError

# --------------------------------------------------------------------------
# dataset strategy: numeric/nominal/string columns, unicode, missing,
# weights, empty relations
# --------------------------------------------------------------------------

_text = st.text(min_size=0, max_size=12)
_names = st.text(alphabet=st.characters(
    whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=8)


@st.composite
def datasets(draw):
    n_attrs = draw(st.integers(1, 5))
    attrs = []
    for i in range(n_attrs):
        name = f"a{i}_" + draw(_names)
        kind = draw(st.sampled_from(["numeric", "nominal", "string"]))
        if kind == "numeric":
            attrs.append(Attribute.numeric(name))
        elif kind == "nominal":
            n_vals = draw(st.integers(1, 5))
            attrs.append(Attribute.nominal(
                name, [f"v{j}_" + draw(_names) for j in range(n_vals)]))
        else:
            attrs.append(Attribute.string(name))
    relation = draw(_text) or "rel"
    class_index = draw(st.one_of(
        st.none(), st.integers(0, n_attrs - 1)))
    ds = Dataset(relation, attrs, class_index=class_index)
    for _ in range(draw(st.integers(0, 10))):
        row = []
        for attr in attrs:
            if draw(st.integers(0, 7)) == 0:
                row.append(None)
            elif attr.is_numeric:
                row.append(draw(st.floats(-1e12, 1e12, allow_nan=False)))
            elif attr.is_nominal:
                row.append(draw(st.sampled_from(list(attr.values))))
            else:
                # unicode free text, open value table
                row.append(draw(_text) or "s")
        weight = draw(st.sampled_from([1.0, 1.0, 0.5, 2.0]))
        ds.add_row(row, weight=weight)
    return ds


def assert_equal_datasets(a: Dataset, b: Dataset) -> None:
    assert a.relation == b.relation
    assert a._class_index == b._class_index
    assert [x.name for x in a.attributes] == [x.name for x in b.attributes]
    assert [x.kind for x in a.attributes] == [x.kind for x in b.attributes]
    assert [x.values for x in a.attributes] == \
        [x.values for x in b.attributes]
    ma, mb = a.to_matrix(), b.to_matrix()
    assert ma.shape == mb.shape
    assert np.array_equal(ma, mb, equal_nan=True)
    assert np.array_equal(a.weights(), b.weights())


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(ds):
    """decode(encode(d)) == d for arbitrary datasets."""
    assert_equal_datasets(ds, codec.decode(codec.encode(ds)))


@given(datasets())
@settings(max_examples=40, deadline=None)
def test_parse_dataset_reads_a_view_as_it_reads_bytes(ds):
    """The sniffing parser decodes a mapped or attached frame in place:
    whatever buffer carries it, the dataset is the one ``bytes`` gives,
    and the parse memo keys all of them by the same content."""
    from repro import obs
    from repro.data import cache
    frame = codec.encode(ds)
    cache.reset_parse_cache()
    obs.reset_metrics()
    carriers = [frame, memoryview(frame), memoryview(bytearray(frame)),
                memoryview(bytearray(b"pad" + frame))[3:].toreadonly()]
    for doc in carriers:
        assert_equal_datasets(ds, dataio.parse_dataset(doc))
    if len(frame) >= cache.MIN_MEMO_BYTES:
        counter = obs.get_metrics().counter
        assert counter("ws.cache.parse.misses", kind="columnar").value == 1
        assert counter("ws.cache.parse.hits", kind="columnar").value == \
            len(carriers) - 1
        assert counter("ws.cache.parse.bytes_saved", kind="columnar"
                       ).value == (len(carriers) - 1) * len(frame)


@given(datasets())
@settings(max_examples=40, deadline=None)
def test_byte_deterministic(ds):
    """Equal datasets yield byte-identical frames (idempotent re-encode)."""
    frame = codec.encode(ds)
    assert codec.encode(ds) == frame
    assert codec.encode(codec.decode(frame)) == frame


@given(datasets())
@settings(max_examples=25, deadline=None)
def test_truncation_fuzz_property(ds):
    """Every strict prefix of a valid frame is rejected cleanly."""
    frame = codec.encode(ds)
    for cut in {0, 1, 3, 5, 9, len(frame) // 2, len(frame) - 1}:
        if cut >= len(frame):
            continue
        with pytest.raises(DataError):
            codec.decode(frame[:cut])
    with pytest.raises(DataError):
        codec.decode(frame + b"\x00")  # trailing junk is not silent


class TestRoundTripCorners:
    def test_empty_relation(self):
        ds = Dataset("empty", [Attribute.numeric("x")])
        assert_equal_datasets(ds, codec.decode(codec.encode(ds)))

    def test_unicode_everywhere(self):
        ds = Dataset("δεδομένα", [
            Attribute.nominal("β", ["ναι", "όχι"]),
            Attribute.string("σχόλιο")], class_index=0)
        ds.add_row(["ναι", "πρώτη γραμμή ✓"])
        ds.add_row([None, None], weight=0.25)
        assert_equal_datasets(ds, codec.decode(codec.encode(ds)))

    def test_all_missing_column(self):
        ds = Dataset("m", [Attribute.numeric("x"),
                           Attribute.nominal("y", ["a"])])
        ds.add_row([None, None])
        ds.add_row([None, None])
        assert_equal_datasets(ds, codec.decode(codec.encode(ds)))

    def test_wide_nominal_uses_u2(self):
        values = [f"v{i}" for i in range(300)]
        ds = Dataset("w", [Attribute.nominal("n", values)])
        ds.add_row(["v299"])
        frame = codec.encode(ds)
        header_len = struct.unpack_from("<I", frame, 6)[0]
        header = json.loads(frame[10:10 + header_len])
        assert header["columns"][0]["dtype"] == "u2"
        assert_equal_datasets(ds, codec.decode(frame))

    def test_nan_payload_bits_survive_as_missing(self):
        ds = Dataset("n", [Attribute.numeric("x")])
        ds.add_row([1.5])
        ds.add(type(ds[0])([float("nan")]))
        out = codec.decode(codec.encode(ds))
        assert math.isnan(out.to_matrix()[1, 0])

    def test_frame_cache_keyed_on_version(self):
        ds = synthetic.weather_nominal()
        frame = ds.to_frame()
        assert ds.to_frame() is frame  # memoised while unchanged
        ds[0].set_value(0, 1.0)
        assert ds.to_frame() is not frame

    def test_view_encodes_like_its_subset(self):
        ds = synthetic.weather_numeric()
        rows = [3, 1, 7]
        assert codec.encode(ds.view(rows)) == codec.encode(ds.subset(rows))

    def test_mmap_load(self, tmp_path):
        ds = synthetic.breast_cancer()
        path = tmp_path / "d.rcf"
        codec.dump_binary(ds, str(path))
        assert_equal_datasets(ds, codec.load_binary(str(path)))

    def test_mmap_load_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            codec.load_binary(str(tmp_path / "absent.rcf"))


class TestDecoderFuzz:
    """Corrupt frames must fail with DataError, never crash/over-read."""

    def frame(self):
        ds = synthetic.weather_nominal()
        ds[0].weight = 2.0
        return codec.encode(ds)

    @pytest.mark.parametrize("mutate", [
        lambda f: b"",
        lambda f: b"RC",
        lambda f: b"XXXX" + f[4:],                      # wrong magic
        lambda f: f[:4] + b"\x07" + f[5:],              # future version
        lambda f: f[:5] + b"\xff" + f[6:],              # unknown flags
        lambda f: f[:6] + struct.pack("<I", 2**31) + f[10:],  # huge header
        lambda f: f[:6] + struct.pack("<I", len(f)) + f[10:],  # header past end
        lambda f: f[:12] + b"\x00" + f[13:],            # broken JSON
        lambda f: f[:len(f) // 2],                       # truncated buffers
        lambda f: f + b"trailing",                       # over-long
    ])
    def test_structural_corruption(self, mutate):
        with pytest.raises(DataError):
            codec.decode(mutate(self.frame()))

    def test_header_json_must_be_object(self):
        body = json.dumps([1, 2]).encode()
        frame = struct.pack("<4sBBI", codec.MAGIC, codec.VERSION, 0,
                            len(body)) + body
        with pytest.raises(DataError):
            codec.decode(frame)

    def _manual_frame(self, header: dict, payload: bytes = b"",
                      flags: int = 0) -> bytes:
        body = json.dumps(header).encode()
        return struct.pack("<4sBBI", codec.MAGIC, codec.VERSION, flags,
                           len(body)) + body + payload

    def test_bad_header_fields(self):
        base = {"relation": "r", "n_rows": 0, "class_index": None,
                "columns": [{"name": "x", "kind": "numeric",
                             "dtype": "f8", "missing": False}]}
        for breakage in [
            {"n_rows": -1}, {"n_rows": "9"}, {"relation": 7},
            {"class_index": 1.5}, {"class_index": 4}, {"columns": []},
            {"columns": "x"}, {"columns": [7]},
            {"columns": [{"name": "x", "kind": "vector",
                          "dtype": "f8", "missing": False}]},
            {"columns": [{"name": "x", "kind": "numeric",
                          "dtype": "u8", "missing": False}]},
            {"columns": [{"name": "x", "kind": "nominal",
                          "dtype": "u1", "missing": False}]},
            {"columns": [{"name": "x", "kind": "numeric",
                          "dtype": "f8", "missing": "no"}]},
            {"columns": [{"name": "x", "kind": "numeric", "dtype": "f8",
                          "missing": False},
                         {"name": "x", "kind": "numeric", "dtype": "f8",
                          "missing": False}]},  # duplicate names
        ]:
            header = dict(base, **breakage)
            with pytest.raises(DataError):
                codec.decode(self._manual_frame(header))

    def test_out_of_table_nominal_index(self):
        header = {"relation": "r", "n_rows": 1, "class_index": None,
                  "columns": [{"name": "x", "kind": "nominal",
                               "values": ["a", "b"], "dtype": "u1",
                               "missing": False}]}
        with pytest.raises(DataError):
            codec.decode(self._manual_frame(header, payload=b"\x05"))

    def test_negative_weight_rejected(self):
        header = {"relation": "r", "n_rows": 1, "class_index": None,
                  "columns": [{"name": "x", "kind": "numeric",
                               "dtype": "f8", "missing": False}]}
        payload = struct.pack("<d", 1.0) + struct.pack("<d", -1.0)
        with pytest.raises(DataError):
            codec.decode(self._manual_frame(header, payload, flags=1))


class TestSniffingParse:
    def test_parse_dataset_accepts_all_encodings(self):
        ds = synthetic.weather_nominal()
        for doc in [arff.dumps(ds), arff.dumps(ds).encode("utf-8"),
                    codec.encode(ds), bytearray(codec.encode(ds)),
                    memoryview(codec.encode(ds))]:
            out = dataio.parse_dataset(doc)
            assert out.num_instances == ds.num_instances

    def test_parse_dataset_class_attribute(self):
        ds = synthetic.weather_nominal()
        out = dataio.parse_dataset(codec.encode(ds), "outlook")
        assert out.class_attribute.name == "outlook"

    def test_parse_dataset_rejects_binary_garbage(self):
        with pytest.raises(DataError):
            dataio.parse_dataset(b"\xff\xfe\x00garbage")

    def test_to_wire_picks_codec(self):
        ds = synthetic.weather_nominal()
        assert isinstance(dataio.to_wire(ds, binary=False), str)
        wire = dataio.to_wire(ds, binary=True)
        assert isinstance(wire, bytes) and codec.is_columnar(wire)
