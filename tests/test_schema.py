import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superpanel import schema as sm


def make_schema(attrs):
    return sm.Schema(attributes=tuple(attrs))


def minimal_schema():
    return make_schema([
        sm.AttributeSpec("s", "socio", "categorical", cardinality=2),
        sm.AttributeSpec("p", "preference", "categorical", cardinality=3),
    ])


def survey_shaped_schema():
    """46 attributes with the role partition 1 time / 1 geography /
    16 external / 14 socio / 14 preference, survey-scale cardinalities."""
    attrs = [
        sm.AttributeSpec("a01", "time", "categorical", cardinality=11),
        sm.AttributeSpec("a02", "geography", "categorical", cardinality=868),
    ]
    for i in range(3, 19):
        attrs.append(sm.AttributeSpec(f"a{i:02d}", "external", "categorical", cardinality=10))
    socio_cards = [8, 2, 11, 12, 10, 8, 4, 5, 5, 10, 6, 3, 4, 4]
    for i, card in zip(range(19, 33), socio_cards):
        attrs.append(sm.AttributeSpec(f"a{i:02d}", "socio", "categorical", cardinality=card))
    pref_cards = [2, 2, 4, 5, 5, 5, 4, 22, 27, 5, 5, 6, 5, 5]
    for i, card in zip(range(33, 47), pref_cards):
        attrs.append(sm.AttributeSpec(f"a{i:02d}", "preference", "categorical", cardinality=card))
    return make_schema(attrs)


class TestSchemaValidation:
    def test_survey_shaped_schema_partition(self, tmp_path):
        schema = survey_shaped_schema()
        path = tmp_path / "schema.json"
        sm.save_schema(schema, path)
        loaded = sm.load_schema(path)
        assert len(loaded.attributes) == 46
        assert len(loaded.preference_attributes) == 14
        assert len(loaded.conditional_attributes) == 32
        assert loaded.time_attribute.name == "a01"

    def test_minimal_schema_valid(self):
        schema = minimal_schema()
        assert len(schema.preference_attributes) == 1

    def test_only_preference_rejected(self):
        with pytest.raises(sm.SchemaError, match="no conditional attributes"):
            make_schema([sm.AttributeSpec("p", "preference", "categorical", cardinality=2)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(sm.SchemaError, match="duplicate"):
            make_schema([
                sm.AttributeSpec("x", "socio", "categorical", cardinality=2),
                sm.AttributeSpec("x", "preference", "categorical", cardinality=2),
            ])

    def test_two_time_attributes_rejected(self):
        with pytest.raises(sm.SchemaError):
            make_schema([
                sm.AttributeSpec("t1", "time", "categorical", cardinality=2),
                sm.AttributeSpec("t2", "time", "categorical", cardinality=2),
                sm.AttributeSpec("p", "preference", "categorical", cardinality=2),
            ])

    def test_bad_edges_rejected(self):
        with pytest.raises(sm.SchemaError, match="strictly increasing"):
            sm.AttributeSpec("x", "socio", "numerical", bin_edges=(0.0, 0.0, 1.0))

    def test_zero_cardinality_rejected(self):
        with pytest.raises(sm.SchemaError):
            sm.AttributeSpec("x", "socio", "categorical", cardinality=0)

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(sm.SchemaError, match="cannot parse"):
            sm.load_schema(path)

    @pytest.mark.parametrize("key", ["bucket_min_count", "bin_edge"])
    def test_unknown_attribute_key_rejected(self, key):
        data = minimal_schema().to_dict()
        data["attributes"][0][key] = 3
        with pytest.raises(sm.SchemaError, match=key):
            sm.schema_from_dict(data)

    def test_content_hash_stable(self):
        assert minimal_schema().content_hash() == minimal_schema().content_hash()


class TestIngest:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_drops_rows_with_missing_cells(self, tmp_path):
        path = self.write(tmp_path, "s,p\n0,1\n,2\n1,0\n")
        records, dropped = sm.ingest_csv(path, minimal_schema())
        assert len(records) == 2
        assert dropped == 1

    def test_header_order_insensitive(self, tmp_path):
        path = self.write(tmp_path, "p,s\n2,1\n")
        records, _ = sm.ingest_csv(path, minimal_schema())
        assert records[0].values == (1, 2)

    def test_header_missing_attribute(self, tmp_path):
        path = self.write(tmp_path, "s\n0\n")
        with pytest.raises(sm.IngestError, match="missing attributes"):
            sm.ingest_csv(path, minimal_schema())

    def test_zero_surviving_rows(self, tmp_path):
        path = self.write(tmp_path, "s,p\n,\n")
        with pytest.raises(sm.IngestError, match="no surviving rows"):
            sm.ingest_csv(path, minimal_schema())

    def test_out_of_range_category_dropped(self, tmp_path):
        path = self.write(tmp_path, "s,p\n0,9\n1,1\n")
        records, dropped = sm.ingest_csv(path, minimal_schema())
        assert len(records) == 1 and dropped == 1

    def test_label_map(self, tmp_path):
        schema = make_schema([
            sm.AttributeSpec("s", "socio", "categorical", cardinality=2, labels=("no", "yes")),
            sm.AttributeSpec("p", "preference", "categorical", cardinality=2),
        ])
        path = self.write(tmp_path, "s,p\nyes,0\nno,1\n")
        records, _ = sm.ingest_csv(path, schema)
        assert [r.values[0] for r in records] == [1, 0]

    def test_roundtrip_write_read(self, tmp_path):
        schema = minimal_schema()
        records = [sm.Record((0, 2)), sm.Record((1, 1))]
        path = tmp_path / "out.csv"
        sm.write_records_csv(path, records, schema)
        back, dropped = sm.ingest_csv(path, schema)
        assert back == records and dropped == 0

    def test_survey_scale_clean_file_preserves_count(self, tmp_path):
        """67,419 already-clean rows across 46 columns survive unchanged."""
        import csv as csv_mod

        from superpanel.seeding import derive_rng

        schema = survey_shaped_schema()
        rng = derive_rng(1, "scale")
        cards = [a.cardinality for a in schema.attributes]
        mat = np.stack([rng.integers(0, c, size=67419) for c in cards], axis=1)
        path = tmp_path / "survey.csv"
        with open(path, "w", newline="") as fh:
            w = csv_mod.writer(fh)
            w.writerow([a.name for a in schema.attributes])
            w.writerows(mat.tolist())
        records, dropped = sm.ingest_csv(path, schema)
        assert len(records) == 67419 and dropped == 0


class TestDiscretize:
    def test_decade_bins(self):
        edges = [0, 10, 20, 30, 40, 50, 60, 70]
        assert sm.discretize_array([25], edges).tolist() == [2]  # the [20, 30) bin

    def test_interior_edge_goes_right(self):
        assert sm.discretize_array([20], [0, 10, 20, 30]).tolist() == [2]

    def test_clamp_below(self):
        assert sm.discretize_array([-5], [0, 10, 20]).tolist() == [0]

    def test_clamp_above(self):
        assert sm.discretize_array([99], [0, 10, 20]).tolist() == [1]

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50))
    @settings(max_examples=50)
    def test_monotone(self, values):
        edges = [0.0, 5.0, 12.0, 30.0]
        values = sorted(values)
        bins = sm.discretize_array(values, edges).tolist()
        assert bins == sorted(bins)


class TestOneHot:
    def test_basic(self):
        ds = sm.encode([sm.Record((1, 0))], minimal_schema())
        assert ds.conditional.tolist() == [[0.0, 1.0]]
        assert ds.preference.tolist() == [[1.0, 0.0, 0.0]]

    def test_identity_case(self):
        schema = make_schema([
            sm.AttributeSpec("s", "socio", "categorical", cardinality=1),
            sm.AttributeSpec("p", "preference", "categorical", cardinality=1),
        ])
        assert sm.encode([sm.Record((0, 0))], schema).preference.tolist() == [[1.0]]

    def test_out_of_range(self):
        # a stray index must not set a bit in the neighbouring block
        with pytest.raises(ValueError, match="out of range"):
            sm.encode([sm.Record((0, 1)), sm.Record((2, 0))], minimal_schema())

    def test_negative_out_of_range(self):
        # a negative index must not wrap around to the end of the block
        with pytest.raises(ValueError, match="out of range"):
            sm.encode([sm.Record((0, -1))], minimal_schema())

    def test_encode_columns_onehot(self):
        """A column table encodes like the records it came from: one bit per
        categorical and one for the bin of a numerical (clamped); the layout
        gives every attribute one segment as wide as its category count."""
        schema = mixed_schema()
        cols = {"t": np.array([2, 0]), "income": np.array([-3.0, 25.0])}
        layout, width = sm.build_layout(schema, preference=False)
        assert [(b.name, b.start, b.width) for b in layout] == [("t", 0, 3), ("income", 3, 3)]
        assert width == 6
        assert sm.encode_columns(cols, layout, schema).tolist() == [
            [0.0, 0.0, 1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]]


def mixed_schema():
    return make_schema([
        sm.AttributeSpec("t", "time", "categorical", cardinality=3),
        sm.AttributeSpec("income", "socio", "numerical", bin_edges=(0.0, 10.0, 20.0, 40.0)),
        sm.AttributeSpec("p1", "preference", "categorical", cardinality=2),
        sm.AttributeSpec("dist", "preference", "numerical", bin_edges=(0.0, 5.0, 50.0)),
    ])


class TestEncodeDecode:
    def test_width_arithmetic(self):
        schema = make_schema([
            sm.AttributeSpec("a", "socio", "categorical", cardinality=2),
            sm.AttributeSpec("b", "preference", "categorical", cardinality=3),
        ])
        ds = sm.encode([sm.Record((1, 2))], schema)
        assert ds.dim_c == 2 and ds.dim_v == 3
        assert ds.dim_c + ds.dim_v == 5

    def test_onehot_blocks_sum_to_one(self):
        schema = mixed_schema()
        records = [sm.Record((0, 15.0, 1, 3.0)), sm.Record((2, 35.0, 0, 44.0))]
        ds = sm.encode(records, schema)
        for layout, mat in ((ds.cond_layout, ds.conditional), (ds.pref_layout, ds.preference)):
            for block in layout:
                seg = mat[:, block.start : block.start + block.width]
                assert np.allclose(seg.sum(axis=1), 1.0)
                assert set(np.unique(seg)) <= {0.0, 1.0}

    def test_categorical_roundtrip_exact(self):
        schema = minimal_schema()
        records = [sm.Record((0, 2)), sm.Record((1, 0))]
        ds = sm.encode(records, schema)
        for i, rec in enumerate(records):
            back = sm.decode(ds.conditional[i], ds.preference[i], ds)
            assert back == rec

    def test_numeric_roundtrip_bin_representative(self):
        schema = mixed_schema()
        ds = sm.encode([sm.Record((1, 15.0, 0, 3.0))], schema)
        back = sm.decode(ds.conditional[0], ds.preference[0], ds)
        assert back.values[1] == 15.0  # midpoint of [10, 20)
        assert back.values[3] == 2.5  # midpoint of [0, 5)

    def test_numeric_outside_edges_roundtrip_to_end_bins(self):
        schema = mixed_schema()
        ds = sm.encode([sm.Record((1, -3.0, 0, 60.0))], schema)
        assert ds.dim_c == 6 and ds.dim_v == 4  # every attribute one-hot
        back = sm.decode(ds.conditional[0], ds.preference[0], ds)
        assert back.values[1] == 5.0  # clamped to [0, 10)
        assert back.values[3] == 27.5  # clamped to [5, 50)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property_random_schemas(self, data):
        n_cond = data.draw(st.integers(1, 3))
        n_pref = data.draw(st.integers(1, 3))
        attrs = []
        for i in range(n_cond):
            card = data.draw(st.integers(1, 5))
            attrs.append(sm.AttributeSpec(f"c{i}", "socio", "categorical", cardinality=card))
        for i in range(n_pref):
            card = data.draw(st.integers(1, 5))
            attrs.append(sm.AttributeSpec(f"p{i}", "preference", "categorical", cardinality=card))
        schema = make_schema(attrs)
        values = tuple(
            data.draw(st.integers(0, a.cardinality - 1)) for a in schema.attributes
        )
        ds = sm.encode([sm.Record(values)], schema)
        assert sm.decode(ds.conditional[0], ds.preference[0], ds) == sm.Record(values)


class TestSplit:
    def test_80_20(self):
        idx_train, idx_val = sm.split_indices(100, 0.8, seed=7)
        assert len(idx_train) == 80 and len(idx_val) == 20

    def test_partition_exhaustive_disjoint(self):
        idx_train, idx_val = sm.split_indices(57, 0.8, seed=3)
        combined = sorted(list(idx_train) + list(idx_val))
        assert combined == list(range(57))

    def test_same_seed_identical(self):
        a = sm.split_indices(50, 0.5, seed=9)
        b = sm.split_indices(50, 0.5, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_degenerate_split_errors(self):
        with pytest.raises(ValueError, match="empty side"):
            sm.split_indices(1, 0.8, seed=0)
