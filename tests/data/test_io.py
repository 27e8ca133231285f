"""Tests for dataset/case serialization round-trips."""

import json

import numpy as np
import pytest

from repro.core.attribute import AttributeCombination
from repro.data.dataset import FineGrainedDataset
from repro.data.injection import LocalizationCase
from repro.data.io import (
    case_from_dict,
    case_to_dict,
    dataset_from_csv,
    dataset_to_csv,
    load_cases,
    load_cases_npz,
    save_cases,
    save_cases_npz,
    schema_from_dict,
    schema_to_dict,
)
from repro.data.schema import cdn_schema, paper_example_schema, schema_from_sizes
from tests.conftest import list_form_dict


@pytest.fixture
def labelled(example_schema):
    rng = np.random.default_rng(3)
    n = example_schema.n_leaves
    return FineGrainedDataset.full(
        example_schema,
        rng.uniform(1, 100, n),
        rng.uniform(1, 100, n),
        rng.random(n) < 0.3,
    )


class TestSchemaDict:
    def test_roundtrip(self, example_schema):
        assert schema_from_dict(schema_to_dict(example_schema)) == example_schema

    def test_order_preserved(self):
        schema = schema_from_dict({"z": ["1"], "a": ["2", "3"]})
        assert schema.names == ("z", "a")


class TestCsv:
    def test_roundtrip(self, labelled, example_schema, tmp_path):
        path = tmp_path / "leaf.csv"
        dataset_to_csv(labelled, path)
        rebuilt = dataset_from_csv(path, example_schema)
        assert np.array_equal(rebuilt.codes, labelled.codes)
        assert np.allclose(rebuilt.v, labelled.v)
        assert np.allclose(rebuilt.f, labelled.f)
        assert np.array_equal(rebuilt.labels, labelled.labels)

    def test_header_layout(self, labelled, tmp_path):
        path = tmp_path / "leaf.csv"
        dataset_to_csv(labelled, path)
        header = path.read_text().splitlines()[0]
        assert header == "A,B,C,v,f,label"

    def test_wrong_schema_rejected(self, labelled, tmp_path, tiny_schema):
        path = tmp_path / "leaf.csv"
        dataset_to_csv(labelled, path)
        with pytest.raises(ValueError):
            dataset_from_csv(path, tiny_schema)

    def test_empty_file_rejected(self, tmp_path, example_schema):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            dataset_from_csv(path, example_schema)

    def test_float_precision_preserved(self, example_schema, tmp_path):
        n = example_schema.n_leaves
        v = np.full(n, 1.0 / 3.0)
        ds = FineGrainedDataset.full(example_schema, v, v * 7.0)
        path = tmp_path / "precise.csv"
        dataset_to_csv(ds, path)
        rebuilt = dataset_from_csv(path, example_schema)
        assert np.array_equal(rebuilt.v, ds.v)  # exact, via repr()


class TestCaseBundles:
    def make_case(self, labelled):
        return LocalizationCase(
            case_id="case-1",
            dataset=labelled,
            true_raps=(AttributeCombination.parse("(a1, *, *)"),),
            metadata={"group": (1, 1), "seed": np.int64(7)},
        )

    def test_dict_roundtrip(self, labelled):
        case = self.make_case(labelled)
        rebuilt = case_from_dict(case_to_dict(case))
        assert rebuilt.case_id == case.case_id
        assert rebuilt.true_raps == case.true_raps
        assert np.allclose(rebuilt.dataset.v, case.dataset.v)
        assert np.array_equal(rebuilt.dataset.labels, case.dataset.labels)
        assert rebuilt.dataset.schema == case.dataset.schema

    def test_metadata_jsonified(self, labelled):
        data = case_to_dict(self.make_case(labelled))
        assert data["metadata"]["seed"] == 7
        assert data["metadata"]["group"] == [1, 1]

    def test_file_roundtrip(self, labelled, tmp_path):
        cases = [self.make_case(labelled)]
        path = tmp_path / "cases.json"
        save_cases(cases, path)
        loaded = load_cases(path)
        assert len(loaded) == 1
        assert loaded[0].true_raps == cases[0].true_raps

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_cases(path)

    def test_generated_cases_roundtrip(self, tmp_path):
        from repro.data.rapmd import RAPMDConfig, generate_rapmd
        from repro.data.schema import cdn_schema

        cases = generate_rapmd(cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=3, n_days=2, seed=1))
        path = tmp_path / "rapmd.json"
        save_cases(cases, path)
        loaded = load_cases(path)
        for original, copy in zip(cases, loaded):
            assert original.true_raps == copy.true_raps
            assert np.allclose(original.dataset.f, copy.dataset.f)


class TestPackedColumns:
    def one_row_case(self, sizes, v=(1.0,), f=(1.0,)):
        schema = schema_from_sizes(sizes)
        codes = np.array([[size - 1 for size in sizes]] * len(v))
        dataset = FineGrainedDataset(schema, codes, v, f, [True] * len(v))
        return LocalizationCase(case_id="packed", dataset=dataset, true_raps=())

    @pytest.mark.parametrize(
        "sizes, dtype",
        [
            ((256, 2), "|u1"),
            ((2, 257), "<u2"),
            ((65_536, 2), "<u2"),
            ((2, 65_537), "<u4"),
        ],
    )
    def test_codes_dtype_is_the_narrowest_for_the_schema(self, sizes, dtype):
        case = self.one_row_case(sizes)
        data = case_to_dict(case)
        assert data["codes"]["dtype"] == dtype
        assert np.array_equal(case_from_dict(data).dataset.codes, case.dataset.codes)

    def test_paper_schema_packs_codes_in_one_byte(self):
        data = case_to_dict(self.one_row_case(cdn_schema().sizes))  # 33x4x4x20
        assert data["codes"]["dtype"] == "|u1"
        assert {data[c]["dtype"] for c in ("v", "f")} == {"<f8"}
        assert data["labels"]["dtype"] == "|u1"

    def test_every_float_bit_survives(self):
        # NaN payloads and signs cannot travel as JSON numbers; packed bytes can.
        odd = np.array(
            [0x7FF0000000000001, 0xFFF8000000000000, 0x8000000000000000, 1],
            dtype=np.uint64,
        ).view(np.float64)
        case = self.one_row_case((3, 2), v=odd, f=odd[::-1].copy())
        rebuilt = case_from_dict(json.loads(json.dumps(case_to_dict(case)))).dataset
        assert rebuilt.v.tobytes() == case.dataset.v.tobytes()
        assert rebuilt.f.tobytes() == case.dataset.f.tobytes()
        # The decoded columns own their memory, not the request's bytes.
        assert rebuilt.v.flags.writeable and rebuilt.labels.flags.writeable

    def test_list_form_bundle_still_loads_bit_identically(self, tmp_path):
        from repro.data.rapmd import RAPMDConfig, generate_rapmd

        cases = generate_rapmd(
            cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=2, n_days=2, seed=4)
        )
        path = tmp_path / "list-form.json"
        path.write_text(
            json.dumps(
                {"format": "repro.cases.v1", "cases": [list_form_dict(c) for c in cases]}
            )
        )
        for original, copy in zip(cases, load_cases(path)):
            assert copy.true_raps == original.true_raps
            for column in ("codes", "v", "f", "labels"):
                got = getattr(copy.dataset, column)
                want = getattr(original.dataset, column)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestNpzBundles:
    def make_cases(self, labelled):
        return [
            LocalizationCase(
                case_id=f"case-{i}",
                dataset=labelled,
                true_raps=(AttributeCombination.parse("(a1, *, *)"),),
                metadata={"group": (1, i), "seed": np.int64(7 + i)},
            )
            for i in range(2)
        ]

    def test_roundtrip_is_bit_exact(self, labelled, tmp_path):
        cases = self.make_cases(labelled)
        path = tmp_path / "cases.npz"
        save_cases_npz(cases, path)
        loaded = load_cases_npz(path)
        assert len(loaded) == len(cases)
        for original, copy in zip(cases, loaded):
            assert copy.case_id == original.case_id
            assert copy.true_raps == original.true_raps
            assert copy.dataset.schema == original.dataset.schema
            for field in ("codes", "v", "f", "labels"):
                got = getattr(copy.dataset, field)
                want = getattr(original.dataset, field)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_metadata_survives_header(self, labelled, tmp_path):
        path = tmp_path / "cases.npz"
        save_cases_npz(self.make_cases(labelled), path)
        loaded = load_cases_npz(path)
        assert loaded[0].metadata == {"group": [1, 0], "seed": 7}
        assert loaded[1].metadata["seed"] == 8

    def test_save_load_cases_dispatch_on_suffix(self, labelled, tmp_path):
        cases = self.make_cases(labelled)
        path = tmp_path / "cases.npz"
        save_cases(cases, path)
        # It really is an npz archive (zip magic), not JSON.
        assert path.read_bytes()[:2] == b"PK"
        loaded = load_cases(path)
        assert [case.case_id for case in loaded] == ["case-0", "case-1"]

    def test_non_bundle_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, payload=np.arange(3))
        with pytest.raises(ValueError):
            load_cases_npz(path)

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "tagged.npz"
        header = np.frombuffer(b'{"format": "other", "cases": []}', dtype=np.uint8)
        np.savez(path, header=header)
        with pytest.raises(ValueError):
            load_cases_npz(path)

    def test_float_bits_not_rounded(self, example_schema, tmp_path):
        # Values chosen to lose bits under any repr/parse shortcut.
        n = example_schema.n_leaves
        rng = np.random.default_rng(11)
        v = np.nextafter(rng.uniform(0, 1, n), 2.0)
        ds = FineGrainedDataset.full(example_schema, v, v * np.pi)
        case = LocalizationCase(
            case_id="precise", dataset=ds, true_raps=(), metadata={}
        )
        path = tmp_path / "precise.npz"
        save_cases_npz([case], path)
        loaded = load_cases_npz(path)[0]
        assert loaded.dataset.v.tobytes() == ds.v.tobytes()
        assert loaded.dataset.f.tobytes() == ds.f.tobytes()
