import json

import numpy as np
import pytest

import semishot as ss
from semishot import (
    Dataset,
    DataError,
    EvalSet,
    FormatError,
    SupportSet,
    UnlabeledSet,
    load_dataset,
    load_prototypes,
    normalize_rows,
    save_dataset,
    save_prototypes,
    validate,
)

from conftest import unit_rows


# ---------------------------------------------------------------- rows


def test_normalize_rows_unit_output(rng):
    x = rng.standard_normal((7, 5)) * 3.0
    out = normalize_rows(x)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_normalize_rows_idempotent(rng):
    x = rng.standard_normal((10, 6))
    once = normalize_rows(x)
    twice = normalize_rows(once)
    assert np.allclose(once, twice, atol=1e-12)


def test_normalize_rows_rejects_zero_row():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DataError):
        normalize_rows(x)


def test_normalize_rows_rejects_nan():
    with pytest.raises(DataError):
        normalize_rows(np.array([[np.nan, 1.0]]))


# ---------------------------------------------------------------- sets


def test_support_from_indices_counts():
    emb = np.eye(3)
    sup = SupportSet.from_indices(emb, np.array([0, 0, 1]), 2)
    assert sup.n == 3
    assert sup.class_count == 2
    assert sup.shot_counts.tolist() == [2, 1]


def test_support_allows_unobserved_class():
    sup = SupportSet.from_indices(np.eye(2), np.array([0, 0]), 3)
    assert sup.shot_counts.tolist() == [2, 0, 0]


def test_support_rejects_bad_onehot():
    emb = np.eye(2)
    with pytest.raises(DataError):
        SupportSet(embeddings=emb, labels=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DataError):
        SupportSet(embeddings=emb, labels=np.array([[0.5, 0.5], [0.0, 1.0]]))
    with pytest.raises(DataError):
        SupportSet.from_indices(emb, np.array([0, 2]), 2)


def test_unlabeled_empty_is_legal():
    unl = UnlabeledSet.empty(4)
    assert unl.count == 0
    assert unl.dim == 4


def test_eval_set_rejects_out_of_range_label():
    with pytest.raises(DataError):
        EvalSet(embeddings=np.eye(2), labels=np.array([0, 2]), class_count=2)


# ---------------------------------------------------------------- validate


def _tiny_dataset(rng, n=6, d=4, c=2):
    emb = unit_rows(rng, n, d)
    labels = rng.integers(0, c, size=n)
    protos = unit_rows(rng, c, d)
    return Dataset.create(embeddings=emb, labels=labels, prototypes=protos)


def test_validate_clean_dataset(rng):
    report = validate(_tiny_dataset(rng))
    assert report.ok
    assert report.violations == ()


def test_validate_flags_norm_violation(rng):
    ds = _tiny_dataset(rng)
    emb = ds.embeddings.copy()
    emb[2] = emb[2] * 3.0
    bad = Dataset(embeddings=emb, labels=ds.labels, prototypes=ds.prototypes,
                  unlabeled=ds.unlabeled)
    report = validate(bad)
    assert not report.ok
    assert [v.index for v in report.by_check("embedding_norm")] == [2]


def test_validate_flags_label_out_of_range(rng):
    ds = _tiny_dataset(rng)
    labels = ds.labels.copy()
    labels[0] = ds.class_count  # index C is one past the valid range
    bad = Dataset(embeddings=ds.embeddings, labels=labels,
                  prototypes=ds.prototypes, unlabeled=ds.unlabeled)
    report = validate(bad)
    assert [v.index for v in report.by_check("label_range")] == [0]


# ---------------------------------------------------------------- files


def _write_raw_dataset(tmp_path, n=4, d=2, c=2, emb=None, manifest_extra=None):
    emb = np.asarray(emb if emb is not None else unit_rows(
        np.random.default_rng(0), n, d), dtype="<f4")
    labels = np.zeros(n, dtype="<u4")
    protos = np.asarray(unit_rows(np.random.default_rng(1), c, d), dtype="<f4")
    (tmp_path / "embeddings.f32").write_bytes(emb.tobytes())
    (tmp_path / "labels.u32").write_bytes(labels.tobytes())
    (tmp_path / "prototypes.f32").write_bytes(protos.tobytes())
    manifest = {"n": n, "d": d, "c": c, "dtype": "f32le",
                "embeddings": "embeddings.f32", "labels": "labels.u32",
                "prototypes": "prototypes.f32"}
    manifest.update(manifest_extra or {})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_load_minimal_manifest(tmp_path):
    # n=4, d=2: 32 bytes of embeddings, 16 of labels, 16 of prototypes
    ds = load_dataset(_write_raw_dataset(tmp_path))
    assert (ds.n, ds.dim, ds.class_count) == (4, 2, 2)
    assert ds.unlabeled_count == 0
    assert ds.warnings == ()


def test_load_rejects_short_blob(tmp_path):
    path = _write_raw_dataset(tmp_path)
    blob = tmp_path / "embeddings.f32"
    blob.write_bytes(blob.read_bytes()[:24])
    with pytest.raises(FormatError):
        load_dataset(path)


def test_load_rejects_nan_blob(tmp_path):
    emb = unit_rows(np.random.default_rng(0), 4, 2)
    emb[1, 0] = np.nan
    path = _write_raw_dataset(tmp_path, emb=emb)
    with pytest.raises(DataError):
        load_dataset(path)


def test_load_rejects_missing_manifest(tmp_path):
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "nope.json")


def test_load_rejects_unknown_dtype(tmp_path):
    path = _write_raw_dataset(tmp_path, manifest_extra={"dtype": "f64le"})
    with pytest.raises(FormatError):
        load_dataset(path)


def test_load_rejects_missing_keys(tmp_path):
    path = _write_raw_dataset(tmp_path)
    manifest = json.loads(path.read_text())
    del manifest["prototypes"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_dataset(path)


def test_load_renormalizes_and_warns_on_large_deviation(tmp_path):
    emb = unit_rows(np.random.default_rng(0), 4, 2)
    emb[0] = emb[0] * 1.5  # 50% off unit norm: renormalize and warn
    path = _write_raw_dataset(tmp_path, emb=emb)
    ds = load_dataset(path)
    assert len(ds.warnings) == 1
    assert "row 0" in ds.warnings[0]
    assert np.allclose(np.linalg.norm(ds.embeddings, axis=1), 1.0, atol=1e-6)


def test_load_keeps_near_unit_rows_verbatim(tmp_path):
    emb32 = unit_rows(np.random.default_rng(3), 4, 2).astype("<f4")
    path = _write_raw_dataset(tmp_path, emb=emb32)
    ds = load_dataset(path)
    # float32-exact unit rows survive the load untouched
    assert np.array_equal(ds.embeddings.astype("<f4"), emb32)


def test_round_trip_bit_exact(tmp_path, rng):
    emb = unit_rows(rng, 20, 8)
    labels = rng.integers(0, 3, size=20)
    protos = unit_rows(rng, 3, 8)
    unl = unit_rows(rng, 5, 8)
    templates = unit_rows(rng, 6, 8).reshape(3, 2, 8)
    ds = Dataset.create(embeddings=emb, labels=labels, prototypes=protos,
                        unlabeled=unl, tau=0.04, templates=templates)
    save_dataset(ds, tmp_path / "manifest.json")
    back = load_dataset(tmp_path / "manifest.json")
    for field in ("embeddings", "prototypes", "unlabeled", "templates"):
        a = getattr(ds, field).astype("<f4")
        b = getattr(back, field).astype("<f4")
        assert np.array_equal(a, b), field
    assert np.array_equal(ds.labels, back.labels)
    assert back.tau == 0.04

    save_dataset(back, tmp_path / "again" / "manifest.json")
    first = {p.name: p.read_bytes() for p in tmp_path.glob("*.f32")}
    second = {p.name: p.read_bytes() for p in (tmp_path / "again").glob("*.f32")}
    assert first == second


def test_two_saves_byte_identical(tmp_path, rng):
    ds = _tiny_dataset(rng)
    save_dataset(ds, tmp_path / "a" / "manifest.json")
    save_dataset(ds, tmp_path / "b" / "manifest.json")
    a_files = sorted((tmp_path / "a").iterdir())
    b_files = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in a_files] == [p.name for p in b_files]
    for pa, pb in zip(a_files, b_files):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_empty_unlabeled_round_trip(tmp_path, rng):
    ds = _tiny_dataset(rng)
    assert ds.unlabeled_count == 0
    save_dataset(ds, tmp_path / "manifest.json")
    back = load_dataset(tmp_path / "manifest.json")
    assert back.unlabeled_count == 0
    assert back.unlabeled.shape == (0, ds.dim)


def test_prototype_file_round_trip(tmp_path, rng):
    protos = rng.standard_normal((4, 6)) * 7.0  # learned rows, not unit
    save_prototypes(protos, tmp_path / "protos.json", extra={"version": "x"})
    back = load_prototypes(tmp_path / "protos.json")
    assert np.array_equal(back.astype("<f4"), protos.astype("<f4"))
    manifest = json.loads((tmp_path / "protos.json").read_text())
    assert manifest["version"] == "x"
    assert manifest["c"] == 4 and manifest["d"] == 6


@pytest.mark.parametrize("loader,field,value,loads", [
    ("dataset", "n", "abc", False),
    ("dataset", "n", None, False),
    ("dataset", "n", True, False),
    ("dataset", "n", 4.5, False),
    ("dataset", "n", [4], False),
    ("dataset", "n", 0, False),
    ("dataset", "n", 4.0, True),
    ("dataset", "n", 10**400, False),
    ("dataset", "d", 2.9, False),
    ("dataset", "d", 2.0, True),
    ("dataset", "c", "2", False),
    ("dataset", "c", 3, False),
    ("dataset", "m", 2.5, False),
    ("dataset", "m", -1, False),
    ("dataset", "m", None, False),
    ("dataset", "m", 0, True),
    ("dataset", "j", "x", False),
    ("dataset", "j", 1.5, False),
    ("dataset", "tau", "x", False),
    ("dataset", "tau", None, False),
    ("dataset", "tau", False, False),
    ("dataset", "tau", float("nan"), False),
    ("dataset", "tau", 0, False),
    ("dataset", "tau", 10**400, False),
    ("dataset", "tau", 1, True),
    ("dataset", "tau", 0.05, True),
    ("dataset", "embeddings", "../embeddings.f32", False),
    ("dataset", "labels", "/labels.u32", False),
    ("dataset", "prototypes", "sub/prototypes.f32", False),
    ("dataset", "prototypes", 7, False),
    ("dataset", "unlabeled", "..", False),
    ("dataset", "embeddings", "embeddings.f32", True),
    ("prototypes", "c", "abc", False),
    ("prototypes", "c", None, False),
    ("prototypes", "d", 6.5, False),
    ("prototypes", "d", 6.0, True),
    ("prototypes", "prototypes", "../p.f32", False),
])
def test_manifest_fields_load_or_fail_typed(tmp_path, rng, loader, field, value, loads):
    # every blob name also exists one directory up, so an escaping name
    # would load if it were followed
    data_dir = tmp_path / "ds"
    data_dir.mkdir()
    if loader == "dataset":
        path = _write_raw_dataset(data_dir)
        load = load_dataset
    else:
        path = data_dir / "p.json"
        save_prototypes(rng.standard_normal((4, 6)), path)
        load = load_prototypes
    for blob in data_dir.glob("*.*32"):
        (tmp_path / blob.name).write_bytes(blob.read_bytes())
    manifest = json.loads(path.read_text())
    manifest[field] = value
    path.write_text(json.dumps(manifest))
    if not loads:
        with pytest.raises((FormatError, DataError)):
            load(path)
        return
    out = load(path)
    if loader == "dataset":
        assert (out.n, out.dim, out.class_count) == (4, 2, 2)
        assert out.tau == (None if field != "tau" else float(value))
    else:
        assert out.shape == (4, 6)


def test_load_prototypes_rejects_bad_manifest(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"c": 2, "d": 2, "dtype": "f32le"}))
    with pytest.raises(FormatError):
        load_prototypes(path)


def test_dataset_create_validates(rng):
    emb = unit_rows(rng, 4, 3)
    protos = unit_rows(rng, 2, 3)
    with pytest.raises(DataError):
        Dataset.create(embeddings=emb, labels=np.array([0, 1, 2, 0]),
                       prototypes=protos)  # label 2 out of range for C=2
    with pytest.raises(DataError):
        Dataset.create(embeddings=emb, labels=np.zeros(4, dtype=int),
                       prototypes=unit_rows(rng, 2, 5))  # dim mismatch


def test_error_types_are_value_errors():
    assert issubclass(FormatError, ValueError)
    assert issubclass(DataError, ValueError)
    assert issubclass(ss.ConfigError, ValueError)
    assert issubclass(ss.SamplingError, ValueError)
    assert issubclass(ss.GenerationError, RuntimeError)
    assert issubclass(ss.DegeneratePlanError, ArithmeticError)
    assert issubclass(ss.SolverError, RuntimeError)
