import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
)

from conftest import unit_rows

SIGNALLING_NAN32 = b"\x01\x00\x80\x7f"  # little-endian float32 sNaN


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


def test_normalize_rows_rejects_an_overflowing_row():
    # the squared norm passes the float64 range: dividing by the infinite
    # norm would return a zero row
    with pytest.raises(DataError, match="float64 range"):
        normalize_rows(np.array([[1.0, 0.0], [1e200, 1e200]]))


def test_normalize_rows_errors_name_the_rows():
    with pytest.raises(DataError, match=r"^text prototypes rows \[1\] have norm below"):
        normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]), "text prototypes")
    with pytest.raises(DataError, match="^text prototypes contains non-finite"):
        normalize_rows(np.array([[np.inf, 1.0]]), "text prototypes")
    with pytest.raises(DataError, match=r"^embeddings rows \[0\]"):
        normalize_rows(np.zeros((1, 2)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       source=st.sampled_from(["gaussian", "float32", "default-family",
                               "default-family-float32"]),
       take=st.integers(1, 400), scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_normalized_rows_gathered_are_the_rows_normalized_alone(seed, source, take, scale):
    # a row's norm reads only that row, so rows gathered from a pool
    # normalized once, or divided by the pool's row norms as the
    # benchmark's draws are, are bitwise the rows normalized on their own
    rng = np.random.default_rng(seed)
    if source.startswith("default-family"):
        x = ss.generate_synthetic(ss.SyntheticSpec(seed=seed % 997))[0].embeddings
    else:
        x = scale * rng.standard_normal((300, int(rng.integers(2, 80))))
    if source.endswith("float32"):  # as a stored dataset holds them
        x = x.astype(np.float32).astype(np.float64)
    small = np.linalg.norm(x, axis=1) < ss.data.MIN_ROW_NORM
    if small.any():  # a tiny Gaussian row has no direction: the pool is refused
        with pytest.raises(DataError, match=rf"rows \[{np.flatnonzero(small)[0]}.* norm below"):
            normalize_rows(x)
        x = x[~small]
    idx = rng.choice(x.shape[0], size=min(take, x.shape[0]), replace=False)
    alone = normalize_rows(x[idx]).tobytes()
    assert normalize_rows(x)[idx].tobytes() == alone
    norms = ss.data._checked_row_norms(x)
    assert ss.data._unit_rows_at(x, norms, idx).tobytes() == alone
    # a batch of draws gathered with one (B, M) index
    stacked = np.stack([idx, idx[::-1]])
    assert ss.data._unit_rows_at(x, norms, stacked)[1].tobytes() == (
        normalize_rows(x[idx[::-1]]).tobytes())


_LAYOUTS = {
    "C": lambda x: x,
    "F": np.asfortranarray,
    "row-strided": lambda x: np.repeat(x, 2, axis=0)[::2],
    "column-strided": lambda x: np.repeat(x, 2, axis=1)[:, ::2],
}


@pytest.mark.parametrize("layout", _LAYOUTS.values(), ids=_LAYOUTS.keys())
@pytest.mark.parametrize("d", [1, 64, 512])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, "past-budget"])
def test_row_norms_are_bitwise_linalg_norm(layout, d, n):
    # the chunked squares sum each row as np.linalg.norm does, in every
    # layout, at the chunk bounds and one row past a chunk
    n = ss.data._NORM_CHUNK // d + 1 if n == "past-budget" else n
    rng = np.random.default_rng(n * 1000 + d)
    x = layout(rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1)))
    norms = ss.data._row_norms(x, "x")
    assert norms.tobytes() == np.linalg.norm(x, axis=1).tobytes()
    assert normalize_rows(x).tobytes() == (x / np.linalg.norm(x, axis=1)[:, None]).tobytes()


@pytest.mark.parametrize("layout", _LAYOUTS.values(), ids=_LAYOUTS.keys())
def test_row_norms_refuse_the_rows_linalg_norm_finds_bad(layout):
    # rows past the float64 range or below MIN_ROW_NORM, in several
    # chunks, and more of them than the message names
    rng = np.random.default_rng(3)
    x = rng.standard_normal((700, 64))
    x[[3, 255, 256, 257, 400, 511, 512, 600, 699]] *= 1e160
    x[[10, 300]] = 0.0
    x = layout(x)
    with np.errstate(over="ignore"):
        ref = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero((ref < ss.data.MIN_ROW_NORM) | np.isinf(ref))
    assert bad.size == 11
    for check in (lambda: ss.data._row_norms(x, "x"), lambda: normalize_rows(x, "x"),
                  lambda: ss.data._checked_row_norms(x, "x")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(f"x rows {bad[:8].tolist()} ")):
                check()


_SNAN_ROWS = {
    "normalize_rows": normalize_rows,
    "from_indices": lambda x: SupportSet.from_indices(x, [0, 1], 2),
    "from_embeddings": UnlabeledSet.from_embeddings,
}


@pytest.mark.parametrize("build", _SNAN_ROWS.values(), ids=_SNAN_ROWS.keys())
def test_in_memory_signalling_nan_is_only_a_data_error(build):
    # the float64 cast raises the invalid flag; the DataError must be
    # the only signal, as it is for the same bytes read from a blob
    x = np.frombuffer(SIGNALLING_NAN32 * 4, "<f4").reshape(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite"):
            build(x)


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


def test_direct_support_of_zero_rows_is_refused():
    with pytest.raises(DataError, match="at least one sample"):
        SupportSet(embeddings=np.zeros((0, 3)), labels=np.zeros((0, 2)))


@pytest.mark.parametrize("build", [
    lambda e: SupportSet(embeddings=e, labels=np.eye(2)),
    lambda e: UnlabeledSet(embeddings=e),
], ids=["support", "unlabeled"])
@pytest.mark.parametrize("rows", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[3.0, 4.0], [0.0, 1.0]],
    [[0.0, 0.0], [0.0, 1.0]],
    [[1.0 + 1e-3, 0.0], [0.0, 1.0]],
], ids=["nan", "inf", "norm5", "zero", "norm_off"])
def test_direct_construction_rejects_bad_rows(build, rows):
    # the constructors hold the same finite, unit-norm contract as the
    # factories, so a bad row fails here and not rounds later in a fit
    with pytest.raises(DataError):
        build(np.array(rows))
    with pytest.raises(DataError):
        build(rows)


def test_drawn_support_is_the_pool_rows_normalized_without_a_second_check(rng):
    # a drawn support skips the constructor's tests, whose rows and
    # one-hot were checked where they were made; the constructor keeps
    # them, and an empty draw still fails
    pool = EvalSet(embeddings=rng.standard_normal((60, 5)) * 3.0,
                   labels=rng.integers(0, 4, 60), class_count=4)
    norms = ss.data._checked_row_norms(pool.embeddings)
    spec = ss.SamplingSpec(shots=2, unlabeled_multiplier=3, seed=5)
    split, = ss.experiment._draws(pool, norms, [spec])
    idx, _, _ = ss.split_indices(pool.labels, 4, spec)
    assert split.support.embeddings.tobytes() == normalize_rows(pool.embeddings)[idx].tobytes()
    assert np.array_equal(split.support.labels, np.eye(4)[pool.labels[idx]])
    assert not split.support.embeddings.flags.writeable
    assert not split.support.labels.flags.writeable
    with pytest.raises(DataError, match="unit-norm"):
        SupportSet(embeddings=pool.embeddings[idx], labels=split.support.labels)
    with pytest.raises(DataError, match="at least one sample"):
        SupportSet._of_unit_rows(np.zeros((0, 5)), np.zeros(0, dtype=np.int64), 4)


def test_direct_construction_accepts_unit_rows_within_tolerance():
    emb = np.array([[1.0 + 5e-5, 0.0], [0.0, 1.0]])
    assert SupportSet(embeddings=emb, labels=np.eye(2)).n == 2
    assert UnlabeledSet(embeddings=emb).count == 2
    # nested lists construct too, as float64 arrays
    sup = SupportSet(embeddings=emb.tolist(), labels=[[1, 0], [0, 1]])
    unl = UnlabeledSet(embeddings=emb.tolist())
    ev = EvalSet(embeddings=emb.tolist(), labels=[1, 0], class_count=2)
    for arr in (sup.embeddings, sup.labels, unl.embeddings, ev.embeddings):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
    assert sup.shot_counts.tolist() == [1, 1]
    assert ev.labels.tolist() == [1, 0]


@pytest.mark.parametrize("build", [
    lambda e: SupportSet(embeddings=e, labels=[[1.0, 0.0], [0.0, 1.0]]),
    lambda e: UnlabeledSet(embeddings=e),
    lambda e: EvalSet(embeddings=e, labels=[0, 1], class_count=2),
], ids=["support", "unlabeled", "eval"])
@pytest.mark.parametrize("rows", [
    [[1.0, 0.0], [0.0]],
    [["a", "b"], [0.0, 1.0]],
    [[1j, 0.0], [0.0, 1.0]],
], ids=["ragged", "text", "complex"])
def test_direct_construction_rejects_bad_lists(build, rows):
    with pytest.raises(DataError):
        build(rows)


@pytest.mark.parametrize("labels", [[0.0, 1.0], [[0], [1]], ["0", "1"], [0, [1]]],
                         ids=["float", "2d", "text", "ragged"])
def test_eval_set_rejects_bad_label_lists(labels):
    with pytest.raises(DataError):
        EvalSet(embeddings=np.eye(2), labels=labels, class_count=2)


_LABEL_ENTRY_POINTS = {
    "from_indices": lambda lab: SupportSet.from_indices(np.eye(2), lab, 2),
    "eval": lambda lab: EvalSet(embeddings=np.eye(2), labels=lab, class_count=2),
    "create": lambda lab: Dataset.create(embeddings=np.eye(2), labels=lab,
                                         prototypes=np.eye(2)),
}


@pytest.mark.parametrize("build", _LABEL_ENTRY_POINTS.values(),
                         ids=_LABEL_ENTRY_POINTS.keys())
@pytest.mark.parametrize("labels", [
    np.array([0.9, 1.7]), np.array([0.0, 1.0]), [0.9, 1.7], np.array([True, False]),
    np.array([0, 2]), np.array([-1, 0]), np.array([0, 1, 1]), np.array([[0, 1]]),
], ids=["fractional", "integral-float", "fractional-list", "bool",
        "too-big", "negative", "too-long", "2d"])
def test_class_label_entry_points_reject_bad_labels(build, labels):
    with pytest.raises(DataError):
        build(labels)


@pytest.mark.parametrize("build", _LABEL_ENTRY_POINTS.values(),
                         ids=_LABEL_ENTRY_POINTS.keys())
@pytest.mark.parametrize("labels", [[1, 0], np.array([1, 0], dtype=np.uint32)],
                         ids=["list", "uint32"])
def test_class_label_entry_points_accept_integers(build, labels):
    out = build(labels)
    got = out.labels.argmax(axis=1) if isinstance(out, SupportSet) else out.labels
    assert got.tolist() == [1, 0]


def test_unlabeled_empty_is_legal():
    unl = UnlabeledSet.empty(4)
    assert unl.count == 0
    assert unl.dim == 4


def test_eval_set_rejects_out_of_range_label():
    with pytest.raises(DataError):
        EvalSet(embeddings=np.eye(2), labels=np.array([0, 2]), class_count=2)


def _created(a):
    return Dataset.create(**{key: a[key] for key in (
        "embeddings", "labels", "prototypes", "unlabeled", "templates")})


def _load_saved(inputs, tmp_path):
    save_dataset(_created(inputs), tmp_path / "manifest.json")
    return load_dataset(tmp_path / "manifest.json")


# every constructor and builder that checks arrays, fed arrays of the
# dtype it keeps (float64 rows, int64 labels), which it could store
# without a copy
_FREEZING_BUILDS = {
    "support": lambda a, tmp: SupportSet(embeddings=a["embeddings"], labels=a["onehot"]),
    "unlabeled": lambda a, tmp: UnlabeledSet(embeddings=a["unlabeled"]),
    "eval": lambda a, tmp: EvalSet(embeddings=a["embeddings"], labels=a["labels"],
                                   class_count=2),
    "lambdas": lambda a, tmp: ss.LambdaPolicy.fixed(a["text_weights"], a["unl_weights"]),
    "from_indices": lambda a, tmp: SupportSet.from_indices(a["embeddings"], a["labels"], 2),
    "from_embeddings": lambda a, tmp: UnlabeledSet.from_embeddings(a["unlabeled"]),
    "empty": lambda a, tmp: UnlabeledSet.empty(2),
    "create": lambda a, tmp: _created(a),
    "load": _load_saved,
}


@pytest.mark.parametrize("build", _FREEZING_BUILDS.values(), ids=_FREEZING_BUILDS.keys())
def test_containers_freeze_their_arrays_not_the_callers(build, tmp_path):
    # what the object stores is read-only, and a write to the caller's
    # arrays after construction does not reach it
    inputs = {"embeddings": np.eye(2), "labels": np.array([0, 1]),
              "prototypes": np.eye(2), "unlabeled": np.eye(2),
              "templates": np.ones((2, 1, 2)), "onehot": np.eye(2),
              "text_weights": np.ones(2), "unl_weights": np.zeros(2)}
    out = build(inputs, tmp_path)
    stored = {k: v for k, v in vars(out).items() if isinstance(v, np.ndarray)}
    assert stored and not any(arr.flags.writeable for arr in stored.values())
    assert all(arr.flags.writeable for arr in inputs.values())
    before = {k: v.copy() for k, v in stored.items()}
    for arr in inputs.values():
        arr[0] = 7
    for key, arr in before.items():
        assert np.array_equal(getattr(out, key), arr), key


def _built_by(monkeypatch, module, name):
    """The results of every call of ``module.name`` while the test runs."""
    real, made = getattr(module, name), []

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(module, name, recording)
    return made


def test_builders_keep_the_arrays_they_built(monkeypatch, rng):
    # the no-copy side of the ownership rule: a builder's fresh arrays
    # are kept as they are, read-only, so no hot path adds a copy
    normalized = _built_by(monkeypatch, ss.data, "normalize_rows")
    sup = SupportSet.from_indices(unit_rows(rng, 5, 3), [0, 1, 1, 0, 1], 2)
    unl = UnlabeledSet.from_embeddings(unit_rows(rng, 4, 3))
    assert np.shares_memory(sup.embeddings, normalized[0])
    assert np.shares_memory(unl.embeddings, normalized[1])
    ds = _tiny_dataset(rng, n=40, d=3, c=2)
    pool = ds.pool()
    assert np.shares_memory(pool.embeddings, ds.embeddings)
    assert np.shares_memory(pool.labels, ds.labels)
    heads = _built_by(monkeypatch, ss.experiment, "_unit_rows_at")
    spec = ss.SamplingSpec(shots=2, unlabeled_multiplier=3, seed=5)
    split, drawn = ss.experiment._sample(pool, spec)
    support, unlabeled, remainder = ss.sample_support(pool, spec)
    assert len(heads) == 2
    for head, sup, unl in zip(heads, (split.support, support), (drawn, unlabeled)):
        assert np.shares_memory(sup.embeddings, head)
        assert np.shares_memory(unl.embeddings, head)
    assert remainder.count == 40 - 2 * 2 - 3 * 2
    for arr in (remainder.embeddings, remainder.labels):
        assert not arr.flags.owndata and not arr.flags.writeable


# ---------------------------------------------------------------- dataset invariant


def _tiny_dataset(rng, n=6, d=4, c=2):
    emb = unit_rows(rng, n, d)
    labels = rng.integers(0, c, size=n)
    protos = unit_rows(rng, c, d)
    return Dataset.create(embeddings=emb, labels=labels, prototypes=protos)


def _valid_fields():
    return {"embeddings": np.eye(2), "labels": np.array([0, 1]),
            "prototypes": np.array([[1.0, 0.0], [0.0, 2.0]]),
            "unlabeled": np.array([[0.6, 0.8]]), "tau": 0.05,
            "templates": np.ones((2, 1, 2))}


def _with(**changes):
    return {**_valid_fields(), **changes}


_BAD_DATASET_FIELDS = {
    "embedding-not-unit": _with(embeddings=np.array([[3.0, 4.0], [0.0, 1.0]])),
    "embedding-nan": _with(embeddings=np.array([[np.nan, 0.0], [0.0, 1.0]])),
    "embedding-1d": _with(embeddings=np.array([1.0, 0.0])),
    "label-too-big": _with(labels=np.array([0, 2])),
    "label-negative": _with(labels=np.array([-1, 0])),
    "label-float": _with(labels=np.array([0.0, 1.0])),
    "label-count": _with(labels=np.array([0, 1, 1])),
    "prototype-inf": _with(prototypes=np.array([[np.inf, 0.0], [0.0, 1.0]])),
    "prototype-width": _with(prototypes=np.eye(2, 3)),
    "unlabeled-not-unit": _with(unlabeled=np.array([[2.0, 0.0]])),
    "unlabeled-width": _with(unlabeled=np.array([[1.0, 0.0, 0.0]])),
    "templates-2d": _with(templates=np.ones((2, 2))),
    "templates-class-count": _with(templates=np.ones((3, 1, 2))),
    "templates-width": _with(templates=np.ones((2, 1, 3))),
    "templates-nan": _with(templates=np.full((2, 1, 2), np.nan)),
    "tau-zero": _with(tau=0.0),
    "tau-negative": _with(tau=-0.1),
    "tau-nan": _with(tau=float("nan")),
}


def test_dataset_constructor_accepts_valid_fields():
    ds = Dataset(**_valid_fields())
    assert (ds.n, ds.dim, ds.class_count, ds.unlabeled_count) == (2, 2, 2, 1)
    assert ds.labels.dtype == np.int64 and ds.tau == 0.05
    # prototypes and templates need not be unit-norm; lists and an empty
    # unlabeled pool construct too
    listed = Dataset(embeddings=[[1.0, 0.0]], labels=[1], prototypes=[[1.0, 2.0]] * 2,
                     unlabeled=np.zeros((0, 2)), warnings=["note"])
    assert listed.labels.tolist() == [1] and listed.warnings == ("note",)
    assert listed.templates is None and listed.tau is None


@pytest.mark.parametrize("fields", _BAD_DATASET_FIELDS.values(),
                         ids=_BAD_DATASET_FIELDS.keys())
def test_dataset_constructor_rejects_broken_invariant(fields):
    # a Dataset built directly holds the same contract as create and
    # load_dataset, which both construct through it
    with pytest.raises(ss.SemishotError):
        Dataset(**fields)


@pytest.mark.parametrize("build", [Dataset, Dataset.create], ids=["direct", "create"])
def test_dataset_owns_copies_of_the_callers_arrays(build):
    fields = _valid_fields()
    ds = build(**fields)
    before = {k: v.copy() for k, v in vars(ds).items() if isinstance(v, np.ndarray)}
    for key in ("embeddings", "labels", "prototypes", "unlabeled", "templates"):
        fields[key][0] = 7
    for key, arr in before.items():
        assert np.array_equal(getattr(ds, key), arr), key
    assert ds.labels.max() < ds.class_count


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


def test_load_peaks_under_1_7_times_the_widened_embeddings(tmp_path, peak_bytes):
    # the float32 bytes, their float64 widening and its finite mask; the
    # row norms square one chunk at a time, not a second n x d array
    ds = ss.synthetic_dataset(ss.SyntheticSpec(seed=0))
    save_dataset(ds, tmp_path / "manifest.json")
    assert (ds.n, ds.dim) == (1500, 64)
    peak = peak_bytes(lambda: load_dataset(tmp_path / "manifest.json"))
    assert peak <= 1.7 * ds.embeddings.nbytes


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


def test_load_prototypes_rejects_signalling_nan(tmp_path, rng):
    path = tmp_path / "p.json"
    save_prototypes(rng.standard_normal((2, 3)), path)
    blob = tmp_path / "p.f32"
    blob.write_bytes(SIGNALLING_NAN32 + blob.read_bytes()[4:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError):
            load_prototypes(path)


def test_dataset_create_allocates_the_embeddings_once(rng, peak_bytes):
    # the renormalized rows are handed to the dataset, not copied again
    emb = unit_rows(rng, 1500, 64)
    labels, protos = np.arange(1500) % 5, unit_rows(rng, 5, 64)
    peak = peak_bytes(
        lambda: Dataset.create(embeddings=emb, labels=labels, prototypes=protos))
    assert peak < 1.5 * emb.nbytes


def test_dataset_create_validates(rng):
    emb = unit_rows(rng, 4, 3)
    protos = unit_rows(rng, 2, 3)
    with pytest.raises(DataError):
        Dataset.create(embeddings=emb, labels=np.array([0, 1, 2, 0]),
                       prototypes=protos)  # label 2 out of range for C=2
    with pytest.raises(DataError):
        Dataset.create(embeddings=emb, labels=np.zeros(4, dtype=int),
                       prototypes=unit_rows(rng, 2, 5))  # dim mismatch
    with pytest.raises(DataError):  # unlabeled rows of another width
        Dataset.create(embeddings=emb, labels=np.zeros(4, dtype=int),
                       prototypes=protos, unlabeled=unit_rows(rng, 2, 5))


def test_error_types_are_value_errors():
    assert issubclass(FormatError, ValueError)
    assert issubclass(DataError, ValueError)
    assert issubclass(ss.ConfigError, ValueError)
    assert issubclass(ss.SamplingError, ValueError)
    assert issubclass(ss.GenerationError, RuntimeError)
    assert issubclass(ss.DegeneratePlanError, ArithmeticError)
    assert issubclass(ss.SolverError, RuntimeError)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_write_json_refuses_non_finite_numbers_before_writing(tmp_path, capsys, bad):
    # JSON has no NaN or Infinity token: the report is refused, naming the
    # file, and nothing is written, neither to the file nor to stdout
    path = tmp_path / "sub" / "report.json"
    with pytest.raises(DataError, match=f"cannot write {path} as JSON"):
        ss.data._write_json(path, {"ok": 1.0, "rows": [{"aca": bad}]})
    assert not path.parent.exists()
    with pytest.raises(DataError, match="cannot write stdout as JSON"):
        ss.data._write_json(None, {"aca": bad})
    assert capsys.readouterr().out == ""


_NESTED_JSON = """{
  "empty": {},
  "nested": [
    [],
    [
      {}
    ],
    [
      [
        1,
        2
      ],
      [
        3
      ]
    ]
  ],
  "none": [],
  "rows": [
    {
      "aca": 0.5,
      "error": ""
    },
    {
      "aca": null,
      "error": "x"
    }
  ]
}
"""


@pytest.mark.parametrize("payload, text", [
    ({}, "{}\n"),
    ({"rows": [{"aca": 0.5, "error": ""}, {"aca": None, "error": "x"}], "none": [],
      "nested": [[], [{}], [[1, 2], [3]]], "empty": {}}, _NESTED_JSON),
    ({"value": np.float64(-0.1), "text": "é€😀\n"},
     '{\n  "text": "\\u00e9\\u20ac\\ud83d\\ude00\\n",\n  "value": -0.1\n}\n'),
], ids=["empty", "nested", "non-ascii-and-float64"])
def test_write_json_pins_the_indented_bytes(capsys, payload, text):
    # 2-space indent, sorted keys, empty containers inline, ASCII escapes
    # and a trailing newline
    ss.data._write_json(None, payload)
    assert capsys.readouterr().out == text


# ---------------------------------------------------------------- blob fuzz


_FUZZ_RNG = np.random.default_rng(5)
_FUZZ_DATASET = Dataset.create(
    embeddings=unit_rows(_FUZZ_RNG, 6, 4), labels=np.array([0, 1, 2, 0, 1, 2]),
    prototypes=unit_rows(_FUZZ_RNG, 3, 4), unlabeled=unit_rows(_FUZZ_RNG, 2, 4),
    tau=0.05, templates=unit_rows(_FUZZ_RNG, 6, 4).reshape(3, 2, 4))
_BLOBS = ("embeddings.f32", "labels.u32", "prototypes.f32", "unlabeled.f32",
          "templates.f32")

_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.sampled_from(_BLOBS), st.integers(0, 120)),
    st.tuples(st.just("extend"), st.sampled_from(_BLOBS), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("overwrite"), st.sampled_from(_BLOBS), st.integers(0, 120),
              st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("field"), st.sampled_from("ndcmj"), st.integers(-2, 12)),
)


@settings(max_examples=200, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
@example(mutations=[("overwrite", "embeddings.f32", 4, SIGNALLING_NAN32)])
@example(mutations=[("overwrite", "prototypes.f32", 8, SIGNALLING_NAN32)])
@example(mutations=[("overwrite", "templates.f32", 0, SIGNALLING_NAN32)])
def test_mutated_dataset_files_load_or_fail_typed(mutations):
    # truncated, extended or overwritten blobs and perturbed shape fields
    # give a Dataset or a FormatError/DataError, never another exception
    # or a warning
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        save_dataset(_FUZZ_DATASET, path)
        manifest = json.loads(path.read_text())
        for kind, target, *arg in mutations:
            if kind == "field":
                manifest[target] = arg[0]
                continue
            blob = Path(tmp) / target
            raw = blob.read_bytes()
            if kind == "truncate":
                raw = raw[:arg[0]]
            elif kind == "extend":
                raw += arg[0]
            else:
                start = min(arg[0], len(raw))
                raw = raw[:start] + arg[1] + raw[start + len(arg[1]):]
            blob.write_bytes(raw)
        path.write_text(json.dumps(manifest))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = load_dataset(path)
            except (FormatError, DataError):
                return
    assert isinstance(out, Dataset)
