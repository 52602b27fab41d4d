"""Core data types and binary dataset serialization.

Every container checks its invariant when it is constructed (shapes,
label range and, where it holds embedding rows to score, finite
unit-norm rows), so an instance that exists is valid however it was
built.

On-disk layout is a JSON manifest next to raw little-endian row-major
blobs, one per manifest key that names a file. The dtype rule: labels
are uint32, every other blob is float32, widened to float64 on load,
where NaN or Inf is an error. Files keep the compact 32-bit layout
common for embedding dumps.

Embedding rows are expected to be unit-norm. The loader keeps rows that
are already unit-norm to float32 precision byte-stable (so that a
save/load/save cycle is bit-exact) and renormalizes anything further
out, surfacing large deviations as warnings on the returned dataset.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError
from .zeroshot import check_array, check_count, check_tau

EMBEDDING_DTYPE = np.dtype("<f4")
LABEL_DTYPE = np.dtype("<u4")

# Rows below this norm cannot be normalized meaningfully.
MIN_ROW_NORM = 1e-8
# Rows whose norm deviates at most this much from 1 are kept verbatim at
# load time; renormalizing them would perturb stored float32 values for
# no numeric benefit and break byte-exact round trips.
NORM_KEEP_TOL = 1e-6
# Deviations beyond this are renormalized AND reported as a warning.
NORM_WARN_TOL = 0.1
# Bound on row norms that the in-memory containers accept.
NORM_VALID_TOL = 1e-4
# Manifest keys that name a dataset blob.
_DATASET_BLOBS = ("embeddings", "labels", "prototypes", "unlabeled", "templates")


def _class_labels(labels, n: int, class_count: int, what: str) -> np.ndarray:
    """``labels`` as a length-``n`` vector of class indices in
    [0, ``class_count``), with no copy for an integer array. A
    non-integer dtype is a DataError: casting would truncate 1.7 to 1."""
    lab = check_array(labels, what, (n,), dtype=None)
    if lab.dtype.kind not in "iu":
        raise DataError(f"{what} must be integers, got dtype {lab.dtype}")
    if lab.size and (lab.min() < 0 or lab.max() >= class_count):
        raise DataError(f"{what} out of range for {class_count} classes")
    return lab


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``: the flag goes on the view, so an
    input array the caller still owns stays writable, and no data is
    copied when ``arr`` is already contiguous."""
    out = np.ascontiguousarray(arr).view()
    out.setflags(write=False)
    return out


class _Handed(np.ndarray):
    """Marks an array that ``Dataset.create`` or ``load_dataset`` has just
    built and hands to ``Dataset``: no caller holds it, so the dataset
    keeps it instead of a copy."""


def _owned(given, arr: np.ndarray) -> np.ndarray:
    """``arr``, the checked form of the field value ``given``, read-only
    where no write to the caller's array can reach: a copy, or ``arr``
    itself when ``given`` was handed over."""
    out = arr.view() if isinstance(given, _Handed) else np.array(arr)
    out.setflags(write=False)
    return out


def _row_norms(arr: np.ndarray, what: str) -> np.ndarray:
    """The Euclidean norms of the rows of ``arr``. A row with norm below
    ``MIN_ROW_NORM`` (a zero vector has no direction to keep) or past the
    float64 range is a DataError; the overflow is silenced so that this
    check is the only signal."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(arr, axis=1)
    bad = np.flatnonzero((norms < MIN_ROW_NORM) | np.isinf(norms))
    if bad.size:
        raise DataError(f"{what} rows {bad[:8].tolist()} have norm below "
                        f"{MIN_ROW_NORM:g} or beyond the float64 range")
    return norms


def normalize_rows(x: np.ndarray, what: str = "embeddings") -> np.ndarray:
    """Scale every row of ``x`` to unit Euclidean norm, in float64.

    Raises DataError, naming the rows ``what``, on non-finite entries or
    on rows whose norm is below ``MIN_ROW_NORM`` or overflows.
    """
    arr = check_array(x, what, (None, None), finite=True)
    return arr / _row_norms(arr, what)[:, None]


def _checked_row_norms(x: np.ndarray, what: str = "embeddings") -> np.ndarray:
    """The row norms that ``normalize_rows(x, what)`` divides by, under
    its checks."""
    return _row_norms(check_array(x, what, (None, None), finite=True), what)


def _unit_rows_at(x: np.ndarray, norms: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows ``idx`` (an index array of any shape) of ``x`` divided by
    their ``norms``, in a new array: bitwise ``normalize_rows(x)[idx]``
    without a normalized copy of ``x``, and so bitwise
    ``normalize_rows(x[idx])`` too, since a row's norm reads only that
    row."""
    rows = x[idx]
    rows /= norms[idx][..., None]
    return rows


def _unit_rows(x, what: str, dim: int | None = None) -> np.ndarray:
    """``x`` as a 2-d float64 matrix of ``dim`` columns (None for any),
    with no copy when it already is one, whose rows are finite with norm
    within ``NORM_VALID_TOL`` of 1. A NaN or Inf entry fails the norm
    test too; einsum makes no full-size temporary."""
    arr = check_array(x, what, (None, dim))
    norms = np.sqrt(np.einsum("ij,ij->i", arr, arr))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_VALID_TOL))
    if bad.size:
        raise DataError(f"{what} rows {bad[:8].tolist()} are not finite and "
                        f"unit-norm within {NORM_VALID_TOL:g}")
    return arr


@dataclass(frozen=True, eq=False)
class SupportSet:
    """Labeled adaptation set: embeddings with one-hot labels."""

    embeddings: np.ndarray  # (N, D), unit rows
    labels: np.ndarray  # (N, C), one-hot

    def __post_init__(self):
        object.__setattr__(self, "embeddings",
                           _unit_rows(self.embeddings, "support embeddings"))
        object.__setattr__(self, "labels", check_array(
            self.labels, "support labels", (self.embeddings.shape[0], None)))
        if self.embeddings.shape[0] < 1:
            raise DataError("support set must contain at least one sample")
        lab = self.labels
        if not np.all((lab == 0.0) | (lab == 1.0)):
            raise DataError("support labels must be one-hot (entries in {0,1})")
        if not np.all(lab.sum(axis=1) == 1.0):
            raise DataError("every support label row must sum to exactly 1")

    @classmethod
    def from_indices(
        cls, embeddings: np.ndarray, class_indices: np.ndarray, class_count: int
    ) -> "SupportSet":
        """Build a support set from integer class labels."""
        class_count = check_count(class_count, "class_count", 1)
        return cls._of_unit_rows(normalize_rows(embeddings), class_indices, class_count)

    @classmethod
    def _of_unit_rows(cls, unit_rows: np.ndarray, class_indices: np.ndarray,
                      class_count: int) -> "SupportSet":
        """``from_indices`` of rows that already are unit rows, such as
        those ``_unit_rows_at`` gathers, kept as they are."""
        emb = _readonly(unit_rows)
        idx = _class_labels(class_indices, emb.shape[0], class_count, "class_indices")
        onehot = np.zeros((emb.shape[0], class_count), dtype=np.float64)
        onehot[np.arange(emb.shape[0]), idx] = 1.0
        return cls(embeddings=emb, labels=_readonly(onehot))

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def class_count(self) -> int:
        return self.labels.shape[1]

    @property
    def shot_counts(self) -> np.ndarray:
        """Per-class sample counts K_c; zero entries mark unobserved classes."""
        return self.labels.sum(axis=0).astype(np.int64)


@dataclass(frozen=True, eq=False)
class UnlabeledSet:
    """Extra embeddings without labels. May be empty."""

    embeddings: np.ndarray  # (M, D)

    def __post_init__(self):
        object.__setattr__(self, "embeddings",
                           _unit_rows(self.embeddings, "unlabeled embeddings"))

    @classmethod
    def from_embeddings(cls, embeddings: np.ndarray) -> "UnlabeledSet":
        return cls(embeddings=_readonly(normalize_rows(embeddings)))

    @classmethod
    def empty(cls, dim: int) -> "UnlabeledSet":
        return cls(embeddings=_readonly(np.zeros((0, check_count(dim, "dim")))))

    @property
    def count(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True, eq=False)
class EvalSet:
    """Held-out pool: embeddings with integer class labels."""

    embeddings: np.ndarray  # (n, D)
    labels: np.ndarray  # (n,), in [0, class_count)
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "embeddings",
                           check_array(self.embeddings, "eval embeddings", (None, None)))
        object.__setattr__(self, "class_count",
                           check_count(self.class_count, "class_count", 1))
        object.__setattr__(self, "labels", _class_labels(
            self.labels, self.embeddings.shape[0], self.class_count, "eval labels"))

    @property
    def count(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True, eq=False)
class Dataset:
    """A labeled embedding pool plus pre-ensembled text prototypes.

    ``unlabeled`` holds an optional extra pool of unlabeled embeddings
    (may have zero rows). ``tau`` is an optional softmax temperature
    carried by the manifest. ``warnings`` collects load-time notes such
    as rows that needed aggressive renormalization.

    Construction checks the whole invariant and raises a typed error on
    the first violation: finite unit-norm embedding and unlabeled rows,
    finite (C, D) prototypes, integer labels in [0, C), finite (C, J, D)
    templates and a positive finite tau. Every array is stored as a
    read-only copy, so later writes to the caller's arrays cannot break it;
    ``create`` and ``load_dataset`` hand over the arrays they build, which
    are kept without a second copy.
    """

    embeddings: np.ndarray  # (N, D), unit rows
    labels: np.ndarray  # (N,), int64 in [0, C)
    prototypes: np.ndarray  # (C, D)
    unlabeled: np.ndarray  # (M, D), possibly M == 0, unit rows
    tau: float | None = None
    templates: np.ndarray | None = None  # (C, J, D) per-template text embeddings
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        emb = _owned(self.embeddings, _unit_rows(self.embeddings, "embeddings"))
        n, d = emb.shape
        protos = _owned(self.prototypes, check_array(
            self.prototypes, "prototypes", (None, d), finite=True))
        c = protos.shape[0]
        labels = _class_labels(self.labels, n, c, "labels")
        labels = _owned(self.labels, labels.astype(np.int64, copy=False))
        unl = _owned(self.unlabeled, _unit_rows(self.unlabeled, "unlabeled embeddings", d))
        templates = self.templates
        if templates is not None:
            templates = _owned(templates, check_array(
                templates, "templates", (c, None, d), finite=True))
        for name, value in (("embeddings", emb), ("labels", labels), ("prototypes", protos),
                            ("unlabeled", unl), ("templates", templates),
                            ("tau", None if self.tau is None else check_tau(self.tau)),
                            ("warnings", tuple(self.warnings))):
            object.__setattr__(self, name, value)

    @classmethod
    def create(
        cls,
        embeddings: np.ndarray,
        labels: np.ndarray,
        prototypes: np.ndarray,
        unlabeled: np.ndarray | None = None,
        tau: float | None = None,
        templates: np.ndarray | None = None,
        warnings: tuple[str, ...] = (),
    ) -> "Dataset":
        """Renormalize the embedding and unlabeled rows to unit norm, then
        construct (and so check) the dataset, which keeps the renormalized
        rows without a copy; no unlabeled rows when ``unlabeled`` is None."""
        emb = normalize_rows(embeddings)
        unl = (np.zeros((0, emb.shape[1])) if unlabeled is None
               else normalize_rows(unlabeled))
        return cls(embeddings=emb.view(_Handed), labels=labels, prototypes=prototypes,
                   unlabeled=unl.view(_Handed), tau=tau, templates=templates,
                   warnings=warnings)

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def class_count(self) -> int:
        return self.prototypes.shape[0]

    @property
    def unlabeled_count(self) -> int:
        return self.unlabeled.shape[0]

    def pool(self) -> EvalSet:
        """View the labeled part as an evaluation pool."""
        return EvalSet(
            embeddings=self.embeddings, labels=self.labels, class_count=self.class_count
        )


_ABSENT = object()


def _read_manifest(manifest_path: Path, what: str, shape_keys: tuple[str, ...],
                   required: tuple[str, ...]) -> tuple[dict, tuple[int, ...]]:
    """Parse a JSON manifest object that declares positive integer
    ``shape_keys``, the f32le dtype and the ``required`` blob names."""
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise FormatError(f"{what} not found: {manifest_path}")
    except OSError as exc:
        raise FormatError(f"cannot read {what} {manifest_path}: {exc}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}")
    if not isinstance(manifest, dict):
        raise FormatError(f"{what} must be a JSON object")
    missing = [k for k in (*shape_keys, "dtype", *required) if k not in manifest]
    if missing:
        raise FormatError(f"{what} missing keys: {missing}")
    if manifest["dtype"] != "f32le":
        raise FormatError(f"unsupported dtype {manifest['dtype']!r}; expected 'f32le'")
    shape = tuple(_field(manifest, k, int) for k in shape_keys)
    if min(shape) < 1:
        raise FormatError(f"{what} shape fields must be positive, got " + " ".join(
            f"{k}={v}" for k, v in zip(shape_keys, shape)))
    return manifest, shape


def _field(manifest: dict, key: str, kind: type, default=_ABSENT):
    """One typed manifest field: an integral number for shapes (kind
    int), a number for tau (kind float), or a blob name (kind str) that
    must be a plain file name in the manifest's directory."""
    if key not in manifest:
        if default is _ABSENT:
            raise FormatError(f"manifest missing key {key!r}")
        return default
    value = manifest[key]
    if kind is str:
        if not isinstance(value, str) or value in ("", "..") or Path(value).name != value:
            raise FormatError(f"manifest field {key!r} must be a plain file name, "
                              f"got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"manifest field {key!r} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise FormatError(f"manifest field {key!r} must be an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise FormatError(f"manifest field {key!r} is out of range, got {value!r}")


def _blob_dtype(key: str) -> np.dtype:
    return LABEL_DTYPE if key == "labels" else EMBEDDING_DTYPE


def _read_blob(manifest_path: Path, manifest: dict, key: str,
               shape: tuple[int, ...]) -> np.ndarray:
    """The blob that manifest field ``key`` names, in ``shape``: labels as
    a read-only view of the file's bytes, anything else widened to
    float64, where NaN or Inf is a DataError. A signalling NaN sets the
    invalid flag in the cast, which is silenced so that this check is the
    only signal."""
    path = manifest_path.parent / _field(manifest, key, str)
    if not path.is_file():
        raise FormatError(f"{key} blob missing: {path}")
    raw = path.read_bytes()
    dtype, count = _blob_dtype(key), math.prod(shape)
    expected = count * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{key} blob {path.name}: expected {expected} bytes for {count} "
            f"values, found {len(raw)}"
        )
    values = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if key == "labels":
        return values
    with np.errstate(invalid="ignore"):
        arr = values.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{key} blob contains NaN or Inf")
    return arr


def _ingest_unit_rows(arr: np.ndarray, what: str, warnings: list[str]) -> np.ndarray:
    """Apply the load-time normalization policy to widened rows, in place."""
    norms = _row_norms(arr, what)
    dev = np.abs(norms - 1.0)
    heavy = np.flatnonzero(dev > NORM_WARN_TOL)
    if heavy.size:
        warnings.append(
            f"{what}: {heavy.size} rows deviated from unit norm by more than "
            f"{NORM_WARN_TOL:g} before renormalization (first: row {int(heavy[0])}, "
            f"norm {norms[heavy[0]]:.4g})"
        )
    fix = dev > NORM_KEEP_TOL
    if np.any(fix):
        arr[fix] = arr[fix] / norms[fix, None]
    return arr


def _dataset_files(manifest_path: Path) -> set[Path]:
    """The resolved paths of a dataset manifest that ``load_dataset`` has
    read and of every blob it names."""
    manifest = json.loads(manifest_path.read_text())
    return {manifest_path.resolve(), *((manifest_path.parent / manifest[key]).resolve()
                                       for key in _DATASET_BLOBS if key in manifest)}


def _prototype_blob(manifest_path: Path) -> Path:
    """The blob that ``save_prototypes`` writes next to ``manifest_path``."""
    return manifest_path.with_name(manifest_path.stem + ".f32")


def _write_blobs(manifest_path: Path, manifest: dict, blobs: dict) -> None:
    """Write each array of ``blobs`` to the file its manifest key names,
    in that key's blob dtype, then the manifest itself."""
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    for key, values in blobs.items():
        np.asarray(values, dtype=_blob_dtype(key)).tofile(
            manifest_path.parent / manifest[key])
    _write_json(manifest_path, manifest)


def _write_json(path: Path | None, payload: dict) -> None:
    """``payload`` as indented JSON with sorted keys, at ``path`` or on
    stdout when it is None."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a dataset from its JSON manifest.

    Blob sizes must match the declared shapes exactly. Embedding rows
    within ``NORM_KEEP_TOL`` of unit norm are kept verbatim, the rest are
    renormalized, and deviations beyond ``NORM_WARN_TOL`` are reported
    in ``Dataset.warnings``. The returned Dataset checks the rest of its
    invariant (label range, finite values) on construction.
    """
    path = Path(manifest_path)
    manifest, (n, d, c) = _read_manifest(path, "manifest", ("n", "d", "c"),
                                         ("embeddings", "labels", "prototypes"))
    warnings: list[str] = []
    embeddings = _ingest_unit_rows(_read_blob(path, manifest, "embeddings", (n, d)),
                                   "embeddings", warnings)
    labels = _read_blob(path, manifest, "labels", (n,))
    prototypes = _read_blob(path, manifest, "prototypes", (c, d))

    m = _field(manifest, "m", int, 0)
    if m < 0:
        raise FormatError("manifest field 'm' must be >= 0")
    if m > 0 or "unlabeled" in manifest:
        unlabeled = _ingest_unit_rows(_read_blob(path, manifest, "unlabeled", (m, d)),
                                      "unlabeled", warnings)
    else:
        unlabeled = np.zeros((0, d), dtype=np.float64)

    tau = _field(manifest, "tau", float, None)
    if tau is not None and (not np.isfinite(tau) or tau <= 0):
        raise FormatError(f"manifest tau must be a positive finite number, got {tau}")

    templates = None
    j = _field(manifest, "j", int, 0)
    if "templates" in manifest:
        if j < 1:
            raise FormatError("manifest with 'templates' must declare 'j' >= 1")
        templates = _read_blob(path, manifest, "templates", (c, j, d))

    # every array here was built by this call, so the dataset keeps it
    return Dataset(embeddings=embeddings.view(_Handed), labels=labels.view(_Handed),
                   prototypes=prototypes.view(_Handed), unlabeled=unlabeled.view(_Handed),
                   tau=tau, templates=None if templates is None else templates.view(_Handed),
                   warnings=warnings)


def save_dataset(dataset: Dataset, manifest_path: str | Path) -> None:
    """Write a dataset as manifest + blobs.

    Output bytes are a deterministic function of the dataset values:
    fixed blob names, sorted manifest keys, float32/uint32 casts.
    """
    blobs = {"embeddings": dataset.embeddings, "labels": dataset.labels,
             "prototypes": dataset.prototypes, "unlabeled": dataset.unlabeled}
    manifest = {"n": dataset.n, "d": dataset.dim, "c": dataset.class_count,
                "m": dataset.unlabeled_count, "dtype": "f32le",
                "embeddings": "embeddings.f32", "labels": "labels.u32",
                "prototypes": "prototypes.f32", "unlabeled": "unlabeled.f32"}
    if dataset.tau is not None:
        manifest["tau"] = float(dataset.tau)
    if dataset.templates is not None:
        blobs["templates"] = dataset.templates
        manifest["j"] = dataset.templates.shape[1]
        manifest["templates"] = "templates.f32"
    _write_blobs(Path(manifest_path), manifest, blobs)


def save_prototypes(prototypes: np.ndarray, manifest_path: str | Path,
                    extra: dict | None = None) -> None:
    """Write a prototype matrix as f32le blob + JSON manifest.

    ``extra`` entries (config echo, version) are merged into the
    manifest. Prototypes are not renormalized: learned prototypes are
    not unit vectors in general.
    """
    protos = check_array(prototypes, "prototypes", (None, None), finite=True)
    path = Path(manifest_path)
    manifest = {"c": protos.shape[0], "d": protos.shape[1], "dtype": "f32le",
                "prototypes": _prototype_blob(path).name, **(extra or {})}
    _write_blobs(path, manifest, {"prototypes": protos})


def load_prototypes(manifest_path: str | Path) -> np.ndarray:
    """Load a prototype matrix written by save_prototypes."""
    path = Path(manifest_path)
    manifest, shape = _read_manifest(path, "prototype manifest", ("c", "d"), ("prototypes",))
    return _read_blob(path, manifest, "prototypes", shape)
