"""From raw labeled mesh to a fixed-size, standardized, padded Sample.

Pipeline: merge duplicate vertices, QEM simplification (with majority
label transfer), coordinate standardization, normals, spectral features,
connectivity-constrained clustering, padding. Padding faces are isolated
in the dual graph, live in their own dedicated cluster, carry zero area
and the ignore label.
"""

from __future__ import annotations

import gc
import io
import json
import logging
import zipfile
import zlib
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter

import numpy as np

from meshseg import clustering, spectral
from meshseg.errors import ConfigError, DegenerateGeometryError, SampleFormatError, check_config
from meshseg.mesh_io import LabelVec, Mesh, merge_duplicate_vertices
from meshseg.simplify import DEGENERATE_NORM, simplify_qem
from meshseg.spectral import AdjacencyMatrix

logger = logging.getLogger(__name__)

__all__ = [
    "PreprocessConfig",
    "Sample",
    "PAD_LABEL",
    "COORD_COLS",
    "NORMAL_COLS",
    "SPECTRAL_COLS",
    "normals_and_areas",
    "standardize_coords",
    "pad_sample",
    "build_sample",
    "save_sample",
    "load_sample",
    "write_archive",
    "read_archive",
]

#: Sentinel label for padding faces; ignored by loss and metrics.
PAD_LABEL = -1

#: Column blocks of the per-triangle feature matrix.
COORD_COLS = slice(0, 9)
NORMAL_COLS = slice(9, 12)
SPECTRAL_COLS = slice(12, None)

SAMPLE_FORMAT_VERSION = 2

#: Arrays of a .sample file, each stored as ``<name>.npy``, and the dtype
#: kind each must have.
SAMPLE_ARRAYS = {"T": np.floating, "A": np.integer, "cluster_ids": np.integer,
                 "labels": np.integer, "areas": np.floating, "mask": np.bool_}
_KIND_NAMES = {np.floating: "real floats", np.integer: "integers", np.bool_: "booleans"}


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs of the preprocessing pipeline (mirrored by CLI flags)."""

    target_vertices: int = 1200
    target_faces: int = 2412
    eigen_count: int = 16
    clustering_lambda: float = 8.0
    merge_eps: float = 1e-8
    simplify: bool = True

    def __post_init__(self):
        # the minimums the pipeline needs: QEM keeps a tetrahedron, the
        # eigensolver returns at least one vector, a sample has a face
        check_config(self, {"target_vertices": 4, "target_faces": 1, "eigen_count": 1,
                            "merge_eps": 0})
        if not self.clustering_lambda > 0:
            raise ConfigError(f"clustering_lambda must be > 0, got {self.clustering_lambda}")


@dataclass(frozen=True)
class Sample:
    """A preprocessed mesh ready for the network.

    ``cluster_ids`` uses ids 0..num_clusters-1 for real clusters and the
    dedicated id ``num_clusters`` for padding faces (present only when the
    sample is padded). ``diagnostics``, set by ``build_sample``, records
    how the pipeline went: the QEM vertex counts before and after and
    whether it reached its target (None when it was skipped), the
    dual-graph component count, the worst eigenpair residual, and the
    smallest, median and largest cluster size.
    """

    features: np.ndarray  # (n_total, 12 + E) float64
    adjacency: AdjacencyMatrix  # over n_total nodes; padding isolated
    cluster_ids: np.ndarray  # (n_total,) int64
    num_clusters: int  # real clusters, excluding the padding cluster
    labels: np.ndarray  # (n_total,) int64, PAD_LABEL on padding
    areas: np.ndarray  # (n_total,) float64, 0 on padding
    real_mask: np.ndarray  # (n_total,) bool
    num_classes: int
    eigen_count: int
    config: dict | None = field(default=None, compare=False)
    diagnostics: dict | None = field(default=None, compare=False)

    @property
    def n_total(self) -> int:
        return len(self.features)

    @property
    def n_real(self) -> int:
        return int(self.real_mask.sum())

    @property
    def has_padding(self) -> bool:
        return bool((~self.real_mask).any())

    def mesh(self) -> Mesh:
        """The real faces, face i from the i-th real row's coordinate columns;
        corners with bit-identical coordinates share a vertex, numbered in
        order of first use. An augmented sample yields augmented geometry."""
        corners = self.features[self.real_mask, COORD_COLS].reshape(-1, 3)
        faces = np.arange(len(corners)).reshape(-1, 3)
        return merge_duplicate_vertices(Mesh(vertices=corners, faces=faces), 0.0)

    def validate(self) -> None:
        """Raise SampleFormatError unless the per-face arrays agree in length,
        the features are finite and the areas finite and non-negative, the
        padding faces satisfy the padding invariants, and every real face
        carries a cluster id of a real cluster and a label that is
        ``PAD_LABEL`` or one of the sample's classes."""

        def require(ok, message):
            if not ok:
                raise SampleFormatError(f"inconsistent sample: {message}")

        n = self.n_total
        width = 12 + self.eigen_count
        require(self.features.shape == (n, width),
                f"features have shape {self.features.shape}, expected ({n}, {width})")
        for name in ("cluster_ids", "labels", "areas", "real_mask"):
            shape = getattr(self, name).shape
            require(shape == (n,), f"{name} has shape {shape}, expected ({n},)")
        require(self.adjacency.n == n, f"adjacency over {self.adjacency.n} faces, not {n}")
        require(np.isfinite(self.features).all(), "non-finite feature")
        require((self.areas >= 0).all() and np.isfinite(self.areas).all(),
                "negative or non-finite area")
        if self.adjacency.pairs.size:
            require(self.real_mask[self.adjacency.pairs].all(), "padding face with edges")
        pad = ~self.real_mask
        require((self.areas[pad] == 0).all(), "padding face with nonzero area")
        require((self.labels[pad] == PAD_LABEL).all(), "padding face with a label")
        require((self.features[pad] == 0).all(), "padding face with nonzero features")
        require((self.cluster_ids[pad] == self.num_clusters).all(),
                "padding face outside the padding cluster")
        real_ids = self.cluster_ids[self.real_mask]
        require(((real_ids >= 0) & (real_ids < self.num_clusters)).all(),
                f"real face with a cluster id outside 0..{self.num_clusters - 1}")
        real_labels = self.labels[self.real_mask]
        require(((real_labels == PAD_LABEL)
                 | ((real_labels >= 0) & (real_labels < self.num_classes))).all(),
                f"real face with a label outside 0..{self.num_classes - 1} "
                f"and other than {PAD_LABEL}")


def normals_and_areas(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals from the counter-clockwise winding of each face, and the
    face areas, from one cross product per face."""
    v = mesh.vertices
    f = mesh.faces
    raw = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    norms = np.linalg.norm(raw, axis=1)
    bad = np.flatnonzero(norms < DEGENERATE_NORM)
    if bad.size:
        raise DegenerateGeometryError(f"zero-area face {bad[0]}")
    return raw / norms[:, np.newaxis], 0.5 * norms


def standardize_coords(points: np.ndarray) -> np.ndarray:
    """Uniformly scale and translate (P, 3) points so the longest
    bounding-box axis spans [-1, 1], centered at the box center. Aspect
    ratios are preserved."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    extent = float((hi - lo).max())
    if extent <= 0:
        raise DegenerateGeometryError("degenerate bounding box: all vertices identical")
    return (points - 0.5 * (lo + hi)) * (2.0 / extent)


def triangle_centroids(mesh: Mesh) -> np.ndarray:
    v = mesh.vertices
    return v[mesh.faces].mean(axis=1)


def pad_sample(sample: Sample, target_faces: int) -> Sample:
    """Append padding faces up to ``target_faces``.

    Padding rows are zero everywhere, isolated in the adjacency, assigned
    to the dedicated padding cluster, and carry the ignore label. Real-face
    data is preserved bit-exactly. ``target_faces == n_total`` is the
    identity.
    """
    n = sample.n_total
    if target_faces < n:
        raise ValueError(f"target_faces {target_faces} < current face count {n}")
    if target_faces == n:
        return sample
    extra = target_faces - n
    features = np.vstack([sample.features, np.zeros((extra, sample.features.shape[1]))])
    cluster_ids = np.concatenate(
        [sample.cluster_ids, np.full(extra, sample.num_clusters, dtype=np.int64)]
    )
    labels = np.concatenate([sample.labels, np.full(extra, PAD_LABEL, dtype=np.int64)])
    areas = np.concatenate([sample.areas, np.zeros(extra)])
    real_mask = np.concatenate([sample.real_mask, np.zeros(extra, dtype=bool)])
    return replace(
        sample,
        features=features,
        adjacency=sample.adjacency.with_n(target_faces),
        cluster_ids=cluster_ids,
        labels=labels,
        areas=areas,
        real_mask=real_mask,
    )


def _transfer_labels(original: Mesh, original_labels: np.ndarray, simplified: Mesh) -> np.ndarray:
    """Majority label per simplified face over the original faces whose
    centroids map nearest to it; ties broken by smallest class index. A
    simplified face that no original centroid maps to takes the label of
    the original face nearest to its centroid."""
    from scipy.spatial import cKDTree

    if original_labels.size and original_labels.min() < 0:
        raise ValueError("label transfer needs non-negative labels")
    src_centroids = triangle_centroids(original)
    dst_centroids = triangle_centroids(simplified)
    _, nearest = cKDTree(dst_centroids).query(src_centroids)
    # count over the classes present: ids need not be dense
    classes, class_of = np.unique(original_labels, return_inverse=True)
    counts = np.zeros((simplified.num_faces, classes.size), dtype=np.int64)
    np.add.at(counts, (nearest, class_of), 1)
    out = classes[counts.argmax(axis=1)]  # argmax picks the smallest class on ties
    orphans = np.flatnonzero(~counts.any(axis=1))
    if orphans.size:
        back = cKDTree(src_centroids)
        _, src_for = back.query(dst_centroids[orphans])
        out[orphans] = original_labels[np.atleast_1d(src_for)]
    return out


def build_sample(mesh: Mesh, labels: LabelVec | None, cfg: PreprocessConfig) -> Sample:
    """Run the full preprocessing pipeline on one labeled mesh.

    ``labels`` may be None (segmentation of an unlabeled mesh); the label
    vector is then all ``PAD_LABEL`` and num_classes is 0.

    The cyclic garbage collector is paused for the call and restored as it
    was found: QEM, the eigensolve and Ward allocate hundreds of thousands
    of tuples, lists and sets of numbers, which hold no cycles and which
    reference counting frees, so collections triggered by their count
    would find nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_sample(mesh, labels, cfg)
    finally:
        if enabled:
            gc.enable()


def _build_sample(mesh: Mesh, labels: LabelVec | None, cfg: PreprocessConfig) -> Sample:
    if labels is not None and len(labels) != mesh.num_faces:
        raise ValueError(
            f"label count {len(labels)} != face count {mesh.num_faces}"
        )
    seconds = {}

    def timed(stage, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        seconds[stage] = perf_counter() - start
        return out

    merged, face_mask = timed(
        "merge", merge_duplicate_vertices, mesh, cfg.merge_eps, return_face_mask=True
    )
    if merged.num_faces == 0:
        raise DegenerateGeometryError("mesh has no faces")
    label_arr = labels.labels[face_mask] if labels is not None else None

    reached = None
    if cfg.simplify and merged.num_vertices > cfg.target_vertices:
        simplified, reached = timed("qem", simplify_qem, merged, cfg.target_vertices)
        if not reached:
            logger.warning(
                "simplification stalled at %d vertices (target %d)",
                simplified.num_vertices,
                cfg.target_vertices,
            )
        if label_arr is not None:
            label_arr = _transfer_labels(merged, label_arr, simplified)
    else:
        simplified = merged

    standardized = Mesh(vertices=standardize_coords(simplified.vertices), faces=simplified.faces)
    normals, areas = normals_and_areas(standardized)

    adj = timed("dual_graph", spectral.build_dual_adjacency, standardized)
    spec_feats = timed("spectral", spectral.laplacian_positional_features, adj, cfg.eigen_count)

    n = standardized.num_faces
    coords = standardized.vertices[standardized.faces].reshape(n, 9)
    features = np.hstack([coords, normals, spec_feats.features])

    num_clusters = clustering.cluster_count(
        standardized.num_vertices, cfg.clustering_lambda
    )
    num_clusters = min(num_clusters, n)
    assignment = timed("ward", clustering.ward_constrained, triangle_centroids(standardized),
                       adj, num_clusters)
    logger.info(
        "build_sample: %s; qem %d -> %d vertices, reached %s",
        ", ".join(f"{stage} {t:.3f} s" for stage, t in seconds.items()),
        merged.num_vertices,
        simplified.num_vertices,
        "skipped" if reached is None else reached,
    )
    cluster_sizes = np.bincount(assignment.assignment)
    # stage seconds stay in the log: in the manifest they would make two
    # saves of one mesh differ
    diagnostics = {
        "qem_input_vertices": merged.num_vertices,
        "qem_output_vertices": simplified.num_vertices,
        "qem_reached": reached,
        "dual_graph_components": spec_feats.components,
        "eigen_residual": spec_feats.residual,
        "cluster_size_min": int(cluster_sizes.min()),
        "cluster_size_median": float(np.median(cluster_sizes)),
        "cluster_size_max": int(cluster_sizes.max()),
    }

    if label_arr is None:
        label_arr = np.full(n, PAD_LABEL, dtype=np.int64)
        num_classes = 0
    else:
        num_classes = labels.num_classes

    sample = Sample(
        features=features,
        adjacency=adj,
        cluster_ids=assignment.assignment,
        num_clusters=assignment.num_clusters,
        labels=label_arr,
        areas=areas,
        real_mask=np.ones(n, dtype=bool),
        num_classes=num_classes,
        eigen_count=cfg.eigen_count,
        config=asdict(cfg),
        diagnostics=diagnostics,
    )
    if cfg.target_faces > n:
        sample = pad_sample(sample, cfg.target_faces)
    elif cfg.target_faces < n:
        raise ValueError(
            f"mesh has {n} faces after preprocessing, above target_faces={cfg.target_faces}"
        )
    sample.validate()
    return sample


def save_sample(sample: Sample, path) -> None:
    """Write a sample as a zip of named .npy arrays plus a JSON manifest;
    one sample always gives the same bytes."""
    arrays = {
        "T": sample.features,
        "A": sample.adjacency.pairs,
        "cluster_ids": sample.cluster_ids,
        "labels": sample.labels,
        "areas": sample.areas,
        "mask": sample.real_mask,
    }
    manifest = {
        "format_version": SAMPLE_FORMAT_VERSION,
        "n_total": sample.n_total,
        "num_clusters": sample.num_clusters,
        "num_classes": sample.num_classes,
        "eigen_count": sample.eigen_count,
        "has_padding": sample.has_padding,
        "arrays": {
            name: {"shape": list(a.shape), "dtype": str(a.dtype)} for name, a in arrays.items()
        },
        "config": sample.config,
        "diagnostics": sample.diagnostics,
    }
    write_archive(path, arrays, manifest)


def write_archive(path, arrays: dict, manifest: dict) -> None:
    """Write each of ``{name: array}`` as ``<name>.npy``, in the dict's
    order, then ``manifest`` as ``manifest.json``, into a zip whose bytes
    depend on the contents alone: each entry carries the fixed date
    1980-01-01, not the time of the save. Floating-point arrays are stored
    undeflated: their noisy mantissas shrink by a fifth at most, for most
    of the save's time. Every other entry is deflated. ``read_archive``
    reads both kinds of entry."""
    with zipfile.ZipFile(path, "w") as zf:

        def write(name, data, compress_type=zipfile.ZIP_DEFLATED):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = compress_type
            info.external_attr = 0o600 << 16  # rw-------, as writestr(name) sets
            zf.writestr(info, data)

        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            buf = io.BytesIO()
            np.save(buf, arr)
            write(f"{name}.npy", buf.getvalue(),
                  zipfile.ZIP_STORED if arr.dtype.kind == "f" else zipfile.ZIP_DEFLATED)
        write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True))


def read_archive(path, kind: str, version: int, error: type[Exception],
                 remedy: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest and the ``{name: array}`` of every ``<name>.npy`` entry
    of a file that ``write_archive`` wrote. A file that is not a zip, a
    missing or undecodable manifest, an undecodable or pickled array, or a
    format version other than ``version`` raise ``error``, whose one-line
    message calls the file a ``kind`` and, for the version, says ``remedy``."""
    try:
        zf = zipfile.ZipFile(path, "r")
    except (zipfile.BadZipFile, EOFError) as exc:
        raise error(f"{kind} {path} is not a readable zip file: {exc}") from exc
    with zf:
        names = zf.namelist()

        def read(name, decode):
            if name not in names:
                raise error(f"{kind} {path} lacks {name}")
            try:
                return decode(zf.read(name))
            except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
                raise error(f"{kind} {path}: unreadable {name}: {exc}") from exc

        manifest = read("manifest.json", json.loads)
        found = manifest.get("format_version") if isinstance(manifest, dict) else None
        if found != version:
            raise error(
                f"{kind} {path}: unsupported {kind} format version {found}, "
                f"expected {version}; {remedy}"
            )
        # one entry's bytes at a time: each dies once its array is decoded
        arrays = {
            name[: -len(".npy")]: read(name, lambda blob: np.load(io.BytesIO(blob)))
            for name in names if name.endswith(".npy")
        }
    return manifest, arrays


def load_sample(path) -> Sample:
    """Read and validate a sample. A file that ``read_archive`` refuses, a
    missing array or manifest field, a manifest count that is not an
    integer >= 0, an array of the wrong dtype kind, arrays that disagree,
    or a manifest whose ``arrays`` shapes and dtypes or ``has_padding``
    differ from the arrays raise SampleFormatError."""
    manifest, arrays = read_archive(
        path, "sample", SAMPLE_FORMAT_VERSION, SampleFormatError,
        "preprocess the mesh again with meshseg preprocess",
    )
    for name in ("n_total", "num_clusters", "num_classes", "eigen_count", "has_padding",
                 "arrays"):
        if name not in manifest:
            raise SampleFormatError(f"sample {path}: manifest lacks {name!r}")
    for name in ("n_total", "num_clusters", "num_classes", "eigen_count"):
        if type(manifest[name]) is not int or manifest[name] < 0:  # a bool is an int
            raise SampleFormatError(f"sample {path}: manifest {name!r} is "
                                    f"{manifest[name]!r}, not an integer >= 0")
    for name, kind in SAMPLE_ARRAYS.items():
        if name not in arrays:
            raise SampleFormatError(f"sample {path} lacks {name}.npy")
        if not np.issubdtype(arrays[name].dtype, kind):
            raise SampleFormatError(f"sample {path}: {name} are not {_KIND_NAMES[kind]} "
                                    f"({arrays[name].dtype})")
    if arrays["T"].ndim != 2:
        raise SampleFormatError(f"sample {path}: T has {arrays['T'].ndim} dimensions, not 2")
    try:
        adjacency = AdjacencyMatrix(n=manifest["n_total"], pairs=arrays["A"].reshape(-1, 2))
        sample = Sample(
            features=arrays["T"],
            adjacency=adjacency,
            cluster_ids=arrays["cluster_ids"].astype(np.int64),
            num_clusters=manifest["num_clusters"],
            labels=arrays["labels"],
            areas=arrays["areas"],
            real_mask=arrays["mask"],
            num_classes=manifest["num_classes"],
            eigen_count=manifest["eigen_count"],
            config=manifest.get("config"),
            diagnostics=manifest.get("diagnostics"),
        )
    except ValueError as exc:
        raise SampleFormatError(f"sample {path}: {exc}") from exc
    sample.validate()
    declared = manifest["arrays"] if isinstance(manifest["arrays"], dict) else {}
    for name in SAMPLE_ARRAYS:
        found = {"shape": list(arrays[name].shape), "dtype": str(arrays[name].dtype)}
        if declared.get(name) != found:
            raise SampleFormatError(
                f"sample {path}: manifest 'arrays' gives {name} {declared.get(name)!r}, "
                f"but {name}.npy has shape {found['shape']} and dtype {found['dtype']}"
            )
    if manifest["has_padding"] is not sample.has_padding:
        raise SampleFormatError(
            f"sample {path}: manifest 'has_padding' is {manifest['has_padding']!r}, but "
            f"the mask marks {sample.n_total - sample.n_real} padding faces"
        )
    return sample
