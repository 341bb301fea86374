"""Triangular-mesh semantic segmentation with a two-stream graph transformer.

The pipeline: parse a mesh, simplify and standardize it, extract spectral
positional features from the dual graph, group triangles with
connectivity-constrained Ward clustering, and feed the result through a
two-stream transformer trained with AdamW: each triangle attends over the
sparse listing of its dual-graph neighbors, each cluster over the listing
of its member triangles and over the other clusters.
"""

from meshseg.errors import (
    ConfigError,
    DegenerateGeometryError,
    EigensolverError,
    MeshFormatError,
    TrainingDivergedError,
    TrainingWorkerError,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateGeometryError",
    "EigensolverError",
    "MeshFormatError",
    "TrainingDivergedError",
    "TrainingWorkerError",
    "__version__",
]
