"""Exception types shared across the package, and the field check of the
config dataclasses."""

import dataclasses
import math
import numbers


class MeshFormatError(ValueError):
    """Malformed mesh or label file (carries a line number when known)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message}, line {line}"
        super().__init__(message)
        self.line = line


class SampleFormatError(ValueError):
    """A .sample file, or a Sample, whose arrays are missing or disagree."""


class DegenerateGeometryError(ValueError):
    """Zero-area face, collapsed bounding box, or similar geometric defect."""


class EigensolverError(RuntimeError):
    """Eigensolver failed to reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class TrainingDivergedError(RuntimeError):
    """Non-finite loss or gradient encountered during training."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class TrainingWorkerError(RuntimeError):
    """A process that trained part of a batch ended without returning its
    sample's result."""


def check_config(cfg, minimums: dict[str, int]) -> None:
    """Raise ConfigError naming the first field of the config dataclass
    ``cfg`` whose value does not match its ``int``, ``float`` or ``bool``
    annotation (a bool is never a number, an int is also a float), that is
    a NaN or infinite ``float`` or an int too large for one, or that lies
    below its entry in ``minimums``. Every field has one of the three types."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        kind = getattr(f.type, "__name__", f.type)
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        ok = {
            "int": number and isinstance(value, numbers.Integral),
            "float": number,
            "bool": isinstance(value, bool),
        }[kind]
        if not ok:
            raise ConfigError(f"{f.name} must be of type {kind}, got {value!r}")
        if kind == "float":
            try:
                finite = math.isfinite(value)
            except OverflowError:  # its repr could be thousands of digits
                raise ConfigError(f"{f.name} must be finite, got an int too large "
                                  "for a float") from None
            if not finite:
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if f.name in minimums and value < minimums[f.name]:
            raise ConfigError(f"{f.name} must be >= {minimums[f.name]}, got {value}")
