"""Exception types shared across the package."""


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
    """Non-finite loss encountered during training."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
