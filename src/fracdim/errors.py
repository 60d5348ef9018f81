"""Exception taxonomy shared across the package.

Each class maps to one CLI exit code; see cli.py.
"""


class FracdimError(Exception):
    """Base class for all package-specific errors."""


class ParseError(FracdimError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


class InvalidEntryError(ValueError):
    """A space constructor refused one entry; carries its 0-based row or edge index."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(message)


class ResourceLimitError(FracdimError):
    """A construction would exceed its configured size cap."""


class DegenerateInputError(FracdimError):
    """Input has no usable geometric extent (e.g. all points identical)."""


class UndefinedDimensionError(FracdimError):
    """A dimension formula has no finite value for this input."""

    def __init__(self, message, beta=None):
        self.beta = beta
        super().__init__(message)


class SingularSimilarityError(FracdimError):
    """Similarity-matrix solve failed to reach the residual tolerance."""

    def __init__(self, scale, residual):
        self.scale = scale
        self.residual = residual
        super().__init__(
            f"similarity matrix numerically singular at scale t={scale:g} "
            f"(solver residual {residual:.3e})"
        )
