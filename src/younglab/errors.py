"""Exception hierarchy shared by all younglab modules."""


class YounglabError(Exception):
    """Base class for all library errors."""


class SizeMismatchError(YounglabError):
    """Two combinatorial objects that must have the same total size do not."""


class EmptyPartitionError(YounglabError):
    """An operation that removes a cell was applied to the empty partition."""


class DegreeMismatchError(YounglabError):
    """Class functions of different symmetric-group degrees were combined."""


class DimensionMismatchError(YounglabError):
    """Matrix or vector dimensions are incompatible."""


class NotInvariantError(YounglabError):
    """A candidate subspace is not invariant under the given operator."""


class OrthogonalizationError(YounglabError):
    """Character orthogonalization produced a non-unit norm or a non-integer
    value; indicates a broken processing order."""


class InvalidFillingError(YounglabError):
    """A tableau filling violates the constraints required by the operation."""


class LimitError(YounglabError):
    """A size limit (configured or hard-coded) was exceeded; a usage error."""


class SelfCheckError(YounglabError):
    """A computed result failed the library's own run-time re-check;
    indicates a bug rather than bad input."""
