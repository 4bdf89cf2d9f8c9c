"""Exception types shared across the toolkit."""


class SpamTomoError(Exception):
    """Base class for all spamtomo errors."""


class NonPhysicalError(SpamTomoError, ValueError):
    """An operator or vector violates a physicality constraint.

    Raised for Stokes or observable vectors that do not have three
    components or lie outside the unit ball, and for non-finite wave-plate
    angles.
    """


class SingularMatrixError(SpamTomoError, ValueError):
    """A matrix that must be inverted is singular or nearly singular.

    ``where`` names the offending block: a corner of an expectation
    matrix, or the known observables.  A singular corner does not tell
    a degenerate choice of settings from a correlated SPAM error, which
    can itself drive a corner singular.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class ShapeError(SpamTomoError, ValueError):
    """An array has the wrong shape, or list lengths are inconsistent."""


class ConfigError(SpamTomoError, ValueError):
    """A run configuration failed to parse or validate.

    ``field`` names the offending configuration key when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class DataFormatError(SpamTomoError, ValueError):
    """A measurement data file is malformed.

    ``block``, ``row`` and ``col`` locate the offending entry (1-based)
    when they apply.
    """

    def __init__(self, message, block=None, row=None, col=None):
        super().__init__(message)
        self.block = block
        self.row = row
        self.col = col
