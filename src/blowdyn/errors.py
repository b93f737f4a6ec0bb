"""Exception types shared across the package.

Everything raised on purpose derives from BlowdynError so callers can
catch library failures without also swallowing genuine bugs.
"""


class BlowdynError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfig(BlowdynError):
    """Blow-up configuration violates a structural constraint."""


class LengthMismatch(BlowdynError):
    """A coefficient vector has the wrong number of entries."""


class RingMismatch(BlowdynError):
    """Two objects belong to different ring models."""


class DimensionMismatch(BlowdynError):
    """A matrix or vector has a shape incompatible with the model."""


class NotUnimodular(BlowdynError):
    """An integer matrix expected to have determinant +-1 does not."""


class NotValidated(BlowdynError):
    """A pullback candidate failed structural validation.

    Carries the offending ValidationReport in ``report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ZeroClass(BlowdynError):
    """An operation that needs a nonzero class received zero."""


class NotAmpleCandidate(BlowdynError):
    """The reference class fails the strict positivity sanity checks."""


class HypothesisViolation(BlowdynError):
    """Numeric hypotheses of a verification routine are not met."""


class ToleranceUnreachable(BlowdynError):
    """An enclosure could not be tightened to the requested width.

    ``best`` holds the tightest enclosure that was achieved.  ``attempts``
    lists every certification attempt as (dps, seeded, outcome), outcome
    one of "no-convergence", "overlap" or "width > tol".
    """

    def __init__(self, message, best=None, attempts=()):
        super().__init__(message)
        self.best = best
        self.attempts = tuple(attempts)


class DocumentError(BlowdynError):
    """Base class for input-document failures."""


class ParseError(DocumentError):
    """The document is not well-formed JSON."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col


class SchemaError(DocumentError):
    """The document parses but a field is missing or has the wrong shape."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class ConsistencyError(DocumentError):
    """Fields are individually fine but disagree with each other."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class UnknownAction(BlowdynError):
    """A named action is not present in the document."""


class UnknownClass(BlowdynError):
    """A named class is not present in the document."""
