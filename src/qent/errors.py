"""Exception types shared across the package."""


class QentError(Exception):
    """Base class for all package-specific errors."""


class NotHermitianError(QentError):
    pass


class NotPSDError(QentError):
    pass


class DimensionMismatchError(QentError):
    pass


class ZeroVectorError(QentError):
    pass


class OutOfRangeError(QentError):
    pass


class DomainError(QentError):
    pass


class InvalidProjectorsError(QentError):
    pass


class NotPureError(QentError):
    pass


class NoRootError(QentError):
    pass


class OptimizerFailureError(QentError):
    pass
