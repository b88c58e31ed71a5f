"""Exception hierarchy shared by all qaiccc modules."""


class QaicccError(Exception):
    """Base class for all errors raised by this package."""


class InputFileError(QaicccError):
    """A platform, requests, or rates file failed to parse or validate.

    ``record`` is the zero-based index of the offending record when the
    error is attributable to a single record, otherwise None.
    """

    def __init__(self, message: str, *, path: str | None = None, record: int | None = None):
        self.path = path
        self.record = record
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if record is not None:
            prefix += f"record {record}: "
        super().__init__(prefix + message)


class InsufficientQubitsError(QaicccError):
    """Requested circuit sizes sum to more qubits than the platform has."""


class NoFeasibleAllocationError(QaicccError):
    """No allocation produced by the search can be completed."""


class InstanceTooLargeError(QaicccError):
    """The platform exceeds the exhaustive-enumeration cap."""


class BaselineInfeasibleError(QaicccError):
    """The greedy baseline got stuck before filling every request."""
