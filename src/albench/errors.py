"""Exception hierarchy shared across the benchmark engine."""


class AlbenchError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AlbenchError):
    """A run, sweep, or dataset configuration is invalid."""


class ShapeError(AlbenchError):
    """Array dimensions do not line up."""


class SchemaError(AlbenchError):
    """A CSV file is missing required columns."""


class CsvParseError(AlbenchError):
    """A CSV cell failed to parse as a finite real."""


class EmptyDatasetError(AlbenchError):
    """A CSV file contained a header but no data rows."""


class UnknownCandidateError(AlbenchError, IndexError):
    """A candidate id is not a position in the pool."""


class FitError(AlbenchError):
    """Model fitting failed (empty training set, diverged training, ...)."""


class NumericalError(AlbenchError):
    """A linear-algebra routine failed even after jitter escalation."""


class InputError(AlbenchError):
    """Predictions or other numeric inputs contained NaN/inf."""


class ProtocolViolationError(AlbenchError):
    """A proposer returned a candidate id that was already observed."""


class ProposerError(AlbenchError):
    """A proposer failed to produce a candidate after its retries."""


class ProposalParseError(AlbenchError):
    """An LLM reply contained no parsable fenced key:value block."""


class ReplayExhaustedError(AlbenchError):
    """The scripted chat client ran out of recorded responses."""


class ReplayMismatchError(AlbenchError):
    """A replayed request did not match the recorded request digest."""


class TransportError(AlbenchError):
    """An HTTP call to a chat or rerank provider failed."""


class RunAborted(AlbenchError):
    """An active-learning run stopped early; carries the partial trajectory."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
