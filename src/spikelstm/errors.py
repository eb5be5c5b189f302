"""Exception types shared across the toolkit.

The CLI maps ConfigError/ValidationError to exit code 2 and everything
else to exit code 1.
"""


class SpikeLstmError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(SpikeLstmError):
    """A value violates a documented precondition or invariant."""


class ConfigError(ValidationError):
    """A config file or CLI argument is malformed; message names the field."""


class DimensionMismatch(SpikeLstmError):
    """Array shapes disagree with the model contract."""


class NumericalFault(SpikeLstmError):
    """A non-finite value appeared where finite arithmetic is required, or
    a training step left a parameter outside its domain."""


class MultiplierAuditError(SpikeLstmError):
    """A spiking datapath would need a multi-bit x multi-bit product."""


class CheckpointFormatError(SpikeLstmError):
    """A checkpoint file does not parse as the documented container."""


class DataFormatError(SpikeLstmError):
    """A dataset file does not parse as the documented container."""


class TrainingDiverged(SpikeLstmError):
    """Loss became non-finite; carries the last good state."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history
