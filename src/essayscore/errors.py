"""Exception types shared across the toolkit."""


class EssayScoreError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(EssayScoreError):
    """Invalid configuration or hyperparameter value."""


class DataError(EssayScoreError):
    """Malformed input data or artifact file."""


class ModelFormatError(DataError):
    """A model, embedding or corpus cache file failed to parse."""


class NumericalError(EssayScoreError):
    """Training produced a non-finite loss or parameter."""
