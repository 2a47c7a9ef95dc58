"""Exception types shared across the package, and the setting type checks
that raise them."""


class AttentabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AttentabError):
    """Operands do not conform (wrong rank or mismatched dimensions)."""


class BatchTooSmallError(ShapeError):
    """Train-mode normalization needs at least two rows."""


class GraphError(AttentabError):
    """Recorded-computation contract violated (e.g. non-scalar loss)."""


class ConfigError(AttentabError):
    """Invalid hyperparameter, option value, or unknown config key."""


class NumericsError(AttentabError):
    """Non-finite values appeared where finite ones are required."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class DataError(AttentabError):
    """Base class for dataset-pipeline errors."""


class IngestionError(DataError):
    """CSV file unreadable, malformed, or ragged."""


class SchemaError(DataError):
    """Column metadata cannot be fitted or is inconsistent."""


class EncodingError(DataError):
    """A value cannot be encoded under the fitted schema."""


class LabelError(DataError):
    """Unknown label string or out-of-range class index."""


class SplitError(DataError):
    """Train/validation partition cannot satisfy its invariants."""


class PersistenceError(AttentabError):
    """Container file has a bad magic string, is truncated, or corrupt."""


class ModelStateError(AttentabError):
    """Operation requires a trained model."""


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise ConfigError unless ``value`` is an int of at least ``minimum``.
    A bool is not an int here: JSON ``true`` must not pass as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")


def check_number(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is an int or a float (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
