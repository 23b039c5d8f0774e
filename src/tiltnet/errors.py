"""Exception types shared across the package.

The CLI maps these onto exit codes, so raising the right class matters:
ConfigError / ShapeError -> 2, DataError / OSError / CheckpointError -> 3,
NumericsError -> 4. A ShapeError that reaches the CLI comes from the user's
layer stack or sample node; load_checkpoint re-raises one from a
checkpoint's own config as CheckpointError.
"""


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class CacheError(RuntimeError):
    """A forward-pass cache was reused after the parameters changed."""


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable: bad magic, version, length, or checksum."""


class ConfigError(ValueError):
    """Run configuration is malformed or contains unknown sections/keys."""


class DataError(ValueError):
    """Dataset file or synthetic-data specification is invalid."""


class NumericsError(ArithmeticError):
    """Non-finite values appeared where finite numbers are required."""
