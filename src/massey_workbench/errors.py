"""Exception taxonomy shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench failures."""


class ConfigError(WorkbenchError, ValueError):
    """Invalid configuration: bad rank, malformed word syntax, bad spec."""


class UsageError(WorkbenchError, ValueError):
    """Structurally valid objects used incorrectly (rank mismatch, arity, range)."""


class ResourceCapError(WorkbenchError, RuntimeError):
    """An enumeration would exceed the configured cap."""


def integer(value, name: str, optional: bool = False) -> int | None:
    """``value`` if it is a JSON integer (or null, for an optional one); a
    bool, float or string is a ``ConfigError``."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def at_least(value: int, key: str, least: int) -> int:
    """``value`` if it is an integer of at least ``least``, else a
    ``ConfigError`` naming ``key``."""
    if integer(value, key) < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value
