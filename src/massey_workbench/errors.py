"""Exception taxonomy shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench failures."""


class ConfigError(WorkbenchError, ValueError):
    """Invalid configuration: bad rank, malformed word syntax, bad spec."""


class UsageError(WorkbenchError, ValueError):
    """Structurally valid objects used incorrectly (rank mismatch, arity, range)."""


class ResourceCapError(WorkbenchError, RuntimeError):
    """An enumeration would exceed the configured cap."""


def at_least(value: int, key: str, least: int) -> int:
    """``value`` if it is at least ``least``, else a ``ConfigError`` naming ``key``."""
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value
