"""Exception types shared across the package."""


class KpIndexError(Exception):
    """Base class for all package errors."""


class ConfigError(KpIndexError):
    """Invalid configuration file, value, or override."""


class DataError(KpIndexError):
    """Input data violates the expected schema or invariants: a malformed or
    inconsistent corpus, an unreadable or corrupt index file, or a corpus
    that evaluation cannot score."""

