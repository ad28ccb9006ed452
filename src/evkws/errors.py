"""Exception types shared across the package, and the UTF-8 file opener.

The command-line front end maps each class to a distinct exit code, so new
error conditions should reuse one of these rather than raising bare
ValueError.
"""

from __future__ import annotations

from contextlib import contextmanager


class EvkwsError(Exception):
    """Base class for package-specific failures."""


class ParseError(EvkwsError):
    """File content could not be decoded under the declared format.

    The message names the 1-based line number (text formats) or byte offset
    (binary) of the first offending record when known.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 offset: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class ValidationError(EvkwsError):
    """Well-formed data violates a documented invariant."""


class OrderingError(ValidationError):
    """Timestamps regressed where non-decreasing order is required."""


class ConfigError(EvkwsError):
    """Run configuration is missing, inconsistent, or out of range."""


@contextmanager
def open_text(path: str, error: type[EvkwsError] = ParseError):
    """Open ``path`` to read as UTF-8; undecodable bytes raise ``error``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc.reason}") from None
