"""Exception types shared across the package, the UTF-8 file opener and
the text rules: ``csv_rows`` and ``csv_fields`` are the CSV line rule of
event files, manifests and record files (lines stripped, blank ones and a
line-1 header skipped, fields split on commas and stripped), every
integer read from text goes through ``decimal_int`` and every float
through ``decimal_float``.

The command-line front end maps each class to a distinct exit code, so new
error conditions should reuse one of these rather than raising bare
ValueError.
"""

from __future__ import annotations

import numbers
import re
from contextlib import contextmanager
from typing import Iterator


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


def csv_rows(path: str, header: str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each non-blank line of ``path``, stripped;
    line 1 is skipped when it equals ``header`` once its spaces are removed."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not (lineno == 1 and line.replace(" ", "") == header):
                yield lineno, line


def csv_fields(path: str, lineno: int, line: str, width: int) -> list[str]:
    """``line`` split on commas into ``width`` stripped fields; a ParseError
    naming the line when it holds another number of fields."""
    fields = [part.strip() for part in line.split(",")]
    if len(fields) != width:
        raise ParseError(f"{path}: expected {width} fields, got {len(fields)}",
                         line=lineno)
    return fields


def exact_int(value, name: str, error: type[Exception] = ValueError) -> int:
    """``value`` as a Python int when it is an integer (a numpy one too);
    ``error`` naming ``name`` otherwise. ``int`` would truncate a float,
    take a boolean as 0 or 1 and parse a string, so the JSON readers (weight
    files and record files) refuse all three through this one rule."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def decimal_int(text: str, name: str) -> int:
    """``text`` as an int when it is an optional ``-`` and ASCII digits;
    ValueError naming ``name`` otherwise. ``int`` would also take ``+5``,
    ``1_0`` and non-ASCII digits, so every integer read from text (CSV
    fields, config values, command-line numbers) goes through this rule."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{name} must be an integer, got {text!r}")
    return int(text)


# an optional "-", ASCII digits, an optional fraction and an optional
# exponent: str(float) of every finite float, and nothing else
_DECIMAL_FLOAT = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


def decimal_float(text: str, name: str) -> float:
    """``text`` as a float when it is an optional ``-``, ASCII digits, an
    optional fraction and an optional exponent (``200e6``, ``2.11``,
    ``1e-05``); ValueError naming ``name`` otherwise. ``float`` would also
    take ``+2.11``, ``2_0_0e6``, non-ASCII digits, ``nan`` and ``inf``."""
    if _DECIMAL_FLOAT.fullmatch(text) is None:
        raise ValueError(f"{name} must be a decimal number, got {text!r}")
    return float(text)
