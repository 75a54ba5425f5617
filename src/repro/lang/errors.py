"""Parse errors with source positions."""

from __future__ import annotations

from repro.core.errors import ReproError


class ParseError(ReproError):
    """A syntax error in a program, body, or object-base text.

    Carries the 1-based ``line`` and ``column`` of the offending token so
    tools (the CLI, tests) can point at the exact spot.
    """

    def __init__(self, message: str, line: int, column: int):
        self.reason = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
