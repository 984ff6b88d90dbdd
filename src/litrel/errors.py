"""Exception types shared across the package.

The CLI maps ParseError/ValidationError/ConfigError, and the OS errors
of a path that is missing, unreadable or of the wrong type, to exit
code 1, and TrainingError (plus anything unexpected) to exit code 2.
"""


class ParseError(ValueError):
    """Malformed input file (wrong field count, bad number, ...)."""


class ValidationError(ValueError):
    """A contract violation on user-supplied arguments or files."""


class ConfigError(ValidationError):
    """Invalid or inconsistent run configuration."""


class TrainingError(RuntimeError):
    """Numerical failure during optimization (divergence, non-finite loss)."""
