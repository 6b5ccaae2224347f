"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` so tests and callers
can match on the failure kind without parsing prose.
"""

from __future__ import annotations


class WsnError(Exception):
    """Base class: an error with a stable code string. An error that names
    the line of its input at fault keeps it in ``line_no``, and its message
    begins ``line <line_no>: ``."""

    def __init__(self, code: str, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.line_no = line_no

    def __reduce__(self):
        """Copy and pickle rebuild the error from its arguments, not its text."""
        message = self.message
        if self.line_no is not None:
            message = message.removeprefix(f"line {self.line_no}: ")
        return type(self), (self.code, message, self.line_no)


class TopologyError(WsnError):
    """Raised for invalid tree structures or lookups on missing nodes."""


class EnvError(WsnError):
    """Raised for unknown channels or invalid field/sensor parameters."""


class SimError(WsnError):
    """Raised for simulation misuse (bad round index, non-link, sink failure)."""


class TelemetryError(WsnError):
    """Raised by the telemetry log writer and parser."""


class GatewayError(WsnError):
    """Raised when the gateway service cannot start or is misused."""


class ConfigError(WsnError):
    """Raised for unreadable run configuration files; names the offending line."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__("CONFIG", message, line_no)

    def __reduce__(self):
        cls, (_, message, line_no) = super().__reduce__()
        return cls, (message, line_no)
