"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: inconsistent widths, unknown keys, bad values."""


class NumericAbort(RuntimeError):
    """Training produced a non-finite loss, gradient or parameter; carries the offending step index."""

    def __init__(self, step: int, what: str, message: str):
        super().__init__(f"non-finite {what} at step {step}: {message}")
        self.step = step
