"""Exception types shared across the package."""


class ModlabError(Exception):
    """Base class for all package-specific failures."""


class ConfigurationError(ModlabError, ValueError):
    """Inconsistent inputs: bad grids, mismatched drive frequencies, invalid parameters."""


class DomainError(ModlabError, ValueError):
    """A value lies outside the physically meaningful domain of an operation."""


class ResolutionError(ModlabError, ValueError):
    """A sampling grid is too coarse or too short for the requested computation."""


class ConvergenceError(ModlabError, RuntimeError):
    """An iterative numerical scheme failed to reach its accuracy target."""


class ConfigParseError(ConfigurationError):
    """Config-file syntax or schema violation. Carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
