"""Exception types shared across the package."""


class LoadcastError(Exception):
    """Base class for all package-specific errors."""


class ParseError(LoadcastError):
    """A CSV cell or timestamp could not be parsed."""


class IntegrityError(LoadcastError):
    """Frame contents violate a structural invariant (duplicates, NaNs...)."""


class SchemaError(LoadcastError):
    """Input data does not match the declared feature schema."""


class ConfigError(LoadcastError):
    """A configuration file or object is invalid or missing."""


class DegenerateFeatureError(LoadcastError):
    """A feature has zero variance over the scaler fit range."""


class FrameTooShortError(LoadcastError):
    """The frame has too little history for the requested operation."""


class CoverageError(LoadcastError):
    """Required future rows are missing during a forecast rollout."""


class DivergenceError(LoadcastError):
    """Training or a forecast produced a non-finite value."""


class FingerprintError(LoadcastError):
    """A checkpoint or report was produced by a different configuration."""
