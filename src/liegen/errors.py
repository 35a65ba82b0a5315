"""Shared exception types."""


class EnvelopeError(ValueError):
    """An argument is outside the range a function accepts."""


class BranchAmbiguityError(ValueError):
    """A complex square root landed too close to the branch cut to trust."""


class ConfigError(ValueError):
    """A config file or CLI option could not be parsed."""
