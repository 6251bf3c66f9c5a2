"""Exception and warning types shared across the package."""


class RelayRtmError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RelayRtmError, ValueError):
    """An input violates a documented precondition (shape, range, sign)."""


class DeadRelayError(RelayRtmError):
    """The relay-to-destination channel has rank zero: no transform matrix
    can carry signal, callers should fall back to the direct link."""


class NumericalError(RelayRtmError):
    """A computation produced a non-finite value or failed a built-in
    numerical cross-check."""


class ConfigError(RelayRtmError):
    """A run configuration document is malformed or inconsistent."""


class DeadRelayWarning(UserWarning):
    """A channel matrix on the relay path is identically zero; the network
    degenerates to the direct link but remains well defined."""
