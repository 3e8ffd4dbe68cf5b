"""Exception types shared across the package."""


class IbcsError(Exception):
    """Base class for all package errors."""


class ParameterError(IbcsError):
    """Invalid scheme or experiment parameters."""


class MessageError(IbcsError):
    """Message rejected by the commitment layer (too long, bad symbol)."""


class QueryError(IbcsError):
    """Query set rejected (empty, duplicate, or out-of-range position)."""


class InstanceError(IbcsError):
    """Malformed relation instance or witness."""


class ProtocolViolation(IbcsError):
    """A party deviated from the prescribed message order or shape."""


class DecodeError(IbcsError):
    """Wire payload could not be decoded; `reason` is the message without
    the offset."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.reason = message
        self.offset = offset


class TransportError(IbcsError):
    """Underlying channel failure (socket closed, short read)."""


class InfeasibleError(IbcsError):
    """A search or experiment refused to run because its budget is exceeded."""
