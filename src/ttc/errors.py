"""Exception hierarchy shared by every ttc module."""


class TtcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAddress(TtcError):
    """A node address does not denote a node of the tree at hand."""


class AlphabetMismatch(TtcError):
    """A tree or machine uses a symbol outside the expected ranked alphabet."""


class NotLinearNondeleting(TtcError):
    """Fusion requires the second machine to be linear and nondeleting."""


class ChainTooShort(TtcError):
    """Chain reduction needs at least three stages."""


class ResourceLimit(TtcError):
    """A configured cap (output set size, state count, ...) was exceeded."""


class ValidationError(TtcError):
    """A machine, workspace, or tree violates a structural invariant."""


class TtcSyntaxError(TtcError):
    """Definition-language syntax error, with source location."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__("line %d, column %d: %s" % (line, column, message))


class ValidationWarning(UserWarning):
    """Non-fatal validation finding (e.g. an alphabet without rank-0 symbols)."""
