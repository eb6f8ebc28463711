"""Exception types shared across the toolkit."""


class BgpChurnError(Exception):
    """Base class for all toolkit errors."""


class MrtError(BgpChurnError):
    """An MRT file could not be read or written."""


class BgpParseError(MrtError):
    """A BGP message body could not be decoded.

    Raised internally; stream readers downgrade affected records to
    kind="undecodable" rather than aborting the file.
    """


class NonConvergence(BgpChurnError):
    """The simulator exceeded its message budget for a single event."""


class ScenarioError(BgpChurnError):
    """A simulation scenario document failed validation."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
