"""Exception types shared across the toolkit."""


class BgpChurnError(Exception):
    """Base class for all toolkit errors."""


class MrtError(BgpChurnError):
    """Base class for MRT codec errors."""


class TruncatedRecord(MrtError):
    """A record header promised more bytes than the stream contains."""


class ContainerCorrupt(MrtError):
    """The gzip/bzip2 container failed to decompress."""


class BgpParseError(MrtError):
    """A BGP message body could not be decoded.

    Raised internally; stream readers downgrade affected records to
    kind="other" rather than aborting the file.
    """


class SinkFailure(MrtError):
    """Writing to the output sink failed."""


class LabelMismatch(BgpChurnError):
    """Classifier labels do not cover a message's announced prefixes."""


class DuplicateOutputName(BgpChurnError):
    """Two inputs would write their output to the same file."""


class NoBeaconRecords(BgpChurnError):
    """No input records fall on a configured beacon prefix."""


class NonConvergence(BgpChurnError):
    """The simulator exceeded its message budget for a single event."""


class ScenarioError(BgpChurnError):
    """A simulation scenario document failed validation."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class UnknownCollector(BgpChurnError):
    """Collector name is not valid for the requested archive project."""
