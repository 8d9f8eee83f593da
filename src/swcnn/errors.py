"""Error taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: usage errors (bad flags, unknown
config keys) exit 1, data errors (missing/malformed inputs, bad
containers) exit 2, numeric failures (non-finite losses) exit 3.
"""


class UsageError(Exception):
    """Bad invocation: unknown config keys, invalid flag combinations."""


class DataError(Exception):
    """Unreadable or malformed input data, or an incompatible container."""


class NonFiniteWeights(DataError):
    """An inference pass gathered a weight that is NaN or infinite.

    A container's embedding ``W`` is checked where a document reads it,
    not at load; the command answering the document names the container
    and the document.  Training turns it into a ``NumericError``.
    """


class NumericError(Exception):
    """Training produced a non-finite value and was aborted."""
