"""Exception hierarchy shared across the package.

Each error carries the process exit code the CLI maps it to.
"""


class ArtinvError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class UsageError(ArtinvError):
    """Invalid invocation: bad flags, missing required inputs."""

    exit_code = 1


class DataError(ArtinvError):
    """Malformed or inconsistent input data (manifests, files, checkpoints)."""

    exit_code = 2


class WorkerDied(ArtinvError):
    """A forked worker process ended before it handed back its results."""

    exit_code = 2


class NumericalError(ArtinvError):
    """NaN/Inf encountered, or a numerical verification failed."""

    exit_code = 3
