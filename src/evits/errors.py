"""Exception types shared across the toolkit, and the seed check."""

import numbers


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(ToolkitError, ValueError):
    """Tensor extents do not match what an operation requires."""


class DomainError(ToolkitError, ValueError):
    """A numeric argument is outside an operation's valid domain."""


class ConfigError(ToolkitError, ValueError):
    """An invalid configuration value or flag combination."""


class ContractError(ToolkitError):
    """Misuse of the differentiation API (e.g. backward on a non-scalar)."""


class DegenerateBatchError(ToolkitError, ValueError):
    """A batch is too small for the requested statistic (covariances need N >= 2)."""


class FormatError(ToolkitError):
    """A binary container is malformed; carries the offending byte offset."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalAbort(ToolkitError):
    """Training produced a non-finite loss or gradient; names the first one."""

    def __init__(self, component, epoch, step, kind="loss component"):
        super().__init__(
            f"non-finite '{component}' {kind} at epoch {epoch}, step {step}"
        )
        self.component = component
        self.epoch = epoch
        self.step = step


def check_seed(seed, owner="the"):
    """Raise ConfigError unless `seed` is a non-negative integer, the seeds
    numpy's SeedSequence takes."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"{owner} seed must be a non-negative integer, not {seed!r}")
