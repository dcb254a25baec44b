"""Exception types shared across the package, and its one memory budget.

The CLI maps these onto exit codes: :class:`ConfigurationError` -> 2,
:class:`NumericalError` (and subclasses) -> 1.
"""

# Bytes each array family of a run may take; every size guard counts its
# family before allocating it and calls check_bytes.
MEMORY_BYTES = 2 ** 28


class ConfigurationError(ValueError):
    """Invalid parameters, violated preconditions, or malformed config input."""


class NumericalError(RuntimeError):
    """A computation failed to reach its stated tolerance or consistency check."""


class InstabilityError(NumericalError):
    """A time integration blew up; message carries the offending parameters."""


def check_bytes(what: str, nbytes: float) -> None:
    """ConfigurationError naming `what` when its nbytes pass MEMORY_BYTES."""
    if nbytes > MEMORY_BYTES:
        raise ConfigurationError(f"{what} take {nbytes} bytes, more than the budget "
                                 f"MEMORY_BYTES={MEMORY_BYTES}")
