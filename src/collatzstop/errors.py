"""Exception types shared across the package."""


class CollatzStopError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CollatzStopError, ValueError):
    """An argument lies outside an operation's domain."""


class ParseError(DomainError):
    """Text could not be parsed as a parity word."""


class LimitError(CollatzStopError, RuntimeError):
    """A configured search or step cap was exceeded."""


def check_cap(what: str, value: int, cap: int) -> None:
    """Refuse a value past its cap: `what` names it, as in "census of length"."""
    if value > cap:
        raise LimitError(f"{what} {value} exceeds the cap {cap}")


def quote(text: str) -> str:
    """The repr of text's first 100 characters, followed by text's whole
    length when it is longer: how a message quotes a file's content, so the
    message stays one short line whatever the file holds."""
    if len(text) <= 100:
        return repr(text)
    return f"{text[:100]!r}... ({len(text)} characters)"


class StepLimitError(LimitError):
    """A walk hit its step cap before descending.

    Carries the partial walk: start, steps taken, odd-step count,
    the parity word so far, and the value reached.
    """

    def __init__(self, start, steps, odd_steps, word, value):
        self.start = start
        self.steps = steps
        self.odd_steps = odd_steps
        self.word = word
        self.value = value
        super().__init__(
            f"step cap {steps} exceeded for start {start} (reached {value})"
        )


class CycleDetectedError(CollatzStopError, ArithmeticError):
    """An orbit returned exactly to its start value, so it can never descend."""


class CheckpointError(CollatzStopError):
    """A scan checkpoint is missing, corrupt, or does not match the scan."""
